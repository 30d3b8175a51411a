package tensor

import (
	"math"
	"os"
	"strings"
	"testing"
)

// TestExpPathReproducesMathExp: the exp sequence chosen at init reproduces
// math.Exp on every probe, and the probes tell archExp's two sequences
// apart, so only one can pass. Where the CPU has AVX2 the kernels are on, in
// the sequence that passes: the fused one by default on a CPU with FMA, the
// plain one under GODEBUG=cpu.fma=off — the four-lane kernel and, where the
// CPU has AVX-512F, the eight-lane one, each probe in every lane.
func TestExpPathReproducesMathExp(t *testing.T) {
	if got := calibratedExp(); got != expPath {
		t.Fatalf("calibratedExp() = %d, init chose %d", got, expPath)
	}
	if !useAVX2 {
		if expPath != expScalar {
			t.Fatalf("no AVX2, exp path %d", expPath)
		}
		t.Skip("no AVX2 on this host: the scalar path only")
	}
	if !hasFMA() {
		if expPath != expPlain {
			t.Fatalf("no FMA, exp path %d, want the plain sequence", expPath)
		}
		return
	}
	plain, fused := expMatches(false), expMatches(true)
	if plain == fused {
		t.Fatalf("the probes match math.Exp on the plain sequence: %v, on the fused one: %v; want exactly one", plain, fused)
	}
	want := expPlain
	if fused {
		want = expFused
	}
	switch godebug := os.Getenv("GODEBUG"); {
	case expPath != want:
		t.Fatalf("exp path %d, but the probes match variant %d", expPath, want)
	case godebug == "" && want != expFused:
		t.Fatalf("math.Exp runs the plain sequence on a CPU with FMA")
	case strings.Contains(godebug, "cpu.fma=off") && want != expPlain:
		t.Fatalf("math.Exp runs the fused sequence under GODEBUG=%q", godebug)
	}
	for _, b := range expProbes {
		x := math.Float64frombits(b)
		z := [4]float64{x, x, x, x}
		var zero [4]float64
		ExpShift4(z[:], &zero)
		if math.Float64bits(z[0]) != math.Float64bits(math.Exp(x)) {
			t.Errorf("ExpShift4 of probe %v = %v, math.Exp %v", x, z[0], math.Exp(x))
		}
	}
	if !useAVX512 {
		t.Log("no AVX-512F on this host: the eight-lane kernel skipped")
		return
	}
	for shift := range 8 {
		var z [8]float64
		for i := range z {
			z[i] = math.Float64frombits(expProbes[(i+shift)%len(expProbes)])
		}
		x := z
		if fast := exp8AVX512(&z, expPath == expFused); fast != 0xff {
			t.Errorf("the eight-lane exp leaves its fast path on probes %v: lanes %#x", x, fast)
		}
		for i := range z {
			if math.Float64bits(z[i]) != math.Float64bits(math.Exp(x[i])) {
				t.Errorf("the eight-lane exp of probe %v in lane %d = %v, math.Exp %v", x[i], i, z[i], math.Exp(x[i]))
			}
		}
	}
}
