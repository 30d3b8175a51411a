package tensor

import (
	"math"
	"testing"
)

// kernelInputs returns three length-n vectors of full-precision values
// with the given special values planted at different indices of each (as
// far as n allows).
func kernelInputs(n int, special ...float64) (a, x, y []float64) {
	rng := NewRNG(int64(n) + 17)
	a, x, y = rng.NormalVec(n, 0, 1), rng.NormalVec(n, 0, 1e-3), rng.NormalVec(n, 0, 10)
	for k, v := range special {
		if 3*k+2 < n {
			a[3*k], x[3*k+1], y[3*k+2] = v, v, v
		}
	}
	if len(special) > 0 && n > 0 {
		x[n-1], y[n-1] = special[0], special[0] // both operands of the same add
	}
	return a, x, y
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestDotAddMatchesDotAndAXPY: the fused pass returns the bits of Dot and
// leaves the bits of AXPY(1, ·, ·) — including through NaN, ±Inf, −0 and
// subnormal operands — so the streamed fold's aggregate and φ dots do not
// move. Each case plants one kind of special value: which of two different
// NaN payloads survives an addition is the instruction's operand order, a
// register-allocation accident that no caller can rely on from Dot either.
func TestDotAddMatchesDotAndAXPY(t *testing.T) {
	neg0 := math.Copysign(0, -1)
	for name, special := range map[string][]float64{
		"finite":         nil,
		"quiet NaN":      {math.NaN()},
		"signalling NaN": {math.Float64frombits(0x7ff0000000000abc)},
		"+Inf":           {math.Inf(1)},
		"-Inf":           {math.Inf(-1)},
		"Inf-Inf":        {math.Inf(1), math.Inf(-1)},
		"-0":             {neg0, 0, neg0},
		"subnormal":      {5e-324, -2.2e-308, 1e-310},
	} {
		for _, n := range []int{0, 1, 7, 2000} {
			a, x, y := kernelInputs(n, special...)
			wantY := Clone(y)
			wantDot := Dot(a, x)
			AXPY(1, x, wantY)
			gotDot := DotAdd(a, x, y)
			if math.Float64bits(gotDot) != math.Float64bits(wantDot) {
				t.Errorf("%s n=%d: DotAdd returned %v (%#x), Dot %v (%#x)", name, n,
					gotDot, math.Float64bits(gotDot), wantDot, math.Float64bits(wantDot))
			}
			if !sameBits(y, wantY) {
				t.Errorf("%s n=%d: DotAdd's accumulator differs from AXPY(1)", name, n)
			}
		}
	}
}

func TestDotAddLengthMismatchPanics(t *testing.T) {
	for _, lens := range [][3]int{{2, 3, 3}, {3, 3, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("DotAdd accepted lengths %v", lens)
				}
			}()
			DotAdd(make([]float64, lens[0]), make([]float64, lens[1]), make([]float64, lens[2]))
		}()
	}
}

// TestDotAdd4MatchesDotAdd: one four-delta pass returns the dots and leaves
// the accumulator of four DotAdd calls in sequence, at every length 0…9 and
// through every special value. Where two NaNs of distinct payloads meet, in
// a product or in one of the accumulator's sums, the payload that survives
// is a register-allocation accident (DotAdd's and Dot's differ under -race):
// there a dot is held to Dot's bits, the NaN rule DotAdd4 shares with
// DotRows, and the accumulator may keep either NaN.
func TestDotAdd4MatchesDotAdd(t *testing.T) {
	specials := map[string][]float64{"NaN payloads": {nanA, nanB}}
	for name, s := range rowSpecials {
		specials[name] = s
	}
	for name, special := range specials {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 2000} {
			w, a := kernelRows(4, n, special...)
			if len(special) > 0 && n > 0 {
				a[0] = special[len(special)-1] // meets every row's element 0, a special too
			}
			x := [4][]float64{w[:n], w[n : 2*n], w[2*n : 3*n], w[3*n:]}
			y := rotated(a, 1)
			payloads := name == "NaN payloads"
			want, wantY := make([]float64, 4), Clone(y)
			for k := range x {
				if want[k] = DotAdd(a, x[k], wantY); payloads {
					want[k] = Dot(a, x[k])
				}
			}
			got := make([]float64, 4)
			got[0], got[1], got[2], got[3] = DotAdd4(a, x[0], x[1], x[2], x[3], y)
			if d := bitsDiff(got, want, false); d != "" {
				t.Errorf("%s n=%d: DotAdd4's dots against four DotAdds: %s", name, n, d)
			}
			if d := bitsDiff(y, wantY, payloads); d != "" {
				t.Errorf("%s n=%d: DotAdd4's accumulator against four DotAdds: %s", name, n, d)
			}
		}
	}
}

// The kernel benchmarks run at the reference cell's model size and check
// every result against a term-by-term loop kept here.

var benchSink float64

// refDot rounds each product before its add, as Dot does, so that it is
// Dot's loop on a GOARCH whose compiler would fuse them too.
func refDot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}

func BenchmarkDot2000(b *testing.B) {
	a, x, _ := kernelInputs(2000)
	want := refDot(a, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = Dot(a, x)
	}
	if math.Float64bits(benchSink) != math.Float64bits(want) {
		b.Fatalf("Dot = %v, reference %v", benchSink, want)
	}
}

func BenchmarkAXPY2000(b *testing.B) {
	_, x, y := kernelInputs(2000)
	want := Clone(y)
	for j, v := range x {
		want[j] += v
	}
	got := Clone(y)
	if AXPY(1, x, got); !sameBits(got, want) {
		b.Fatal("AXPY accumulator differs from the reference")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AXPY(1, x, y)
	}
}

func BenchmarkDotAdd2000(b *testing.B) {
	a, x, y := kernelInputs(2000)
	want := Clone(y)
	for j, v := range x {
		want[j] += v
	}
	got := Clone(y)
	if dot := DotAdd(a, x, got); math.Float64bits(dot) != math.Float64bits(refDot(a, x)) || !sameBits(got, want) {
		b.Fatal("DotAdd differs from the reference")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = DotAdd(a, x, y)
	}
}

// BenchmarkDotAdd4x2000 is the streamed fold's four-delta pass: four dots
// against one validation gradient and one accumulator, at d=2000.
func BenchmarkDotAdd4x2000(b *testing.B) {
	const n = 2000
	w, a := kernelRows(4, n)
	x := [4][]float64{w[:n], w[n : 2*n], w[2*n : 3*n], w[3*n:]}
	y := rotated(a, 1)
	want, wantY := make([]float64, 4), Clone(y)
	for k := range x {
		want[k] = refDot(a, x[k])
		for j, v := range x[k] {
			wantY[j] += v
		}
	}
	got := make([]float64, 4)
	if got[0], got[1], got[2], got[3] = DotAdd4(a, x[0], x[1], x[2], x[3], y); !sameBits(got, want) || !sameBits(y, wantY) {
		b.Fatal("DotAdd4 differs from the term-by-term reference")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got[0], got[1], got[2], got[3] = DotAdd4(a, x[0], x[1], x[2], x[3], y)
	}
}
