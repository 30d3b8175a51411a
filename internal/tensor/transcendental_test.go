package tensor

import (
	"math"
	"runtime"
	"testing"
)

// withinULP reports whether got and want are the same bits, or — where
// exact is false — two NaNs or values of one sign at most two ulps apart:
// each of math.Exp's two sequences is within an ulp of eˣ, so they can be
// two apart, and are at about 3 of 10⁶ random x in [−750, 750].
func withinULP(got, want float64, exact bool) bool {
	g, w := math.Float64bits(got), math.Float64bits(want)
	if g == w {
		return true
	}
	if !exact && got != got && want != want {
		return true
	}
	if exact || got != got || want != want || math.Signbit(got) != math.Signbit(want) {
		return false
	}
	return g-w <= 2 || w-g <= 2
}

// checkAgainstMath wants f(x) to have ref(x)'s bits where exact is set and
// to be within two ulps of it elsewhere, for every x of xs.
func checkAgainstMath(t *testing.T, name string, f, ref func(float64) float64, exact bool, xs ...float64) {
	t.Helper()
	for _, x := range xs {
		if got, want := f(x), ref(x); !withinULP(got, want, exact) {
			t.Fatalf("%s(%v) = %v (%#x), math's %v (%#x), exact %v", name, x, got, math.Float64bits(got), want, math.Float64bits(want), exact)
		}
	}
}

// grid returns from, from+step, … up to and including to.
func grid(from, to, step float64) []float64 {
	var xs []float64
	for i := 0; ; i++ {
		x := from + float64(float64(i)*step)
		if x > to {
			return xs
		}
		xs = append(xs, x)
	}
}

// specialInputs are the inputs every function's table includes: ±0, ±Inf,
// the extremes, subnormals, and NaNs of distinct payloads and signs.
var specialInputs = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1022, 0x1p-1030,
	math.NaN(), math.Float64frombits(0x7ff8000000000abc), math.Float64frombits(0xfff8000000000001),
	math.Float64frombits(0x7ff0000000000123),
}

// TestExpMatchesMathExp: Exp has math.Exp's bits where math.Exp runs the
// plain sequence — amd64 without FMA, or under GODEBUG=cpu.fma=off — and is
// within two ulps of it elsewhere: at every 1/64 over [−746, 710], every
// 1/4096 over the denormal branch (−708.75 down to −745.2), across the
// overflow bound 709.78, at a million random inputs and at every special
// input, NaN payloads kept.
func TestExpMatchesMathExp(t *testing.T) {
	exact := mathExpPlain()
	t.Logf("math.Exp runs the plain sequence: %v", exact)
	checkAgainstMath(t, "Exp", Exp, math.Exp, exact, specialInputs...)
	checkAgainstMath(t, "Exp", Exp, math.Exp, exact, grid(-746, 710, 1.0/64)...)
	checkAgainstMath(t, "Exp", Exp, math.Exp, exact, grid(-745.2, -708.75, 1.0/4096)...)
	checkAgainstMath(t, "Exp", Exp, math.Exp, exact, 7.09782712893384e+02, math.Nextafter(7.09782712893384e+02, 1),
		math.Nextafter(7.09782712893384e+02, 0), 709.78, -745.1332191019411, -745.1332191019412, -1e300)
	rng := NewRNG(45)
	for range 1_000_000 {
		x := (float64(rng.Float64()) - 0.5) * 1500
		if got, want := Exp(x), math.Exp(x); !withinULP(got, want, exact) {
			t.Fatalf("Exp(%v) = %v (%#x), math.Exp %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, x := range specialInputs {
		if x != x && math.Float64bits(Exp(x)) != math.Float64bits(x) {
			t.Errorf("Exp(NaN %#x) = %#x, not its argument", math.Float64bits(x), math.Float64bits(Exp(x)))
		}
	}
}

// TestLogMatchesMathLog: Log has amd64 math.Log's bits on every positive
// normal number and every special input — across each binade's mantissa,
// √2/2 exactly, and a million random bit patterns — and is within two ulps
// of math.Log on other GOARCHes, which run its Go code.
func TestLogMatchesMathLog(t *testing.T) {
	exact := runtime.GOARCH == "amd64"
	for _, x := range specialInputs {
		if x <= 0 || x >= 0x1p-1022 || x != x {
			checkAgainstMath(t, "Log", Log, math.Log, exact, x)
		}
	}
	for e := -1022; e <= 1023; e++ {
		for _, m := range []float64{1, 1.0000000000000002, 1.25, 1.4142135623730951, 1.5, 1.9999999999999998} {
			checkAgainstMath(t, "Log", Log, math.Log, exact, math.Ldexp(m, e), math.Ldexp(math.Sqrt2/2, e+1))
		}
	}
	checkAgainstMath(t, "Log", Log, math.Log, exact, grid(1, 64, 1.0/1024)...)
	rng := NewRNG(46)
	for range 1_000_000 {
		x := math.Float64frombits(rng.Uint64()&^(1<<63) | 1<<52)
		if x > math.MaxFloat64 {
			continue
		}
		if got, want := Log(x), math.Log(x); !withinULP(got, want, exact) {
			t.Fatalf("Log(%v) = %v (%#x), math.Log %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestLogSubnormal: a subnormal x is scaled into the normal range before its
// exponent is read, where amd64's math.Log reads it as −1022 (its
// Log(5e-324) is −709.09): Log(2⁻¹⁰⁷⁴) is −1074·ln2, and every subnormal's
// log is within an ulp of Log(x·2⁶⁰) − 60·ln2.
func TestLogSubnormal(t *testing.T) {
	if got := Log(math.SmallestNonzeroFloat64); got != -744.4400719213812 {
		t.Fatalf("Log(5e-324) = %v, want −744.4400719213812", got)
	}
	rng := NewRNG(47)
	for i := range 100_000 {
		b := uint64(i + 1)
		if i >= 64 {
			b = rng.Uint64() & (1<<52 - 1)
		}
		x := math.Float64frombits(b)
		if x == 0 {
			continue
		}
		want := float64(Log(x*0x1p60)) - 60*math.Ln2
		if got := Log(x); math.Abs(got-want) > 2*0x1p-43 { // an ulp of 745 is 2⁻⁴³
			t.Fatalf("Log(%v) = %v, Log(x·2⁶⁰) − 60·ln2 = %v", x, got, want)
		}
	}
}

// TestLog1pMatchesMathLog1p: Log1p has amd64 math.Log1p's bits — math's Go
// code, which amd64 compiles unfused — on [−1, 8] at every 1/4096, on tiny
// and huge arguments, at a million random ones and at every special input;
// within two ulps on other GOARCHes.
func TestLog1pMatchesMathLog1p(t *testing.T) {
	exact := runtime.GOARCH == "amd64"
	checkAgainstMath(t, "Log1p", Log1p, math.Log1p, exact, specialInputs...)
	checkAgainstMath(t, "Log1p", Log1p, math.Log1p, exact, grid(-1, 8, 1.0/4096)...)
	for e := -1074; e <= 1023; e++ {
		checkAgainstMath(t, "Log1p", Log1p, math.Log1p, exact, math.Ldexp(1.3, e), -math.Ldexp(1.3, e-1))
	}
	rng := NewRNG(48)
	for range 1_000_000 {
		x := float64(2*float64(rng.Float64())) - 1
		if got, want := Log1p(x), math.Log1p(x); !withinULP(got, want, exact) {
			t.Fatalf("Log1p(%v) = %v (%#x), math.Log1p %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestTanhMatchesMathTanh: Tanh has math.Tanh's bits where math.Exp runs the
// plain sequence (amd64 runs math's Go tanh, which calls math.Exp) and is
// within two ulps elsewhere: at every 1/1024 over [−50, 50], near the
// ±0.625 switch to Exp and the ±44 saturation, and at every special input.
func TestTanhMatchesMathTanh(t *testing.T) {
	exact := mathExpPlain()
	checkAgainstMath(t, "Tanh", Tanh, math.Tanh, exact, specialInputs...)
	checkAgainstMath(t, "Tanh", Tanh, math.Tanh, exact, grid(-50, 50, 1.0/1024)...)
	for _, x := range []float64{0.625, 44.014845965556525, 1e-300} {
		checkAgainstMath(t, "Tanh", Tanh, math.Tanh, exact, x, -x, math.Nextafter(x, 0), -math.Nextafter(x, 0))
	}
}

// FuzzExp holds Exp to math.Exp at an arbitrary bit pattern: its bits where
// math.Exp runs the plain sequence, within two ulps elsewhere, a NaN's
// payload kept.
func FuzzExp(f *testing.F) {
	for _, x := range []float64{0, 1, -708.8, -745.1, 709.78, -1e-300} {
		f.Add(math.Float64bits(x))
	}
	f.Add(uint64(0x7ff8000000000abc))
	exact := mathExpPlain()
	f.Fuzz(func(t *testing.T, b uint64) {
		x := math.Float64frombits(b)
		checkAgainstMath(t, "Exp", Exp, math.Exp, exact, x)
		if x != x && math.Float64bits(Exp(x)) != b {
			t.Fatalf("Exp(NaN %#x) = %#x", b, math.Float64bits(Exp(x)))
		}
	})
}

// FuzzLog holds Log to math.Log at an arbitrary bit pattern — its bits on
// amd64 for everything but a subnormal, which it holds to Log(x·2⁶⁰) −
// 60·ln2.
func FuzzLog(f *testing.F) {
	for _, x := range []float64{1, math.Sqrt2 / 2, 0.5, 1e300, 5e-324, 1e-310, -1} {
		f.Add(math.Float64bits(x))
	}
	f.Add(uint64(0xfff8000000000abc))
	exact := runtime.GOARCH == "amd64"
	f.Fuzz(func(t *testing.T, b uint64) {
		x := math.Float64frombits(b)
		if x > 0 && x < 0x1p-1022 {
			want := float64(Log(x*0x1p60)) - 60*math.Ln2
			if got := Log(x); math.Abs(got-want) > 2*0x1p-43 {
				t.Fatalf("Log(%v) = %v, Log(x·2⁶⁰) − 60·ln2 = %v", x, got, want)
			}
			return
		}
		checkAgainstMath(t, "Log", Log, math.Log, exact || x != x || x <= 0, x)
	})
}
