package tensor

import (
	"math"
	"math/big"
	"runtime"
	"testing"
)

// withinULP reports whether got and want are the same bits, or — where
// exact is false — two NaNs or values of one sign at most two ulps apart:
// each of math.Exp's sequences is within an ulp of eˣ, so they can be two
// apart, and are at about 3 of 10⁶ random x in [−750, 750].
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

// The special inputs: ±0, ±Inf, the extremes, subnormals, and NaNs of
// distinct payloads and both signs.
var (
	negZero   = math.Copysign(0, -1)
	posNaN    = math.Float64frombits(0x7ff8000000000abc)
	negNaN    = math.Float64frombits(0xfff8000000000001)
	sigNaN    = math.Float64frombits(0x7ff0000000000123)
	negSig    = math.Float64frombits(0xfff0000000000456)
	inf, ninf = math.Inf(1), math.Inf(-1)
)

// specialTable holds tensor's documented result for each special input:
// NaNs of either sign, ±0, ±Inf and negative arguments are not compared with
// the host's math, whose results for them differ between GOARCHes (386's
// math.Log returns a NaN argument itself whatever its sign, amd64's a NaN
// with the sign bit set math.NaN()).
var specialTable = []struct {
	name string
	f    func(float64) float64
	x    float64
	want float64
}{
	{"Exp", Exp, 0, 1}, {"Exp", Exp, negZero, 1}, {"Exp", Exp, inf, inf}, {"Exp", Exp, ninf, 0},
	{"Exp", Exp, posNaN, posNaN}, {"Exp", Exp, negNaN, negNaN}, {"Exp", Exp, sigNaN, sigNaN}, {"Exp", Exp, negSig, negSig},
	{"Exp", Exp, -math.MaxFloat64, 0}, {"Exp", Exp, -1e300, 0}, {"Exp", Exp, -745.2, 0}, {"Exp", Exp, math.MaxFloat64, inf},
	{"Exp", Exp, 709.79, inf}, {"Exp", Exp, -math.SmallestNonzeroFloat64, 1}, {"Exp", Exp, math.SmallestNonzeroFloat64, 1},
	{"Log", Log, 0, ninf}, {"Log", Log, negZero, ninf}, {"Log", Log, inf, inf}, {"Log", Log, ninf, math.NaN()},
	{"Log", Log, posNaN, posNaN}, {"Log", Log, sigNaN, sigNaN}, {"Log", Log, negNaN, math.NaN()}, {"Log", Log, negSig, math.NaN()},
	{"Log", Log, -1, math.NaN()}, {"Log", Log, -math.SmallestNonzeroFloat64, math.NaN()}, {"Log", Log, -math.MaxFloat64, math.NaN()},
	{"Log", Log, 1, 0},
	{"Log1p", Log1p, 0, 0}, {"Log1p", Log1p, negZero, negZero}, {"Log1p", Log1p, inf, inf}, {"Log1p", Log1p, ninf, math.NaN()},
	{"Log1p", Log1p, -1, ninf}, {"Log1p", Log1p, math.Nextafter(-1, -2), math.NaN()}, {"Log1p", Log1p, -1e300, math.NaN()},
	{"Log1p", Log1p, posNaN, math.NaN()}, {"Log1p", Log1p, negNaN, math.NaN()}, {"Log1p", Log1p, sigNaN, math.NaN()},
}

// TestSpecialInputsTable: Exp, Log and Log1p return their documented
// result, bit for bit, at every special input of specialTable, on every
// GOARCH.
func TestSpecialInputsTable(t *testing.T) {
	for _, c := range specialTable {
		got := c.f(c.x)
		if math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("%s(%v, %#x) = %v (%#x), documented %v (%#x)", c.name, c.x, math.Float64bits(c.x),
				got, math.Float64bits(got), c.want, math.Float64bits(c.want))
		}
	}
}

// finiteInputs are the finite special inputs, which every function's
// comparison with math includes: the extremes and subnormals.
var finiteInputs = []float64{
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1022, -0x1p-1022, 0x1p-1030,
}

// expLate is the band (709.436, 709.7827] where n = round(x·log₂e) is 1024:
// eˣ is finite there, and amd64's math.Exp returns +Inf.
const expLateLo, expLateHi = 709.436, 7.09782712893384e+02

// bigExp returns eˣ rounded to the nearest float64, from (e^(x/1024))^1024
// at 256 bits with the inner exp by its Taylor series.
func bigExp(x float64) float64 {
	const prec = 256
	y := new(big.Float).SetPrec(prec).SetFloat64(x / 1024)
	sum := new(big.Float).SetPrec(prec).SetInt64(1)
	term := new(big.Float).SetPrec(prec).SetInt64(1)
	for k := int64(1); k < 80; k++ {
		term.Mul(term, y)
		term.Quo(term, new(big.Float).SetInt64(k))
		sum.Add(sum, term)
	}
	for range 10 {
		sum.Mul(sum, sum)
	}
	f, _ := sum.Float64()
	return f
}

// TestExpNearOverflow: Exp is finite, within an ulp of eˣ, across the band
// where n is 1024 — 709.4375 and 709.78 among its points, every 1/4096
// over it and its last float — and +Inf just above it.
func TestExpNearOverflow(t *testing.T) {
	xs := append(grid(709.4375, expLateHi, 1.0/4096), 709.78, expLateHi)
	for _, x := range xs {
		got, want := Exp(x), bigExp(x)
		if got > math.MaxFloat64 || !withinOneULP(got, want) {
			t.Fatalf("Exp(%v) = %v (%#x), eˣ %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if got := Exp(math.Nextafter(expLateHi, 710)); got != inf {
		t.Fatalf("Exp just above the overflow bound = %v, want +Inf", got)
	}
}

// withinOneULP reports whether the positive finite got and want are at most
// an ulp apart.
func withinOneULP(got, want float64) bool {
	g, w := math.Float64bits(got), math.Float64bits(want)
	return g-w <= 1 || w-g <= 1
}

// checkExp wants Exp(x) to have math.Exp's bits where exact and to be
// within two ulps of it elsewhere, for a finite x outside the late band,
// and within an ulp of eˣ inside it.
func checkExp(t *testing.T, exact bool, xs ...float64) {
	t.Helper()
	for _, x := range xs {
		if x > expLateLo && x <= expLateHi {
			if got, want := Exp(x), bigExp(x); !withinOneULP(got, want) {
				t.Fatalf("Exp(%v) = %v (%#x), eˣ %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			continue
		}
		checkAgainstMath(t, "Exp", Exp, math.Exp, exact, x)
	}
}

// TestExpMatchesMathExp: Exp has math.Exp's bits where math.Exp runs the
// FMA sequence — amd64 with FMA, unless GODEBUG=cpu.fma=off — and is
// within two ulps of it elsewhere, on finite inputs: at every 1/64 over
// [−746, 709.4], every 1/4096 over the denormal branch (−708.75 down to
// −745.2), below the overflow bound 709.78, at a million random inputs and
// at every finite special input. The band math.Exp sends to +Inf early is
// held to eˣ instead, as TestExpNearOverflow does.
func TestExpMatchesMathExp(t *testing.T) {
	exact := mathExpFused()
	t.Logf("math.Exp runs the FMA sequence: %v", exact)
	checkExp(t, exact, finiteInputs...)
	checkExp(t, exact, grid(-746, 709.4, 1.0/64)...)
	checkExp(t, exact, grid(-745.2, -708.75, 1.0/4096)...)
	checkExp(t, exact, 7.09782712893384e+02, math.Nextafter(7.09782712893384e+02, 0), 709.78, 709.43, 709.44,
		-745.1332191019411, -745.1332191019412, -1e300)
	rng := NewRNG(45)
	for range 1_000_000 {
		checkExp(t, exact, (float64(rng.Float64())-0.5)*1500)
	}
}

// TestLogMatchesMathLog: Log has amd64 math.Log's bits on every positive
// normal number — across each binade's mantissa, √2/2 exactly, the largest
// and smallest, and a million random bit patterns — and is within two ulps
// of math.Log on other GOARCHes, which run its Go code.
func TestLogMatchesMathLog(t *testing.T) {
	exact := runtime.GOARCH == "amd64"
	checkAgainstMath(t, "Log", Log, math.Log, exact, math.MaxFloat64, 0x1p-1022)
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
// code, which amd64 compiles unfused — on (−1, 8] at every 1/4096, on tiny
// and huge arguments, at a million random ones and at every finite special
// input above −1; within two ulps on other GOARCHes.
func TestLog1pMatchesMathLog1p(t *testing.T) {
	exact := runtime.GOARCH == "amd64"
	checkAgainstMath(t, "Log1p", Log1p, math.Log1p, exact, math.MaxFloat64, math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1022, 0x1p-1030)
	checkAgainstMath(t, "Log1p", Log1p, math.Log1p, exact, grid(-1+1.0/4096, 8, 1.0/4096)...)
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

// FuzzExp holds Exp at an arbitrary bit pattern to math.Exp — its bits
// where math.Exp runs the FMA sequence, within two ulps elsewhere — or, in
// the band math.Exp sends to +Inf early, to eˣ within an ulp; a NaN keeps
// its payload and ±Inf takes the documented result.
func FuzzExp(f *testing.F) {
	for _, x := range []float64{0, 1, -708.8, -745.1, 709.78, -1e-300} {
		f.Add(math.Float64bits(x))
	}
	f.Add(uint64(0x7ff8000000000abc))
	exact := mathExpFused()
	f.Fuzz(func(t *testing.T, b uint64) {
		x := math.Float64frombits(b)
		switch got := Exp(x); {
		case x != x:
			if math.Float64bits(got) != b {
				t.Fatalf("Exp(NaN %#x) = %#x", b, math.Float64bits(got))
			}
		case x == inf || x == ninf:
			if want := map[bool]float64{true: inf, false: 0}[x > 0]; got != want {
				t.Fatalf("Exp(%v) = %v, documented %v", x, got, want)
			}
		default:
			checkExp(t, exact, x)
		}
	})
}

// FuzzLog holds Log at an arbitrary bit pattern to math.Log where the
// argument is positive — its bits on amd64 for everything but a subnormal,
// which it holds to Log(x·2⁶⁰) − 60·ln2 — and to the documented result
// elsewhere: −Inf at ±0, the argument itself for +Inf and a NaN with the
// sign bit clear, math.NaN() for anything else with the sign bit set.
func FuzzLog(f *testing.F) {
	for _, x := range []float64{1, math.Sqrt2 / 2, 0.5, 1e300, 5e-324, 1e-310, -1} {
		f.Add(math.Float64bits(x))
	}
	f.Add(uint64(0xfff8000000000abc))
	exact := runtime.GOARCH == "amd64"
	f.Fuzz(func(t *testing.T, b uint64) {
		x := math.Float64frombits(b)
		got := Log(x)
		switch {
		case x == 0:
			if got != ninf {
				t.Fatalf("Log(%v) = %v, documented −Inf", x, got)
			}
		case b>>63 != 0:
			if math.Float64bits(got) != math.Float64bits(math.NaN()) {
				t.Fatalf("Log(%#x) = %#x, documented math.NaN()", b, math.Float64bits(got))
			}
		case x != x || x == inf:
			if math.Float64bits(got) != b {
				t.Fatalf("Log(%#x) = %#x, documented its argument", b, math.Float64bits(got))
			}
		case x < 0x1p-1022:
			want := float64(Log(x*0x1p60)) - 60*math.Ln2
			if math.Abs(got-want) > 2*0x1p-43 {
				t.Fatalf("Log(%v) = %v, Log(x·2⁶⁰) − 60·ln2 = %v", x, got, want)
			}
		default:
			checkAgainstMath(t, "Log", Log, math.Log, exact, x)
		}
	})
}
