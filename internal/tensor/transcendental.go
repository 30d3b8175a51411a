package tensor

import "math"

// The repository's exp, log and log1p. Every exp and log the
// repository computes is one of these, or a kernel lane held to them bit
// for bit (LogSumExp4, LogSumExp8, ExpShift4, ExpShift8), so φ has the same
// bits on every host: math.Exp runs one of two sequences on amd64, as the
// CPU has FMA or not, and every GOARCH may fuse the products of math's Go
// code. Exp fuses exactly where amd64's FMA sequence does, with math.FMA,
// which rounds once on every GOARCH, in hardware or in software; every
// other product here that meets an add is rounded first with float64(x*y),
// which forbids the fusion. A source test holds every other file of the
// repository to calling these rather than math's.

// Exp returns eˣ by the sequence of amd64's math.Exp with FMA
// (math/exp_amd64.s with math.useFMA true): n = round(x·log₂e), the
// reduction x − n·ln2 in two fused steps, a ×1/16, a fused Horner
// polynomial and four squarings (r+2)·r, the last fused with its +1, then
// the scale 2ⁿ — in two steps, through 2⁻¹⁰²², where the result is
// subnormal, and through 2¹⁰²³ where n is 1024, which math.Exp sends to
// +Inf although eˣ is finite up to the overflow bound. NaN keeps its
// payload.
func Exp(x float64) float64 {
	const (
		log2e    = 1.4426950408889634073599246810018920
		ln2U     = 0.69314718055966295651160180568695068359375 // the upper half of ln2
		ln2L     = 0.28235290563031577122588448175013436025525412068e-12
		overflow = 7.09782712893384e+02
	)
	switch {
	case x != x || x > math.MaxFloat64:
		return x
	case x < -math.MaxFloat64:
		return 0
	case x > overflow:
		return math.Inf(1)
	}
	n := math.RoundToEven(float64(log2e * x))
	if n < -1075 {
		return 0 // n+0x3FF < −52: the denormal branch's underflow
	}
	r := math.FMA(-n, ln2U, x)
	r = math.FMA(-n, ln2L, r)
	r = float64(r * 0.0625)
	p := math.FMA(2.4801587301587301587e-5, r, 1.9841269841269841270e-4)
	p = math.FMA(p, r, 1.3888888888888888889e-3)
	p = math.FMA(p, r, 8.3333333333333333333e-3)
	p = math.FMA(p, r, 4.1666666666666666667e-2)
	p = math.FMA(p, r, 1.6666666666666666667e-1)
	p = math.FMA(p, r, 0.5)
	p = math.FMA(p, r, 1)
	r = float64(r * p)
	r = float64(r * (r + 2))
	r = float64(r * (r + 2))
	r = float64(r * (r + 2))
	r = math.FMA(r, r+2, 1)
	switch e := int(n) + 0x3FF; {
	case e <= 0:
		return float64(float64(r*math.Float64frombits(uint64(e+0x3FE)<<52)) * 0x1p-1022)
	case e == 0x7FF:
		return float64(r*0x1p1023) * 2
	default:
		return float64(r * math.Float64frombits(uint64(e)<<52))
	}
}

// Log returns ln x by the sequence of amd64's math.Log (math/log_amd64.s):
// x = f₁·2ᵏ with f₁ in (√2/2, √2], s = f/(2+f) for f = f₁−1, two polynomials
// in s⁴, then k·ln2 in two halves. A subnormal x is scaled by 2⁵² first,
// which math.Log does not do: it reads a subnormal's exponent as −1022 and
// misses by up to 52·ln2. Log of ±0 is −Inf, of +Inf or a NaN with the sign
// bit clear x itself, and of anything else with the sign bit set math.NaN().
func Log(x float64) float64 {
	const (
		hSqrt2 = 7.07106781186547524401e-01 // √2/2
		ln2Hi  = 6.93147180369123816490e-01
		ln2Lo  = 1.90821492927058770002e-10
		l1     = 6.666666666666735130e-01
		l2     = 3.999999999940941908e-01
		l3     = 2.857142874366239149e-01
		l4     = 2.222219843214978396e-01
		l5     = 1.818357216161805012e-01
		l6     = 1.531383769920937332e-01
		l7     = 1.479819860511658591e-01
	)
	b := math.Float64bits(x)
	switch {
	case b&^(1<<63) == 0:
		return math.Inf(-1)
	case int64(b) < 0:
		return math.NaN()
	case b >= 0x7FF0000000000000:
		return x
	}
	k := -0x3FE
	if b < 1<<52 {
		b = math.Float64bits(x * 0x1p52)
		k -= 52
	}
	f1 := math.Float64frombits(b&(1<<52-1) | 0x3FE0000000000000)
	kf := float64(k + int(b>>52))
	if f1 <= hSqrt2 {
		kf--
		f1 *= 2
	}
	f := f1 - 1
	s := f / (2 + f)
	s2 := float64(s * s)
	s4 := float64(s2 * s2)
	t1 := float64(l7*s4) + l5
	t1 = float64(t1*s4) + l3
	t1 = float64(t1*s4) + l1
	t2 := float64(l6*s4) + l4
	t2 = float64(t2*s4) + l2
	hfsq := float64(0.5 * f * f)
	rh := float64(s2*t1) + float64(s4*t2) + hfsq // R + hfsq
	return float64(kf*ln2Hi) - (hfsq - (float64(s*rh) + float64(kf*ln2Lo)) - f)
}

// Log1p returns ln(1+x), accurate for x near 0: math's Go log1p
// (math/log1p.go), which amd64 runs, with each product rounded before its
// add.
func Log1p(x float64) float64 {
	const (
		sqrt2M1     = 4.142135623730950488017e-01  // √2−1
		sqrt2HalfM1 = -2.928932188134524755992e-01 // √2/2−1
		small       = 1.0 / (1 << 29)
		tiny        = 1.0 / (1 << 54)
		two53       = 1 << 53
		ln2Hi       = 6.93147180369123816490e-01
		ln2Lo       = 1.90821492927058770002e-10
		lp1         = 6.666666666666735130e-01
		lp2         = 3.999999999940941908e-01
		lp3         = 2.857142874366239149e-01
		lp4         = 2.222219843214978396e-01
		lp5         = 1.818357216161805012e-01
		lp6         = 1.531383769920937332e-01
		lp7         = 1.479819860511658591e-01
	)
	switch {
	case x < -1 || x != x:
		return math.NaN()
	case x == -1:
		return math.Inf(-1)
	case x > math.MaxFloat64:
		return math.Inf(1)
	}
	absx := math.Abs(x)
	var f float64
	var iu uint64
	k := 1
	if absx < sqrt2M1 {
		if absx < small {
			if absx < tiny {
				return x
			}
			return x - float64(x*x*0.5)
		}
		if x > sqrt2HalfM1 {
			k = 0
			f = x
			iu = 1
		}
	}
	var c float64
	if k != 0 {
		var u float64
		if absx < two53 {
			u = 1.0 + x
			iu = math.Float64bits(u)
			k = int((iu >> 52) - 1023)
			if k > 0 {
				c = 1.0 - (u - x)
			} else {
				c = x - (u - 1.0)
			}
			c /= u
		} else {
			u = x
			iu = math.Float64bits(u)
			k = int((iu >> 52) - 1023)
			c = 0
		}
		iu &= 0x000fffffffffffff
		if iu < 0x0006a09e667f3bcd { // the mantissa of √2
			u = math.Float64frombits(iu | 0x3ff0000000000000)
		} else {
			k++
			u = math.Float64frombits(iu | 0x3fe0000000000000)
			iu = (0x0010000000000000 - iu) >> 2
		}
		f = u - 1.0
	}
	hfsq := float64(0.5 * f * f)
	var s, R, z float64
	if iu == 0 { // |f| < 2⁻²⁰
		if f == 0 {
			if k == 0 {
				return 0
			}
			c += float64(float64(k) * ln2Lo)
			return float64(float64(k)*ln2Hi) + c
		}
		R = float64(hfsq * (1.0 - float64(0.66666666666666666*f)))
		if k == 0 {
			return f - R
		}
		return float64(float64(k)*ln2Hi) - ((R - (float64(float64(k)*ln2Lo) + c)) - f)
	}
	s = f / (2.0 + f)
	z = float64(s * s)
	R = float64(z * (lp1 + float64(z*(lp2+float64(z*(lp3+float64(z*(lp4+float64(z*(lp5+float64(z*(lp6+float64(z*lp7)))))))))))))
	if k == 0 {
		return f - (hfsq - float64(s*(hfsq+R)))
	}
	return float64(float64(k)*ln2Hi) - ((hfsq - (float64(s*(hfsq+R)) + (float64(float64(k)*ln2Lo) + c))) - f)
}
