package tensor

import (
	"math"
	"testing"
)

// onExpPaths runs f once on each path LogSumExp4, LogSumExp8, ExpShift4 and
// ExpShift8 can take here: the AVX-512 and AVX2 kernels, where there are, then Exp and
// Log one value at a time, forced by clearing useAVX512 and useAVX2.
func onExpPaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	avx2, avx512 := useAVX2, useAVX512
	defer func() { useAVX2, useAVX512 = avx2, avx512 }()
	switch {
	case !avx2:
		t.Log("no AVX2 exp kernel on this host: the scalar path only")
	case !avx512:
		t.Log("no AVX-512F on this host: the AVX-512 path skipped")
		t.Run("avx2", f)
	default:
		t.Run("avx512", f)
		useAVX512 = false
		t.Run("avx2", f)
	}
	useAVX2, useAVX512 = false, false
	t.Run("scalar", f)
}

// expSpecials are the special-value cases of the log-sum-exp tests, each
// planted into every row of a block at a row's own offset: a difference
// z_k − m of ±0, one whose exp is subnormal on archExp's fast path (near
// −708, where n reaches −1022), one its denormal branch takes (below about
// −708.75), one that underflows (below −745), ±Inf, Inf − Inf, and NaNs of
// distinct payloads.
var expSpecials = map[string][]float64{
	"finite":          nil,
	"±0":              {0, math.Copysign(0, -1), 0, math.Copysign(0, -1)},
	"subnormal exp":   {-708.4, -708.5, -708.7, -708.74},
	"denormal scale":  {-708.75, -709.5, -720, -744.9},
	"underflow":       {-745.2, -746, -800, -1e300},
	"+Inf":            {math.Inf(1)},
	"-Inf":            {math.Inf(-1)},
	"Inf-Inf":         {math.Inf(1), math.Inf(-1)},
	"large":           {709, 710, 1e308},
	"NaN payloads":    nanPayloads,
	"NaN beside +Inf": {math.Inf(1), math.Float64frombits(0x7ff8000000000abc)},
}

// expBlock returns a block of rows × c logits, row r drawn at scale
// 10^(r mod 4 − 1)·scale so the spreads of a four-row block's rows differ,
// with the special values planted in each row from column r on (wrapping):
// with the row maxima near 0, a planted −709 is a difference of about −709.
func expBlock(rng *RNG, rows, c int, scale float64, special []float64) []float64 {
	z := make([]float64, rows*c)
	for r := 0; r < rows; r++ {
		row := z[r*c : (r+1)*c]
		rng.Normal(row, 0, scale*math.Pow10(r%4-1))
		for i, v := range special {
			if i < c {
				row[(r+i)%c] = v
			}
		}
	}
	return z
}

// classMajor returns the row-major block z of rows × C in the kernels'
// class-major layout, row r's class k at [k·rows+r], followed by a sentinel.
func classMajor(z []float64, rows int) []float64 {
	c := len(z) / rows
	out := make([]float64, rows*c+1)
	for r := 0; r < rows; r++ {
		for k := 0; k < c; k++ {
			out[k*rows+r] = z[r*c+k]
		}
	}
	out[rows*c] = math.Float64frombits(blockSentinel)
	return out
}

// blockSentinel follows every block the tests hand a kernel.
const blockSentinel = 0x7ff8dead0000beef

// sameOrBothNaN compares got with want bit for bit, except that where the
// want came from a difference of two NaNs — whose payload is the
// subtraction's operand order, a register-allocation accident — any NaN
// will do.
func sameOrBothNaN(got, want float64, twoNaNs bool) bool {
	if twoNaNs && got != got && want != want {
		return true
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// checkLogSumExp runs LogSumExp4 or LogSumExp8, as rows is 4 or 8, on the
// block z (rows × c, row-major) laid out class-major and followed by a
// sentinel, then ExpShift4 or ExpShift8 by its result, and wants each lse[r]
// to be LogSumExp of row r and each p to be Exp(z − lse[r]) bit for bit,
// and nothing past the block written.
func checkLogSumExp(t *testing.T, what string, rows int, z []float64) {
	t.Helper()
	c := len(z) / rows
	buf := classMajor(z, rows)
	lse := make([]float64, rows)
	if rows == 8 {
		LogSumExp8((*[8]float64)(lse), buf[:8*c])
	} else {
		LogSumExp4((*[4]float64)(lse), buf[:4*c])
	}
	for r := range lse {
		if want := LogSumExp(z[r*c : (r+1)*c]); math.Float64bits(lse[r]) != math.Float64bits(want) {
			t.Fatalf("%s C=%d: LogSumExp%d row %d = %v (%#x), LogSumExp %v (%#x)", what, c, rows, r,
				lse[r], math.Float64bits(lse[r]), want, math.Float64bits(want))
		}
	}
	if !sameBits(buf, classMajor(z, rows)) {
		t.Fatalf("%s C=%d: LogSumExp%d wrote to its block or past it", what, c, rows)
	}
	if rows == 8 {
		ExpShift8(buf[:8*c], (*[8]float64)(lse))
	} else {
		ExpShift4(buf[:4*c], (*[4]float64)(lse))
	}
	for r := range lse {
		for k := 0; k < c; k++ {
			v := z[r*c+k]
			got, want := buf[k*rows+r], Exp(v-lse[r])
			if !sameOrBothNaN(got, want, v != v && lse[r] != lse[r]) {
				t.Fatalf("%s C=%d: ExpShift%d z[%d·%d+%d] = %v (%#x), Exp(%v − %v) %v (%#x)", what, c, rows, k, rows, r,
					got, math.Float64bits(got), v, lse[r], want, math.Float64bits(want))
			}
		}
	}
	if math.Float64bits(buf[rows*c]) != blockSentinel {
		t.Fatalf("%s C=%d: the block's kernels wrote past it", what, c)
	}
}

// TestLogSumExp4MatchesScalar: on every path of onExpPaths,
// every row of a four-row block gets LogSumExp's bits, and its softmax
// Exp(z − lse)'s — for 1…17 classes, rows at scales 10⁻³…10³, and
// every special case of expSpecials.
func TestLogSumExp4MatchesScalar(t *testing.T) {
	onExpPaths(t, func(t *testing.T) {
		rng := NewRNG(41)
		for name, special := range expSpecials {
			for c := 1; c <= 17; c++ {
				for _, scale := range []float64{1e-2, 1, 30} {
					checkLogSumExp(t, name, 4, expBlock(rng, 4, c, scale, special))
				}
			}
		}
	})
}

// TestLogSumExp8MatchesScalar: on every path of onExpPaths, every row of an
// eight-row block gets LogSumExp's bits, and its softmax Exp(z − lse)'s —
// for 1…17 classes, rows at scales 10⁻³…10³, and every special case of
// expSpecials.
func TestLogSumExp8MatchesScalar(t *testing.T) {
	if useAVX512 {
		// A finite block of spread logits stays on the kernel: no row is
		// retaken.
		z := expBlock(NewRNG(42), 8, 10, 0.3, nil)
		var lse [8]float64
		if retake := logSumExp8AVX512(&lse, &z[0], 10); retake != 0 {
			t.Fatalf("the eight-lane kernel retakes rows %#x of a finite block", retake)
		}
	}
	onExpPaths(t, func(t *testing.T) {
		rng := NewRNG(43)
		for name, special := range expSpecials {
			for c := 1; c <= 17; c++ {
				for _, scale := range []float64{1e-2, 1, 30} {
					checkLogSumExp(t, name, 8, expBlock(rng, 8, c, scale, special))
				}
			}
		}
	})
}

// TestExpShift4Overflow: a shift that leaves a difference above Exp's
// overflow bound, or a non-finite one, hands the rest of the block to Exp;
// every value still gets Exp's bits.
func TestExpShift4Overflow(t *testing.T) {
	onExpPaths(t, func(t *testing.T) {
		for _, shift := range [][4]float64{{0, 0, 0, 0}, {-1, 0, 1, 2}, {math.Inf(1), 0, 0, 0}, {0, math.NaN(), 0, 0}} {
			z := []float64{1, 709.7, 709.8, 710, -3, 2, 0.5, -0.5, 3, 1e300, -1e300, 7, 0, 1, 2, 3}
			want := make([]float64, len(z))
			for i, v := range z {
				want[i] = Exp(v - shift[i%4])
			}
			ExpShift4(z, &shift)
			for i := range z {
				if math.Float64bits(z[i]) != math.Float64bits(want[i]) {
					t.Errorf("shift %v: ExpShift4 value %d = %v, Exp %v", shift, i, z[i], want[i])
				}
			}
		}
	})
}

// TestExpShift8Overflow is TestExpShift4Overflow for ExpShift8: a class with
// a lane off Exp's fast path, first or last, hands the rest of the block to
// Exp with the same bits.
func TestExpShift8Overflow(t *testing.T) {
	onExpPaths(t, func(t *testing.T) {
		for _, shift := range [][8]float64{{}, {-1, 0, 1, 2, 3, 4, 5, 6}, {math.Inf(1)}, {0, 0, 0, 0, 0, 0, 0, math.NaN()}} {
			z := []float64{1, -3, 3, 0, 2, 0.5, -0.5, 7, 709.7, 2, 1e300, 1, 0.25, -2, -1, 4, 709.8, 0.5, -1e300, 2, -7, 3, 710, 3}
			want := make([]float64, len(z))
			for i, v := range z {
				want[i] = Exp(v - shift[i%8])
			}
			ExpShift8(z, &shift)
			for i := range z {
				if math.Float64bits(z[i]) != math.Float64bits(want[i]) {
					t.Errorf("shift %v: ExpShift8 value %d = %v, Exp %v", shift, i, z[i], want[i])
				}
			}
		}
	})
}

// TestExpTableMatchesMathExp: the kernels' exp, four lanes and eight, has
// Exp's bits at every 1/256 over [−746, 709.75], and each kernel itself
// computes each block of it that lies wholly on Exp's fast path.
func TestExpTableMatchesMathExp(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 exp kernel on this host")
	}
	const c = 16
	var zero [8]float64
	for _, lanes := range []int{4, 8} {
		if lanes == 8 && !useAVX512 {
			t.Log("no AVX-512F on this host: the eight-lane kernel skipped")
			continue
		}
		for at := 709*256 + 192; at > -746*256; at -= 8 * c {
			var z [8 * c]float64
			for i := range z {
				z[i] = float64(at-i) / 256
			}
			x := z
			var done int
			if lanes == 8 {
				done = expShift8AVX512(&z[0], c, &zero)
			} else {
				done = expShift4AVX2(&z[0], 2*c, 4, (*[4]float64)(zero[:4]))
			}
			if x[0] < 709.43 && x[len(x)-1] > -708.7 && done != len(z)/lanes {
				t.Fatalf("block from %v: the %d-lane kernel did %d of %d classes on the fast path", x[0], lanes, done, len(z)/lanes)
			}
			for i := 0; i < done*lanes; i++ {
				if got, want := z[i], Exp(x[i]); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%d lanes: exp(%v) = %v (%#x), Exp %v (%#x)", lanes, x[i], got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestLogTableMatchesMathLog: the kernel's log has Log's bits on sums s
// across [1, 64] — rows of j zeros and one d < 0 sum to s = j + exp(d), and
// with their maximum 0 their log-sum-exp is log(s) — √2 included, where
// Log's mantissa meets its √2/2 threshold exactly.
func TestLogTableMatchesMathLog(t *testing.T) {
	onExpPaths(t, func(t *testing.T) {
		for j := 1; j <= 63; j++ {
			c := j + 1
			z := make([]float64, 4*c) // class-major: row r's class k at z[k·4+r]
			for i := 0; i < 1024; i += 4 {
				for r := 0; r < 4; r++ {
					z[j*4+r] = Log((float64(i+r) + 0.5) / 1024)
				}
				if j == 1 && i == 0 {
					z[j*4] = -0.8813735870195429 // 1 + exp(d) is √2 exactly
				}
				var lse [4]float64
				LogSumExp4(&lse, z)
				for r := range lse {
					s := float64(j) + Exp(z[j*4+r])
					if j == 1 && i == 0 && r == 0 && s != math.Sqrt2 {
						t.Fatalf("the √2 probe sums to %v", s)
					}
					if want := Log(s); math.Float64bits(lse[r]) != math.Float64bits(want) {
						t.Fatalf("log(%v) = %v (%#x), Log %v (%#x)", s, lse[r], math.Float64bits(lse[r]), want, math.Float64bits(want))
					}
				}
			}
		}
	})
}

// FuzzLogSumExp4 holds every path to LogSumExp and Exp on random
// blocks at a fuzzed scale with two arbitrary bit patterns planted.
func FuzzLogSumExp4(f *testing.F) {
	f.Add(uint8(10), int64(1), 1.0, uint64(0x7ff8000000000001), uint64(0xfff8000000000002))
	f.Add(uint8(3), int64(2), 300.0, math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)))
	f.Add(uint8(17), int64(3), 1e-3, math.Float64bits(-709.0), uint64(0x8000000000000000))
	f.Fuzz(func(t *testing.T, c uint8, seed int64, scale float64, p, q uint64) {
		classes := 1 + int(c%17)
		rng := NewRNG(seed)
		z := rng.NormalVec(4*classes, 0, 1)
		for i := range z {
			z[i] *= scale
		}
		at := rng.Intn(4 * classes)
		z[at] = math.Float64frombits(p)
		z[(at+1+rng.Intn(4*classes))%(4*classes)] = math.Float64frombits(q)
		onExpPaths(t, func(t *testing.T) { checkLogSumExp(t, "fuzz", 4, z) })
	})
}

// FuzzLogSumExp8 holds every path to LogSumExp and Exp on random eight-row
// blocks at a fuzzed scale with two arbitrary bit patterns planted.
func FuzzLogSumExp8(f *testing.F) {
	f.Add(uint8(10), int64(1), 1.0, uint64(0x7ff8000000000001), uint64(0xfff8000000000002))
	f.Add(uint8(3), int64(2), 300.0, math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)))
	f.Add(uint8(17), int64(3), 1e-3, math.Float64bits(-709.0), uint64(0x8000000000000000))
	f.Fuzz(func(t *testing.T, c uint8, seed int64, scale float64, p, q uint64) {
		classes := 1 + int(c%17)
		rng := NewRNG(seed)
		z := rng.NormalVec(8*classes, 0, 1)
		for i := range z {
			z[i] *= scale
		}
		at := rng.Intn(8 * classes)
		z[at] = math.Float64frombits(p)
		z[(at+1+rng.Intn(8*classes))%(8*classes)] = math.Float64frombits(q)
		onExpPaths(t, func(t *testing.T) { checkLogSumExp(t, "fuzz", 8, z) })
	})
}

func TestLogSumExp8ShapeMismatchPanics(t *testing.T) {
	for _, n := range []int{0, 4, 7, 9, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LogSumExp8 of %d values did not panic", n)
				}
			}()
			var lse [8]float64
			LogSumExp8(&lse, make([]float64, n))
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ExpShift8 of %d values did not panic", n)
				}
			}()
			var shift [8]float64
			ExpShift8(make([]float64, n), &shift)
		}()
	}
}

func TestLogSumExp4ShapeMismatchPanics(t *testing.T) {
	for _, n := range []int{0, 3, 5, 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LogSumExp4 of %d values did not panic", n)
				}
			}()
			var lse [4]float64
			LogSumExp4(&lse, make([]float64, n))
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ExpShift4 of %d values did not panic", n)
				}
			}()
			var shift [4]float64
			ExpShift4(make([]float64, n), &shift)
		}()
	}
}

// BenchmarkLogSumExp4 is one four-row block's normaliser at the audit's
// class count, 4 × 10 logits (class-major) spread as a fitted model's are
// (N(0, 3²)), on the AVX2 kernel and on the scalar path, each checked
// against LogSumExp of its row.
func BenchmarkLogSumExp4(b *testing.B) {
	z := NewRNG(10).NormalVec(40, 0, 3)
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	for _, p := range []struct {
		name string
		avx2 bool
	}{{"avx2", true}, {"portable", false}} {
		if p.avx2 && !saved {
			b.Log("no AVX2 exp kernel on this host: the portable path only")
			continue
		}
		useAVX2 = p.avx2
		b.Run("4x10/"+p.name, func(b *testing.B) {
			b.ReportAllocs()
			var lse [4]float64
			for i := 0; i < b.N; i++ {
				LogSumExp4(&lse, z)
			}
			for r, v := range lse {
				if want := logSumExp(z[r:], 10, 4); math.Float64bits(v) != math.Float64bits(want) {
					b.Fatalf("row %d: LogSumExp4 %v, LogSumExp %v", r, v, want)
				}
			}
		})
	}
}
