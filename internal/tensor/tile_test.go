package tensor

import (
	"math"
	"testing"
)

// tilePaths are the paths Dot4xN and Dot8xN can take: the AVX-512 tile,
// the AVX2 tile, and the portable Dot4 loop.
var tilePaths = []struct {
	name         string
	avx2, avx512 bool
}{{"avx512", true, true}, {"avx2", true, false}, {"portable", false, false}}

// onTilePaths runs f once on each of tilePaths the host has, forced by
// clearing useAVX512 and useAVX2.
func onTilePaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	avx2, avx512 := useAVX2, useAVX512
	defer func() { useAVX2, useAVX512 = avx2, avx512 }()
	for _, p := range tilePaths {
		if p.avx512 && !avx512 {
			t.Log("no AVX-512F on this host: the AVX-512 path skipped")
			continue
		}
		if p.avx2 && !avx2 {
			t.Log("no AVX2 on this host: the portable path only")
			continue
		}
		useAVX2, useAVX512 = p.avx2, p.avx512
		t.Run(p.name, f)
	}
}

// nanPayloads are quiet and signalling NaNs of distinct payloads and signs:
// planted in both the block and the class rows, a product or a sum meets two
// of them, and which survives is the instruction's operand order.
var nanPayloads = []float64{
	math.Float64frombits(0x7ff8000000000001),
	math.Float64frombits(0xfff8000000000abc),
	math.Float64frombits(0x7ff0000000000123),
	math.NaN(),
}

// blockBiases returns c biases drawn from N(0, 1) with the special values
// planted from the last class down, so that a case's ±Inf or NaN meets the
// logits as a bias too.
func blockBiases(c int, special []float64) []float64 {
	b := NewRNG(int64(c)).NormalVec(c, 0, 1)
	for i, v := range special {
		if i < c {
			b[c-1-i] = v
		}
	}
	return b
}

// checkDotBlock runs Dot4xN or Dot8xN, as rows is 4 or 8, on the block x
// (rows×n) against the c rows of w and the biases b, into a z that starts
// as NaN and is followed by a sentinel, and wants every logit, class-major
// at z[k·rows+r], to be Dot of its row and class plus its bias bit for bit
// — any NaN where both the dot and the bias are NaN, whose sum's payload is
// the add's operand order — and nothing past z written.
func checkDotBlock(t *testing.T, what string, rows int, x, w, b []float64, n, c int) {
	t.Helper()
	buf := make([]float64, rows*c+1)
	for i := range buf {
		buf[i] = math.Float64frombits(0x7ff8dead0000beef)
	}
	if rows == 8 {
		Dot8xN(buf[:8*c], x, w, b)
	} else {
		Dot4xN(buf[:4*c], x, w, b)
	}
	for r := 0; r < rows; r++ {
		for k := 0; k < c; k++ {
			dot := Dot(x[r*n:(r+1)*n], w[k*n:(k+1)*n])
			if got, want := buf[k*rows+r], dot+b[k]; !sameOrBothNaN(got, want, dot != dot && b[k] != b[k]) {
				t.Fatalf("%s %d rows, n=%d C=%d: z[%d·%d+%d] = %v (%#x), Dot + b %v (%#x)", what, rows, n, c, k, rows, r,
					got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	if math.Float64bits(buf[rows*c]) != 0x7ff8dead0000beef {
		t.Fatalf("%s %d rows, n=%d C=%d: the tile wrote past z", what, rows, n, c)
	}
}

// TestDot4xNMatchesDot: on every path of onTilePaths, every
// logit of a four-row block carries the bits of Dot on its own row and
// class plus the class's bias — at every length 0…70 (every split into
// four-column steps and a tail) and every class count 1…12 (every split
// into four-class passes and a tail), through ±0, subnormal, ±Inf, Inf−Inf
// and NaN operands and biases, NaNs of distinct payloads meeting in one
// product among them.
func TestDot4xNMatchesDot(t *testing.T) {
	cases := map[string][]float64{"NaN payloads": nanPayloads}
	for name, special := range kernelSpecials {
		cases[name] = special
	}
	onTilePaths(t, func(t *testing.T) {
		for name, special := range cases {
			for n := 0; n <= 70; n++ {
				for c := 1; c <= 12; c++ {
					rows, _ := kernelRows(4+c, n, special...)
					checkDotBlock(t, name, 4, rows[:4*n], rows[4*n:], blockBiases(c, special), n, c)
				}
			}
		}
	})
}

// FuzzDot4xN holds both paths to Dot plus the bias on random blocks with
// three arbitrary bit patterns planted, one in the block, one in the class
// rows and one among the biases.
func FuzzDot4xN(f *testing.F) {
	f.Add(uint8(64), uint8(10), int64(1), uint64(0x7ff8000000000001), uint64(0xfff8000000000002))
	f.Add(uint8(3), uint8(3), int64(2), math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)))
	f.Add(uint8(7), uint8(5), int64(3), uint64(1), uint64(0x8000000000000000))
	f.Fuzz(func(t *testing.T, n, c uint8, seed int64, p, q uint64) {
		cols, classes := int(n%71), 1+int(c%16)
		if cols == 0 {
			return
		}
		rng := NewRNG(seed)
		rows := rng.NormalVec((4+classes)*cols, 0, 1)
		at := rng.Intn(4 * cols)
		rows[at] = math.Float64frombits(p)
		rows[4*cols+(at+rng.Intn(classes*cols))%(classes*cols)] = math.Float64frombits(q)
		b := rng.NormalVec(classes, 0, 1)
		b[at%classes] = math.Float64frombits(p ^ q)
		onTilePaths(t, func(t *testing.T) { checkDotBlock(t, "fuzz", 4, rows[:4*cols], rows[4*cols:], b, cols, classes) })
	})
}

func TestDot4xNShapeMismatchPanics(t *testing.T) {
	for _, s := range []struct{ z, x, w, b int }{{8, 12, 5, 2}, {8, 12, 7, 2}, {7, 12, 6, 2}, {8, 13, 6, 2}, {8, 12, 6, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Dot4xN with %d logits, %d block values, %d weights and %d biases did not panic", s.z, s.x, s.w, s.b)
				}
			}()
			Dot4xN(make([]float64, s.z), make([]float64, s.x), make([]float64, s.w), make([]float64, s.b))
		}()
	}
}

// TestDot8xNMatchesDot: on the AVX-512 tile, on two AVX2 tiles and on the
// portable loop, every logit of an eight-row block carries the bits of Dot
// on its own row and class plus the class's bias — at every length 0…70
// (every split into four-column steps and a tail) and every class count
// 1…17 (one pass of up to sixteen classes, and a second pass of one),
// through ±0, subnormal, ±Inf, Inf−Inf and NaN operands and biases, NaNs of
// distinct payloads meeting in one product among them.
func TestDot8xNMatchesDot(t *testing.T) {
	cases := map[string][]float64{"NaN payloads": nanPayloads}
	for name, special := range kernelSpecials {
		cases[name] = special
	}
	onTilePaths(t, func(t *testing.T) {
		for name, special := range cases {
			for n := 0; n <= 70; n++ {
				for c := 1; c <= 17; c++ {
					rows, _ := kernelRows(8+c, n, special...)
					checkDotBlock(t, name, 8, rows[:8*n], rows[8*n:], blockBiases(c, special), n, c)
				}
			}
		}
	})
}

// FuzzDot8xN holds every path to Dot plus the bias on random eight-row
// blocks with three arbitrary bit patterns planted, one in the block, one
// in the class rows and one among the biases.
func FuzzDot8xN(f *testing.F) {
	f.Add(uint8(64), uint8(10), int64(1), uint64(0x7ff8000000000001), uint64(0xfff8000000000002))
	f.Add(uint8(3), uint8(17), int64(2), math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)))
	f.Add(uint8(7), uint8(5), int64(3), uint64(1), uint64(0x8000000000000000))
	f.Fuzz(func(t *testing.T, n, c uint8, seed int64, p, q uint64) {
		cols, classes := int(n%71), 1+int(c%33)
		if cols == 0 {
			return
		}
		rng := NewRNG(seed)
		rows := rng.NormalVec((8+classes)*cols, 0, 1)
		at := rng.Intn(8 * cols)
		rows[at] = math.Float64frombits(p)
		rows[8*cols+(at+rng.Intn(classes*cols))%(classes*cols)] = math.Float64frombits(q)
		b := rng.NormalVec(classes, 0, 1)
		b[at%classes] = math.Float64frombits(p ^ q)
		onTilePaths(t, func(t *testing.T) { checkDotBlock(t, "fuzz", 8, rows[:8*cols], rows[8*cols:], b, cols, classes) })
	})
}

func TestDot8xNShapeMismatchPanics(t *testing.T) {
	for _, s := range []struct{ z, x, w, b int }{{16, 24, 5, 2}, {16, 24, 7, 2}, {15, 24, 6, 2}, {16, 25, 6, 2}, {8, 12, 6, 2}, {16, 24, 6, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Dot8xN with %d logits, %d block values, %d weights and %d biases did not panic", s.z, s.x, s.w, s.b)
				}
			}()
			Dot8xN(make([]float64, s.z), make([]float64, s.x), make([]float64, s.w), make([]float64, s.b))
		}()
	}
}

// BenchmarkDot8xN is one eight-row logit block at the audit's shape, 64
// features and 10 classes with their biases, on each of tilePaths the host
// has — the AVX-512 tile against two calls of the AVX2 tile — each checked
// against Dot plus the bias.
func BenchmarkDot8xN(b *testing.B) {
	const n, c = 64, 10
	rows, _ := kernelRows(8+c, n)
	x, w, bias := rows[:8*n], rows[8*n:], blockBiases(c, nil)
	z := make([]float64, 8*c)
	avx2, avx512 := useAVX2, useAVX512
	defer func() { useAVX2, useAVX512 = avx2, avx512 }()
	for _, p := range tilePaths {
		if p.avx512 && !avx512 || p.avx2 && !avx2 {
			b.Logf("no %s tile on this host", p.name)
			continue
		}
		useAVX2, useAVX512 = p.avx2, p.avx512
		b.Run("8x64x10/"+p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Dot8xN(z, x, w, bias)
			}
			for at, v := range z {
				k, r := at/8, at%8
				if want := Dot(x[r*n:(r+1)*n], w[k*n:(k+1)*n]) + bias[k]; math.Float64bits(v) != math.Float64bits(want) {
					b.Fatalf("z[%d·8+%d] = %v, Dot + b %v", k, r, v, want)
				}
			}
		})
	}
}
