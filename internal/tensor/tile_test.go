package tensor

import (
	"math"
	"testing"
)

// onTilePaths runs f once on each path Dot4xN can take here: the AVX2 tile
// where the CPU has it, then the portable Dot4 loop, forced by clearing
// useAVX2.
func onTilePaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	for _, p := range []struct {
		name string
		avx2 bool
	}{{"avx2", true}, {"portable", false}} {
		if p.avx2 && !saved {
			t.Log("no AVX2 on this host: the portable path only")
			continue
		}
		useAVX2 = p.avx2
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

// checkDot4xN runs Dot4xN on the block x (4×n) against the c rows of w,
// into a z that starts as NaN and is followed by a sentinel, and wants every
// logit to be Dot of its row and class bit for bit, and nothing past z
// written.
func checkDot4xN(t *testing.T, what string, x, w []float64, n, c int) {
	t.Helper()
	buf := make([]float64, 4*c+1)
	for i := range buf {
		buf[i] = math.Float64frombits(0x7ff8dead0000beef)
	}
	Dot4xN(buf[:4*c], x, w)
	for r := 0; r < 4; r++ {
		for k := 0; k < c; k++ {
			got, want := buf[r*c+k], Dot(x[r*n:(r+1)*n], w[k*n:(k+1)*n])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s n=%d C=%d: z[%d·C+%d] = %v (%#x), Dot %v (%#x)", what, n, c, r, k,
					got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	if math.Float64bits(buf[4*c]) != 0x7ff8dead0000beef {
		t.Fatalf("%s n=%d C=%d: Dot4xN wrote past z", what, n, c)
	}
}

// TestDot4xNMatchesDot: on the AVX2 tile and on the portable loop, every
// logit of a four-row block carries the bits of Dot on its own row and
// class — at every length 0…70 (every split into four-column steps and a
// tail) and every class count 1…12 (every split into four-class passes and
// a tail), through ±0, subnormal, ±Inf, Inf−Inf and NaN operands, NaNs of
// distinct payloads meeting in one product among them.
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
					checkDot4xN(t, name, rows[:4*n], rows[4*n:], n, c)
				}
			}
		}
	})
}

// FuzzDot4xN holds both paths to Dot on random blocks with two arbitrary
// bit patterns planted, one in the block and one in the class rows.
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
		onTilePaths(t, func(t *testing.T) { checkDot4xN(t, "fuzz", rows[:4*cols], rows[4*cols:], cols, classes) })
	})
}

func TestDot4xNShapeMismatchPanics(t *testing.T) {
	for _, s := range []struct{ z, x, w int }{{8, 12, 5}, {8, 12, 7}, {7, 12, 6}, {8, 13, 6}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Dot4xN with %d logits, %d block values and %d weights did not panic", s.z, s.x, s.w)
				}
			}()
			Dot4xN(make([]float64, s.z), make([]float64, s.x), make([]float64, s.w))
		}()
	}
}
