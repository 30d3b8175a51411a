package tensor

import (
	"math"
	"testing"
)

// kernelSpecials are the special-value cases of TestDotAddMatchesDotAndAXPY,
// fed to kernelInputs one case at a time.
var kernelSpecials = map[string][]float64{
	"finite":         nil,
	"quiet NaN":      {math.NaN()},
	"signalling NaN": {math.Float64frombits(0x7ff0000000000abc)},
	"+Inf":           {math.Inf(1)},
	"-Inf":           {math.Inf(-1)},
	"Inf-Inf":        {math.Inf(1), math.Inf(-1)},
	"-0":             {math.Copysign(0, -1), 0, math.Copysign(0, -1)},
	"subnormal":      {5e-324, -2.2e-308, 1e-310},
}

// rotated returns v rotated left by k, so that the special values planted by
// kernelInputs meet different partners in every row built from one vector.
func rotated(v []float64, k int) []float64 {
	out := make([]float64, len(v))
	for i := range v {
		out[i] = v[(i+k)%len(v)]
	}
	return out
}

// kernelRows returns rows×n row-major values and a length-n vector drawn
// from kernelInputs(n, special...).
func kernelRows(rows, n int, special ...float64) (w, x []float64) {
	a, x, y := kernelInputs(n, special...)
	for r := 0; r < rows; r++ {
		src := a
		if r%2 == 1 {
			src = y
		}
		w = append(w, rotated(src, r/2)...)
	}
	return w, x
}

// TestDot4MatchesDot: every lane of the four-row pass carries the bits of
// Dot on its own row — through NaN, ±Inf, Inf−Inf, −0 and subnormal operands,
// at every length around the block size — so no logit, residual or
// Hessian-vector product moves when its loop lands on the kernel. As in
// TestDotAddMatchesDotAndAXPY each case plants one kind of special value:
// which of two different NaN payloads survives a product is the
// instruction's operand order, not a contract of Dot or of Dot4.
func TestDot4MatchesDot(t *testing.T) {
	for name, special := range kernelSpecials {
		for _, n := range []int{0, 1, 3, 4, 5, 7, 64, 2000} {
			w, x := kernelRows(4, n, special...)
			var got [4]float64
			got[0], got[1], got[2], got[3] = Dot4(w[:n], w[n:2*n], w[2*n:3*n], w[3*n:], x)
			for lane, g := range got {
				want := Dot(w[lane*n:(lane+1)*n], x)
				if math.Float64bits(g) != math.Float64bits(want) {
					t.Errorf("%s n=%d lane %d: Dot4 %v (%#x), Dot %v (%#x)", name, n, lane,
						g, math.Float64bits(g), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestMatVecMatchesRowDots covers every split of the rows into four-row
// blocks and a tail of 0…3, for MatVec and the MatVecTo under it.
func TestMatVecMatchesRowDots(t *testing.T) {
	for name, special := range kernelSpecials {
		for _, n := range []int{1, 7, 64} {
			for rows := 0; rows <= 9; rows++ {
				w, x := kernelRows(rows, n, special...)
				want := make([]float64, rows)
				for r := range want {
					want[r] = Dot(w[r*n:(r+1)*n], x)
				}
				if got := MatVec(&Matrix{Rows: rows, Cols: n, Data: w}, x); !sameBits(got, want) {
					t.Errorf("%s %d×%d: MatVec %v, row-by-row Dot %v", name, rows, n, got, want)
				}
				got := make([]float64, rows)
				if MatVecTo(got, w, x); !sameBits(got, want) {
					t.Errorf("%s %d×%d: MatVecTo %v, row-by-row Dot %v", name, rows, n, got, want)
				}
			}
		}
	}
}

func TestDot4LengthMismatchPanics(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	for short := 0; short < 5; short++ {
		v := [5][]float64{}
		for i := range v {
			v[i] = make([]float64, 3)
		}
		v[short] = v[short][:2]
		mustPanic("Dot4 with a short operand", func() { Dot4(v[0], v[1], v[2], v[3], v[4]) })
	}
	mustPanic("MatVecTo with 5 values for 2×3", func() { MatVecTo(make([]float64, 2), make([]float64, 5), make([]float64, 3)) })
	mustPanic("MatVec with a short vector", func() { MatVec(NewMatrix(2, 3), make([]float64, 2)) })
}

func BenchmarkDot4x2000(b *testing.B) {
	const n = 2000
	w, x := kernelRows(4, n)
	var want, got [4]float64
	for lane := range want {
		want[lane] = refDot(w[lane*n:(lane+1)*n], x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got[0], got[1], got[2], got[3] = Dot4(w[:n], w[n:2*n], w[2*n:3*n], w[3*n:], x)
	}
	if !sameBits(got[:], want[:]) {
		b.Fatalf("Dot4 = %v, reference %v", got, want)
	}
}

func BenchmarkMatVec32x2000(b *testing.B) {
	const rows, n = 32, 2000
	w, x := kernelRows(rows, n)
	m := &Matrix{Rows: rows, Cols: n, Data: w}
	want := make([]float64, rows)
	for r := range want {
		want[r] = refDot(m.Row(r), x)
	}
	var got []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got = MatVec(m, x)
	}
	if !sameBits(got, want) {
		b.Fatal("MatVec differs from the row-by-row reference")
	}
}
