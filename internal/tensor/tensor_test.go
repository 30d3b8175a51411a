package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatrixAtSetRow(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 1, 5)
	m.Set(1, 2, -3)
	if got := m.At(0, 1); got != 5 {
		t.Fatalf("At(0,1) = %v, want 5", got)
	}
	if got := m.At(1, 2); got != -3 {
		t.Fatalf("At(1,2) = %v, want -3", got)
	}
	row := m.Row(1)
	row[0] = 7
	if m.At(1, 0) != 7 {
		t.Fatal("Row must be a mutable view")
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape = %d×%d, want 3×2", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v, want 6", m.At(2, 1))
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows must panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMatVecHand(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	y := MatVec(m, []float64{1, -1})
	if y[0] != -1 || y[1] != -1 {
		t.Fatalf("MatVec = %v, want [-1 -1]", y)
	}
}

func TestMatTVecHand(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	y := MatTVec(m, []float64{1, -1})
	if y[0] != -2 || y[1] != -2 {
		t.Fatalf("MatTVec = %v, want [-2 -2]", y)
	}
}

func TestMatTVecAgreesWithExplicitTranspose(t *testing.T) {
	rng := NewRNG(1)
	m := NewMatrix(7, 5)
	rng.Normal(m.Data, 0, 1)
	x := rng.NormalVec(7, 0, 1)
	got := MatTVec(m, x)
	// Explicit transpose.
	tr := NewMatrix(5, 7)
	for i := 0; i < 7; i++ {
		for j := 0; j < 5; j++ {
			tr.Set(j, i, m.At(i, j))
		}
	}
	want := MatVec(tr, x)
	for i := range got {
		if !almostEq(got[i], want[i], 1e-12) {
			t.Fatalf("MatTVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMatTMatIsGramMatrix(t *testing.T) {
	rng := NewRNG(2)
	a := NewMatrix(6, 4)
	rng.Normal(a.Data, 0, 1)
	g := MatTMat(a, 0.5)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			var want float64
			for r := 0; r < 6; r++ {
				want += float64(0.5 * a.At(r, i) * a.At(r, j))
			}
			if !almostEq(g.At(i, j), want, 1e-12) {
				t.Fatalf("Gram(%d,%d) = %v, want %v", i, j, g.At(i, j), want)
			}
		}
	}
	// Symmetry.
	for i := 0; i < 4; i++ {
		for j := i; j < 4; j++ {
			if !almostEq(g.At(i, j), g.At(j, i), 1e-12) {
				t.Fatalf("Gram not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestSelectRowsCols(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	r := m.SelectRows([]int{2, 0})
	if r.At(0, 0) != 7 || r.At(1, 2) != 3 {
		t.Fatalf("SelectRows wrong: %v", r.Data)
	}
	c := m.SelectCols([]int{1})
	if c.Rows != 3 || c.Cols != 1 || c.At(2, 0) != 8 {
		t.Fatalf("SelectCols wrong: %v", c.Data)
	}
}

func TestDotAXPYScale(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Fatalf("Dot = %v, want 32", Dot(a, b))
	}
	y := Clone(b)
	AXPY(2, a, y)
	if y[0] != 6 || y[1] != 9 || y[2] != 12 {
		t.Fatalf("AXPY = %v", y)
	}
	Scale(0.5, y)
	if y[0] != 3 || y[2] != 6 {
		t.Fatalf("Scale = %v", y)
	}
}

func TestScaled(t *testing.T) {
	x := []float64{1, -2, 3}
	y := Scaled(2, x)
	if y[0] != 2 || y[1] != -4 || y[2] != 6 {
		t.Fatalf("Scaled = %v", y)
	}
	if x[0] != 1 {
		t.Fatal("Scaled must not mutate its input")
	}
}

func TestAddSubCloneZero(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, -1}
	if s := Add(a, b); s[0] != 4 || s[1] != 1 {
		t.Fatalf("Add = %v", s)
	}
	if d := Sub(a, b); d[0] != -2 || d[1] != 3 {
		t.Fatalf("Sub = %v", d)
	}
	c := Clone(a)
	c[0] = 99
	if a[0] != 1 {
		t.Fatal("Clone must not alias")
	}
	Zero(c)
	if c[0] != 0 || c[1] != 0 {
		t.Fatalf("Zero = %v", c)
	}
}

func TestNorms(t *testing.T) {
	x := []float64{3, -4}
	if Norm2(x) != 5 {
		t.Fatalf("Norm2 = %v, want 5", Norm2(x))
	}
	if NormInf(x) != 4 {
		t.Fatalf("NormInf = %v, want 4", NormInf(x))
	}
}

func TestSumMeanArgmax(t *testing.T) {
	x := []float64{1, 5, 2}
	if Sum(x) != 8 {
		t.Fatalf("Sum = %v", Sum(x))
	}
	if Mean(x) != 8.0/3 {
		t.Fatalf("Mean = %v", Mean(x))
	}
	if Argmax(x) != 1 {
		t.Fatalf("Argmax = %v", Argmax(x))
	}
	if Argmax(nil) != -1 {
		t.Fatal("Argmax(nil) must be -1")
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) must be 0")
	}
}

func TestMaskOther(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	MaskOther(x, 1, 3)
	want := []float64{0, 2, 3, 0, 0}
	for i := range x {
		if x[i] != want[i] {
			t.Fatalf("MaskOther = %v, want %v", x, want)
		}
	}
}

// Property: Dot is bilinear — Dot(a+b, c) = Dot(a,c) + Dot(b,c).
func TestDotBilinearProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 3 {
			return true
		}
		n := len(raw) / 3
		a, b, c := raw[:n], raw[n:2*n], raw[2*n:3*n]
		for _, v := range raw[:3*n] {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true
			}
		}
		lhs := Dot(Add(a, b), c)
		rhs := Dot(a, c) + Dot(b, c)
		return almostEq(lhs, rhs, 1e-6*(1+math.Abs(lhs)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MatVec distributes over vector addition.
func TestMatVecLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		m := NewMatrix(4, 3)
		rng.Normal(m.Data, 0, 1)
		x := rng.NormalVec(3, 0, 1)
		y := rng.NormalVec(3, 0, 1)
		lhs := MatVec(m, Add(x, y))
		rhs := Add(MatVec(m, x), MatVec(m, y))
		for i := range lhs {
			if !almostEq(lhs[i], rhs[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: ⟨Mᵀx, y⟩ = ⟨x, My⟩ (adjoint identity).
func TestAdjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		m := NewMatrix(5, 4)
		rng.Normal(m.Data, 0, 1)
		x := rng.NormalVec(5, 0, 1)
		y := rng.NormalVec(4, 0, 1)
		lhs := Dot(MatTVec(m, x), y)
		rhs := Dot(x, MatVec(m, y))
		return almostEq(lhs, rhs, 1e-9*(1+math.Abs(lhs)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminismAndSplit(t *testing.T) {
	a := NewRNG(42).NormalVec(8, 0, 1)
	b := NewRNG(42).NormalVec(8, 0, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical streams")
		}
	}
	r := NewRNG(7)
	c1 := r.Split(1)
	c2 := r.Split(2)
	if c1.Int63() == c2.Int63() {
		t.Fatal("split children should diverge")
	}
}

func TestShapePanics(t *testing.T) {
	cases := []func(){
		func() { Dot([]float64{1}, []float64{1, 2}) },
		func() { AXPY(1, []float64{1}, []float64{1, 2}) },
		func() { Add([]float64{1}, []float64{1, 2}) },
		func() { Sub([]float64{1}, []float64{1, 2}) },
		func() { MatVec(NewMatrix(2, 2), []float64{1}) },
		func() { MatTVec(NewMatrix(2, 2), []float64{1}) },
		func() { NewMatrix(-1, 2) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}
