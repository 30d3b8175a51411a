package nn

import (
	"math"
	"testing"

	"digfl/internal/tensor"
)

// randBatch builds a random regression batch.
func randBatch(rng *tensor.RNG, m, d int) (*tensor.Matrix, []float64) {
	X := tensor.NewMatrix(m, d)
	rng.Normal(X.Data, 0, 1)
	y := rng.NormalVec(m, 0, 1)
	return X, y
}

// randClassBatch builds a random classification batch with c classes.
func randClassBatch(rng *tensor.RNG, m, d, c int) (*tensor.Matrix, []float64) {
	X := tensor.NewMatrix(m, d)
	rng.Normal(X.Data, 0, 1)
	y := make([]float64, m)
	for i := range y {
		y[i] = float64(rng.Intn(c))
	}
	return X, y
}

// checkGrad verifies the analytic gradient against central differences.
func checkGrad(t *testing.T, m Model, X *tensor.Matrix, y []float64, tol float64) {
	t.Helper()
	got := m.Grad(X, y)
	want := NumGrad(m, X, y, 1e-5)
	for i := range got {
		diff := math.Abs(got[i] - want[i])
		scale := 1 + math.Abs(want[i])
		if diff/scale > tol {
			t.Fatalf("grad[%d] = %g, numeric %g (diff %g)", i, got[i], want[i], diff)
		}
	}
}

func TestLinearRegressionGradient(t *testing.T) {
	rng := tensor.NewRNG(1)
	for _, bias := range []bool{false, true} {
		m := NewLinearRegression(4, bias)
		rng.Normal(m.Params(), 0, 1)
		X, y := randBatch(rng, 12, 4)
		checkGrad(t, m, X, y, 1e-6)
	}
}

func TestLogisticRegressionGradient(t *testing.T) {
	rng := tensor.NewRNG(2)
	for _, bias := range []bool{false, true} {
		m := NewLogisticRegression(5, bias)
		rng.Normal(m.Params(), 0, 0.5)
		X, y := randClassBatch(rng, 15, 5, 2)
		checkGrad(t, m, X, y, 1e-5)
	}
}

func TestSoftmaxRegressionGradient(t *testing.T) {
	rng := tensor.NewRNG(3)
	m := NewSoftmaxRegression(4, 3)
	rng.Normal(m.Params(), 0, 0.5)
	X, y := randClassBatch(rng, 10, 4, 3)
	checkGrad(t, m, X, y, 1e-5)
}

func TestCNNGradient(t *testing.T) {
	rng := tensor.NewRNG(5)
	m := NewCNN(8, 3, 2, 3, rng.Split(0))
	X, y := randClassBatch(rng, 4, 64, 3)
	checkGrad(t, m, X, y, 1e-3)
}

func TestLinRegExactHVPMatchesFD(t *testing.T) {
	rng := tensor.NewRNG(6)
	m := NewLinearRegression(4, true)
	rng.Normal(m.Params(), 0, 1)
	X, y := randBatch(rng, 10, 4)
	v := rng.NormalVec(m.NumParams(), 0, 1)
	exact := m.HVP(X, y, v)
	fd := fdHVP(m, X, y, v)
	for i := range exact {
		if math.Abs(exact[i]-fd[i]) > 1e-4*(1+math.Abs(exact[i])) {
			t.Fatalf("HVP[%d] exact %g vs fd %g", i, exact[i], fd[i])
		}
	}
}

func TestLogRegExactHVPMatchesFD(t *testing.T) {
	rng := tensor.NewRNG(7)
	m := NewLogisticRegression(4, true)
	rng.Normal(m.Params(), 0, 0.5)
	X, y := randClassBatch(rng, 10, 4, 2)
	v := rng.NormalVec(m.NumParams(), 0, 1)
	exact := m.HVP(X, y, v)
	fd := fdHVP(m, X, y, v)
	for i := range exact {
		if math.Abs(exact[i]-fd[i]) > 1e-4*(1+math.Abs(exact[i])) {
			t.Fatalf("HVP[%d] exact %g vs fd %g", i, exact[i], fd[i])
		}
	}
}

// HVP is every model's own product, and the product along the zero vector
// is zero.
func TestHVPDispatch(t *testing.T) {
	rng := tensor.NewRNG(8)
	X, y := randClassBatch(rng, 6, 4, 2)
	for _, m := range []Model{
		NewLinearRegression(4, false),
		NewLogisticRegression(4, true),
		NewSoftmaxRegression(4, 2),
		NewCNN(2, 1, 2, 2, rng.Split(2)),
	} {
		rng.Normal(m.Params(), 0, 1)
		v := rng.NormalVec(m.NumParams(), 0, 1)
		if !sameBits(HVP(m, X, y, v), m.HVP(X, y, v)) {
			t.Fatalf("%T: HVP differs from the model's own", m)
		}
		for _, zi := range HVP(m, X, y, make([]float64, m.NumParams())) {
			if zi != 0 {
				t.Fatalf("%T: HVP of the zero vector must be zero", m)
			}
		}
	}
}

// The fdHVP oracle on the softmax model must agree with the symmetric
// quadratic form identity
// vᵀHv ≈ (L(θ+rv) − 2L(θ) + L(θ−rv))/r².
func TestFDHVPQuadraticForm(t *testing.T) {
	rng := tensor.NewRNG(9)
	m := NewSoftmaxRegression(4, 2)
	rng.Normal(m.Params(), 0, 0.5)
	X, y := randClassBatch(rng, 10, 4, 2)
	v := rng.NormalVec(m.NumParams(), 0, 1)
	hv := fdHVP(m, X, y, v)
	vHv := tensor.Dot(v, hv)

	r := 1e-3 / tensor.Norm2(v)
	theta := tensor.Clone(m.Params())
	l0 := m.Loss(X, y)
	p := tensor.Clone(theta)
	tensor.AXPY(r, v, p)
	m.SetParams(p)
	lp := m.Loss(X, y)
	p = tensor.Clone(theta)
	tensor.AXPY(-r, v, p)
	m.SetParams(p)
	lm := m.Loss(X, y)
	m.SetParams(theta)
	want := (lp - 2*l0 + lm) / (r * r)
	if math.Abs(vHv-want) > 1e-2*(1+math.Abs(want)) {
		t.Fatalf("vᵀHv = %g, quadratic form %g", vHv, want)
	}
}

func TestFDHVPRestoresParams(t *testing.T) {
	rng := tensor.NewRNG(10)
	m := NewSoftmaxRegression(3, 2)
	rng.Normal(m.Params(), 0, 0.5)
	X, y := randClassBatch(rng, 5, 3, 2)
	before := tensor.Clone(m.Params())
	fdHVP(m, X, y, rng.NormalVec(m.NumParams(), 0, 1))
	after := m.Params()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("fdHVP must restore parameters")
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := tensor.NewRNG(11)
	models := []Model{
		NewLinearRegression(3, true),
		NewLogisticRegression(3, true),
		NewSoftmaxRegression(3, 2),
		NewCNN(6, 3, 2, 2, rng.Split(1)),
	}
	for _, m := range models {
		rng.Normal(m.Params(), 0, 1)
		c := m.Clone()
		if c.NumParams() != m.NumParams() {
			t.Fatalf("%T clone changed param count", m)
		}
		orig := tensor.Clone(m.Params())
		c.Params()[0] += 100
		if m.Params()[0] != orig[0] {
			t.Fatalf("%T clone aliases parent params", m)
		}
	}
}

// Training each classifier by plain gradient descent must beat chance on a
// linearly separable problem.
func TestModelsLearnSeparableData(t *testing.T) {
	rng := tensor.NewRNG(12)
	const mRows, d = 200, 6
	X := tensor.NewMatrix(mRows, d)
	rng.Normal(X.Data, 0, 1)
	w := rng.NormalVec(d, 0, 2)
	y := make([]float64, mRows)
	for i := 0; i < mRows; i++ {
		if tensor.Dot(X.Row(i), w) > 0 {
			y[i] = 1
		}
	}
	train := func(m Model, lr float64, steps int) {
		for s := 0; s < steps; s++ {
			g := m.Grad(X, y)
			tensor.AXPY(-lr, g, m.Params())
		}
	}
	check := func(name string, c Classifier) {
		pred := c.Predict(X)
		hits := 0
		for i, p := range pred {
			if p == int(y[i]) {
				hits++
			}
		}
		if acc := float64(hits) / float64(mRows); acc < 0.9 {
			t.Errorf("%s accuracy %.3f < 0.9", name, acc)
		}
	}
	lg := NewLogisticRegression(d, true)
	train(lg, 0.5, 300)
	check("logreg", lg)

	sm := NewSoftmaxRegression(d, 2)
	train(sm, 0.5, 300)
	check("softmax", sm)
}

func TestCNNLearnsPrototypes(t *testing.T) {
	rng := tensor.NewRNG(13)
	const side, classes, n = 6, 2, 60
	protos := make([][]float64, classes)
	for c := range protos {
		protos[c] = rng.NormalVec(side*side, 0, 1)
	}
	X := tensor.NewMatrix(n, side*side)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		c := i % classes
		y[i] = float64(c)
		copy(X.Row(i), protos[c])
		for j := 0; j < side*side; j++ {
			X.Row(i)[j] += float64(0.3 * rng.NormFloat64())
		}
	}
	m := NewCNN(side, 3, 3, classes, rng.Split(0))
	for s := 0; s < 150; s++ {
		g := m.Grad(X, y)
		tensor.AXPY(-0.2, g, m.Params())
	}
	pred := m.Predict(X)
	hits := 0
	for i, p := range pred {
		if p == int(y[i]) {
			hits++
		}
	}
	if acc := float64(hits) / float64(n); acc < 0.9 {
		t.Fatalf("CNN accuracy %.3f < 0.9", acc)
	}
}

func TestLinearRegressionPredictAndLoss(t *testing.T) {
	m := NewLinearRegression(2, true)
	copy(m.Params(), []float64{1, 2, 3}) // ŷ = x₀ + 2x₁ + 3
	X := tensor.FromRows([][]float64{{1, 1}, {0, 0}})
	pred := m.Predict(X)
	if pred[0] != 6 || pred[1] != 3 {
		t.Fatalf("Predict = %v", pred)
	}
	// Loss against y = [6, 1]: residuals [0, 2] → mean 2.
	if l := m.Loss(X, []float64{6, 1}); l != 2 {
		t.Fatalf("Loss = %v, want 2", l)
	}
}

func TestLogisticProbaAndPredict(t *testing.T) {
	m := NewLogisticRegression(1, false)
	m.Params()[0] = 2
	X := tensor.FromRows([][]float64{{1}, {-1}, {0}})
	p := m.Proba(X)
	if p[0] <= 0.5 || p[1] >= 0.5 || math.Abs(p[2]-0.5) > 1e-12 {
		t.Fatalf("Proba = %v", p)
	}
	pred := m.Predict(X)
	if pred[0] != 1 || pred[1] != 0 || pred[2] != 1 {
		t.Fatalf("Predict = %v", pred)
	}
}

func TestBatchValidation(t *testing.T) {
	m := NewLinearRegression(2, false)
	cases := []func(){
		func() { m.Loss(tensor.NewMatrix(2, 3), []float64{1, 2}) },            // wrong cols
		func() { m.Loss(tensor.NewMatrix(2, 2), []float64{1}) },               // label mismatch
		func() { m.Loss(tensor.NewMatrix(0, 2), nil) },                        // empty
		func() { m.HVP(tensor.NewMatrix(1, 2), []float64{0}, []float64{1}) },  // bad v length
		func() { NewSoftmaxRegression(4, 3).Predict(tensor.NewMatrix(8, 8)) }, // wrong cols, whole blocks
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

func TestCNNConstructorPanics(t *testing.T) {
	rng := tensor.NewRNG(14)
	defer func() {
		if recover() == nil {
			t.Fatal("kernel-too-large must panic")
		}
	}()
	NewCNN(3, 3, 1, 2, rng)
}
