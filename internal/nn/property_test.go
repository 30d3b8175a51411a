package nn

import (
	"math"
	"testing"
	"testing/quick"

	"digfl/internal/tensor"
)

// Property: cross-entropy losses are non-negative for every classifier.
func TestClassifierLossNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		models := []Model{
			NewLogisticRegression(4, true),
			NewSoftmaxRegression(4, 3),
			NewCNN(2, 1, 2, 3, rng.Split(0)),
		}
		X, _ := randBatch(rng, 9, 4)
		for _, m := range models {
			rng.Normal(m.Params(), 0, 1)
			classes := 2
			if _, ok := m.(*LogisticRegression); !ok {
				classes = 3
			}
			y := make([]float64, 9)
			for i := range y {
				y[i] = float64(rng.Intn(classes))
			}
			if m.Loss(X, y) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the linear-regression gradient is linear in the residual — for
// parameters θ and targets y, Grad(θ, y + c·1) shifts by the gradient of the
// constant shift.
func TestLinRegGradientTranslationProperty(t *testing.T) {
	f := func(seed int64, cRaw int8) bool {
		c := float64(float64(cRaw) / 16)
		rng := tensor.NewRNG(seed)
		m := NewLinearRegression(3, true)
		rng.Normal(m.Params(), 0, 1)
		X, y := randBatch(rng, 7, 3)
		g1 := m.Grad(X, y)
		shifted := make([]float64, len(y))
		for i := range y {
			shifted[i] = y[i] + c
		}
		g2 := m.Grad(X, shifted)
		// Residual shifts by −c, so the gradient shifts by −c·(2/m)·Xᵀ1.
		ones := make([]float64, X.Rows)
		for i := range ones {
			ones[i] = 1
		}
		shift := tensor.MatTVec(X, ones)
		scale := -2 * c / float64(X.Rows)
		for j := 0; j < 3; j++ {
			if math.Abs(g2[j]-(g1[j]+float64(scale*shift[j]))) > 1e-9 {
				return false
			}
		}
		return math.Abs(g2[3]-(g1[3]+float64(scale*float64(X.Rows)))) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: HVP is linear in its vector argument for the exact
// implementations: H(a·u + b·v) = a·H(u) + b·H(v).
func TestHVPLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		m := NewLogisticRegression(4, true)
		rng.Normal(m.Params(), 0, 0.5)
		X, y := randClassBatch(rng, 8, 4, 2)
		u := rng.NormalVec(5, 0, 1)
		v := rng.NormalVec(5, 0, 1)
		a, b := 1.5, -0.5
		comb := make([]float64, 5)
		for i := range comb {
			comb[i] = float64(a*u[i]) + float64(b*v[i])
		}
		lhs := m.HVP(X, y, comb)
		hu := m.HVP(X, y, u)
		hv := m.HVP(X, y, v)
		for i := range lhs {
			if math.Abs(lhs[i]-(float64(a*hu[i])+float64(b*hv[i]))) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax predictions are valid class indices.
func TestPredictRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		m := NewSoftmaxRegression(3, 4)
		rng.Normal(m.Params(), 0, 1)
		X := tensor.NewMatrix(6, 3)
		rng.Normal(X.Data, 0, 2)
		for _, p := range m.Predict(X) {
			if p < 0 || p >= 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: SetParams(Params()) round-trips and Clone equals parent.
func TestParamRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		m := NewCNN(3, 2, 2, 2, rng.Split(0))
		rng.Normal(m.Params(), 0, 1)
		saved := tensor.Clone(m.Params())
		m.SetParams(saved)
		c := m.Clone()
		for i := range saved {
			if m.Params()[i] != saved[i] || c.Params()[i] != saved[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
