package nn

import (
	"math"

	"digfl/internal/tensor"
)

// MLP is a one-hidden-layer perceptron with tanh activation and softmax
// cross-entropy output — the workhorse "deep" model for the HFL image
// experiments when the CNN is too slow for a sweep. Parameter layout:
// W1 (h×d) ‖ b1 (h) ‖ W2 (C×h) ‖ b2 (C).
type MLP struct {
	d, h, c int
	params  []float64
}

var (
	_ Model      = (*MLP)(nil)
	_ Classifier = (*MLP)(nil)
)

// NewMLP returns an MLP with Xavier-style random initialization drawn from
// rng (pass a fresh tensor.NewRNG(seed) for reproducibility).
func NewMLP(d, h, c int, rng *tensor.RNG) *MLP {
	m := &MLP{d: d, h: h, c: c, params: make([]float64, h*d+h+c*h+c)}
	s1 := math.Sqrt(2 / float64(d+h))
	s2 := math.Sqrt(2 / float64(h+c))
	rng.Normal(m.params[:h*d], 0, s1)
	rng.Normal(m.params[h*d+h:h*d+h+c*h], 0, s2)
	return m
}

// Classes returns the number of output classes.
func (m *MLP) Classes() int { return m.c }

// NumParams implements Model.
func (m *MLP) NumParams() int { return len(m.params) }

// Params implements Model.
func (m *MLP) Params() []float64 { return m.params }

// SetParams implements Model.
func (m *MLP) SetParams(p []float64) { copy(m.params, p) }

// Clone implements Model.
func (m *MLP) Clone() Model {
	c := &MLP{d: m.d, h: m.h, c: m.c, params: tensor.Clone(m.params)}
	return c
}

func (m *MLP) slices() (w1, b1, w2, b2 []float64) {
	p := m.params
	w1 = p[:m.h*m.d]
	b1 = p[m.h*m.d : m.h*m.d+m.h]
	w2 = p[m.h*m.d+m.h : m.h*m.d+m.h+m.c*m.h]
	b2 = p[m.h*m.d+m.h+m.c*m.h:]
	return
}

// forward computes hidden activations a (tanh) and logits z for input x.
func (m *MLP) forward(x []float64, a, z []float64) {
	w1, b1, w2, b2 := m.slices()
	affine(a, w1, b1, x)
	for j, v := range a {
		a[j] = math.Tanh(v)
	}
	affine(z, w2, b2, a)
}

// Loss implements Model.
func (m *MLP) Loss(X *tensor.Matrix, y []float64) float64 {
	checkBatch(X, y, m.d)
	var bufA, bufZ [scratchLen]float64
	a, z := scratch(&bufA, m.h), scratch(&bufZ, m.c)
	var s float64
	for i := 0; i < X.Rows; i++ {
		m.forward(X.Row(i), a, z)
		s += logSumExp(z) - z[int(y[i])]
	}
	return s / float64(X.Rows)
}

// Grad implements Model with hand-derived backprop.
func (m *MLP) Grad(X *tensor.Matrix, y []float64) []float64 {
	checkBatch(X, y, m.d)
	_, _, w2, _ := m.slices()
	g := make([]float64, m.NumParams())
	gw1 := g[:m.h*m.d]
	gb1 := g[m.h*m.d : m.h*m.d+m.h]
	gw2 := g[m.h*m.d+m.h : m.h*m.d+m.h+m.c*m.h]
	gb2 := g[m.h*m.d+m.h+m.c*m.h:]

	var bufA, bufZ [scratchLen]float64
	a, z := scratch(&bufA, m.h), scratch(&bufZ, m.c)
	dz := make([]float64, m.c)
	da := make([]float64, m.h)
	for i := 0; i < X.Rows; i++ {
		x := X.Row(i)
		m.forward(x, a, z)
		lse := logSumExp(z)
		for k := 0; k < m.c; k++ {
			dz[k] = math.Exp(z[k] - lse)
			if k == int(y[i]) {
				dz[k]--
			}
		}
		// Output layer gradients and backprop into hidden activations.
		tensor.Zero(da)
		for k := 0; k < m.c; k++ {
			tensor.AXPY(dz[k], a, gw2[k*m.h:(k+1)*m.h])
			gb2[k] += dz[k]
			tensor.AXPY(dz[k], w2[k*m.h:(k+1)*m.h], da)
		}
		// Hidden layer: d tanh = 1 − a².
		for j := 0; j < m.h; j++ {
			dh := da[j] * (1 - a[j]*a[j])
			tensor.AXPY(dh, x, gw1[j*m.d:(j+1)*m.d])
			gb1[j] += dh
		}
	}
	tensor.Scale(1/float64(X.Rows), g)
	return g
}

// Predict implements Classifier.
func (m *MLP) Predict(X *tensor.Matrix) []int {
	var bufA, bufZ [scratchLen]float64
	a, z := scratch(&bufA, m.h), scratch(&bufZ, m.c)
	out := make([]int, X.Rows)
	for i := 0; i < X.Rows; i++ {
		m.forward(X.Row(i), a, z)
		out[i] = tensor.Argmax(z)
	}
	return out
}
