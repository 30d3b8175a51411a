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

func (m *MLP) slices() (w1, b1, w2, b2 []float64) { return m.split(m.params) }

// split cuts any vector laid out like the parameters into its four blocks.
func (m *MLP) split(p []float64) (w1, b1, w2, b2 []float64) {
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
		a[j] = tensor.Tanh(v)
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
		s += tensor.LogSumExp(z) - z[classOf(y[i], i, m.c)]
	}
	return s / float64(X.Rows)
}

// Grad implements Model with hand-derived backprop.
func (m *MLP) Grad(X *tensor.Matrix, y []float64) []float64 {
	checkBatch(X, y, m.d)
	_, _, w2, _ := m.slices()
	g := make([]float64, m.NumParams())
	gw1, gb1, gw2, gb2 := m.split(g)

	var bufA, bufZ [scratchLen]float64
	a, z := scratch(&bufA, m.h), scratch(&bufZ, m.c)
	dz := make([]float64, m.c)
	da := make([]float64, m.h)
	for i := 0; i < X.Rows; i++ {
		x := X.Row(i)
		m.forward(x, a, z)
		lse, yi := tensor.LogSumExp(z), classOf(y[i], i, m.c)
		for k := 0; k < m.c; k++ {
			dz[k] = tensor.Exp(z[k] - lse)
			if k == yi {
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
			dh := da[j] * (1 - float64(a[j]*a[j]))
			tensor.AXPY(dh, x, gw1[j*m.d:(j+1)*m.d])
			gb1[j] += float64(dh)
		}
	}
	tensor.Scale(1/float64(X.Rows), g)
	return g
}

// HVP implements Model with Pearlmutter's R-operator, R{f} = ∂f(θ+r·v)/∂r
// at r = 0, applied to the forward and the backward pass above. Along
// v = (V1, v_b1, V2, v_b2) the forward pass gives R{a} = (1 − a²)⊙(V1·x +
// v_b1) and R{z} = W2·R{a} + V2·a + v_b2; the backward pass gives the head's
// R{dz} = (diag p − p pᵀ)·R{z}, R{da} = W2ᵀ·R{dz} + V2ᵀ·dz and, with tanh's
// second derivative, R{dh} = (1 − a²)⊙R{da} − 2a⊙R{a}⊙da. The weights'
// products are then the gradient's with every factor differentiated in
// turn.
func (m *MLP) HVP(X *tensor.Matrix, y []float64, v []float64) []float64 {
	checkBatch(X, y, m.d)
	checkDir(v, len(m.params))
	_, _, w2, _ := m.slices()
	v1, vb1, v2, vb2 := m.split(v)
	out := make([]float64, m.NumParams())
	o1, ob1, o2, ob2 := m.split(out)

	var bufA, bufRA, bufDA, bufRDA, bufZ [scratchLen]float64
	a, ra := scratch(&bufA, m.h), scratch(&bufRA, m.h)
	da, rda := scratch(&bufDA, m.h), scratch(&bufRDA, m.h)
	z := scratch(&bufZ, m.c)
	for i := 0; i < X.Rows; i++ {
		x := X.Row(i)
		m.forward(x, a, z)
		affine(ra, v1, vb1, x)
		for j, aj := range a {
			ra[j] *= 1 - float64(aj*aj)
		}
		denseHeadR(a, ra, w2, v2, vb2, z, classOf(y[i], i, m.c), o2, ob2, da, rda)
		for j, aj := range a {
			rdh := float64(rda[j]*(1-float64(aj*aj))) - float64(2*aj*ra[j]*da[j])
			tensor.AXPY(rdh, x, o1[j*m.d:(j+1)*m.d])
			ob1[j] += rdh
		}
	}
	tensor.Scale(1/float64(X.Rows), out)
	return out
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
