package nn

import "digfl/internal/tensor"

// LogisticRegression is binary logistic regression with mean cross-entropy
// loss; labels are 0/1 (stored as float64 for interface uniformity). It is
// the model behind the paper's VFL-LogReg experiments.
type LogisticRegression struct {
	d      int
	bias   bool
	params []float64
}

var (
	_ Model      = (*LogisticRegression)(nil)
	_ Classifier = (*LogisticRegression)(nil)
)

// NewLogisticRegression returns a zero-initialized binary classifier over d
// features.
func NewLogisticRegression(d int, bias bool) *LogisticRegression {
	p := d
	if bias {
		p++
	}
	return &LogisticRegression{d: d, bias: bias, params: make([]float64, p)}
}

// NumParams implements Model.
func (m *LogisticRegression) NumParams() int { return len(m.params) }

// Params implements Model.
func (m *LogisticRegression) Params() []float64 { return m.params }

// SetParams implements Model.
func (m *LogisticRegression) SetParams(p []float64) { copy(m.params, p) }

// Clone implements Model.
func (m *LogisticRegression) Clone() Model {
	c := NewLogisticRegression(m.d, m.bias)
	copy(c.params, m.params)
	return c
}

// logits returns xᵀw (+b) per row.
func (m *LogisticRegression) logits(X *tensor.Matrix) []float64 {
	z := tensor.MatVec(X, m.params[:m.d])
	if m.bias {
		b := m.params[m.d]
		for i := range z {
			z[i] += b
		}
	}
	return z
}

// Loss implements Model.
func (m *LogisticRegression) Loss(X *tensor.Matrix, y []float64) float64 {
	checkBatch(X, y, m.d)
	z := m.logits(X)
	var s float64
	for i, zi := range z {
		// Stable −[y log σ(z) + (1−y) log(1−σ(z))] = log(1+e^{−z}) + (1−y)·z
		// rearranged to avoid overflow for large |z|.
		if zi >= 0 {
			s += tensor.Log1p(tensor.Exp(-zi)) + float64((1-y[i])*zi)
		} else {
			s += tensor.Log1p(tensor.Exp(zi)) - float64(y[i]*zi)
		}
	}
	return s / float64(len(y))
}

// Grad implements Model.
func (m *LogisticRegression) Grad(X *tensor.Matrix, y []float64) []float64 {
	checkBatch(X, y, m.d)
	z := m.logits(X)
	r := make([]float64, len(z))
	for i, zi := range z {
		r[i] = sigmoid(zi) - y[i]
	}
	return scaledXt(X, r, 1/float64(len(y)), m.NumParams())
}

// HVP implements Model: H·v = (1/m)·Xᵀ·diag(p(1−p))·(X·v_w + v_b·1).
func (m *LogisticRegression) HVP(X *tensor.Matrix, y []float64, v []float64) []float64 {
	checkBatch(X, y, m.d)
	checkDir(v, len(m.params))
	z := m.logits(X)
	xv := tensor.MatVec(X, v[:m.d])
	if m.bias {
		for i := range xv {
			xv[i] += v[m.d]
		}
	}
	for i, zi := range z {
		p := sigmoid(zi)
		xv[i] *= p * (1 - p)
	}
	return scaledXt(X, xv, 1/float64(X.Rows), m.NumParams())
}

// Predict implements Classifier: class 1 when σ(z) ≥ 1/2, i.e. z ≥ 0.
func (m *LogisticRegression) Predict(X *tensor.Matrix) []int {
	z := m.logits(X)
	out := make([]int, len(z))
	for i, zi := range z {
		if zi >= 0 {
			out[i] = 1
		}
	}
	return out
}

// Proba returns σ(z) for every row.
func (m *LogisticRegression) Proba(X *tensor.Matrix) []float64 {
	z := m.logits(X)
	for i, zi := range z {
		z[i] = sigmoid(zi)
	}
	return z
}
