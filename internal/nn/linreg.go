package nn

import (
	"digfl/internal/tensor"
)

// LinearRegression is least-squares regression with mean-squared-error loss
//
//	L(θ) = (1/m) Σ_i (x_iᵀw + b − y_i)²
//
// matching the paper's vertical linear regression running example (Eq. 28,
// up to the sum/mean convention noted in DESIGN.md). The bias term is
// optional because VFL partitions the raw feature coordinates across
// participants.
type LinearRegression struct {
	d      int
	bias   bool
	params []float64 // [w_0..w_{d-1}, (b)]
}

var _ Model = (*LinearRegression)(nil)

// NewLinearRegression returns a zero-initialized model with d features.
func NewLinearRegression(d int, bias bool) *LinearRegression {
	p := d
	if bias {
		p++
	}
	return &LinearRegression{d: d, bias: bias, params: make([]float64, p)}
}

// NumParams implements Model.
func (m *LinearRegression) NumParams() int { return len(m.params) }

// Params implements Model.
func (m *LinearRegression) Params() []float64 { return m.params }

// SetParams implements Model.
func (m *LinearRegression) SetParams(p []float64) { copy(m.params, p) }

// Clone implements Model.
func (m *LinearRegression) Clone() Model {
	c := NewLinearRegression(m.d, m.bias)
	copy(c.params, m.params)
	return c
}

// residuals returns ŷ−y for every row.
func (m *LinearRegression) residuals(X *tensor.Matrix, y []float64) []float64 {
	checkBatch(X, y, m.d)
	r := tensor.MatVec(X, m.params[:m.d])
	var b float64
	if m.bias {
		b = m.params[m.d]
	}
	for i := range r {
		r[i] += b - y[i]
	}
	return r
}

// Loss implements Model.
func (m *LinearRegression) Loss(X *tensor.Matrix, y []float64) float64 {
	r := m.residuals(X, y)
	var s float64
	for _, v := range r {
		s += float64(v * v)
	}
	return s / float64(len(r))
}

// Grad implements Model.
func (m *LinearRegression) Grad(X *tensor.Matrix, y []float64) []float64 {
	r := m.residuals(X, y)
	return scaledXt(X, r, 2/float64(len(r)), m.NumParams())
}

// HVP implements Model. The MSE Hessian is constant: H = (2/m)·XᵀX (with the
// bias row/column when present), so H·v = (2/m)·Xᵀ(X·v_w + v_b·1) etc.
func (m *LinearRegression) HVP(X *tensor.Matrix, y []float64, v []float64) []float64 {
	checkBatch(X, y, m.d)
	checkDir(v, len(m.params))
	xv := tensor.MatVec(X, v[:m.d])
	if m.bias {
		for i := range xv {
			xv[i] += v[m.d]
		}
	}
	return scaledXt(X, xv, 2/float64(X.Rows), m.NumParams())
}

// Predict returns the fitted values for every row of X.
func (m *LinearRegression) Predict(X *tensor.Matrix) []float64 {
	out := tensor.MatVec(X, m.params[:m.d])
	if m.bias {
		b := m.params[m.d]
		for i := range out {
			out[i] += b
		}
	}
	return out
}
