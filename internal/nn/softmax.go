package nn

import (
	"math"

	"digfl/internal/tensor"
)

// SoftmaxRegression is multinomial logistic regression: a linear map to C
// logits followed by softmax cross-entropy. Labels are class indices stored
// as float64. Parameter layout: W row-major (C×d) followed by the C biases.
type SoftmaxRegression struct {
	d, c   int
	params []float64
}

var (
	_ Model      = (*SoftmaxRegression)(nil)
	_ Classifier = (*SoftmaxRegression)(nil)
)

// NewSoftmaxRegression returns a zero-initialized C-way classifier over d
// features.
func NewSoftmaxRegression(d, c int) *SoftmaxRegression {
	return &SoftmaxRegression{d: d, c: c, params: make([]float64, c*d+c)}
}

// Classes returns the number of output classes.
func (m *SoftmaxRegression) Classes() int { return m.c }

// NumParams implements Model.
func (m *SoftmaxRegression) NumParams() int { return len(m.params) }

// Params implements Model.
func (m *SoftmaxRegression) Params() []float64 { return m.params }

// SetParams implements Model.
func (m *SoftmaxRegression) SetParams(p []float64) { copy(m.params, p) }

// Clone implements Model.
func (m *SoftmaxRegression) Clone() Model {
	c := NewSoftmaxRegression(m.d, m.c)
	copy(c.params, m.params)
	return c
}

func (m *SoftmaxRegression) weightRow(k int) []float64 {
	return m.params[k*m.d : (k+1)*m.d]
}

func (m *SoftmaxRegression) biases() []float64 {
	return m.params[m.c*m.d:]
}

// blockLogits computes the logits of the next rows of X from row i on into
// z, row i+r's at z[r·C:(r+1)·C], and returns how many rows it took. Four
// rows are a block and are then the kernel's lanes — class k's four logits
// share one pass over w_k — so that a class count that is no multiple of four
// leaves no class on a chain of its own; the last rows, short of a block, are
// taken one at a time with the classes as lanes.
func (m *SoftmaxRegression) blockLogits(X *tensor.Matrix, i int, z []float64) int {
	c := m.c
	if i+4 > X.Rows {
		affine(z[:c], m.params[:c*m.d], m.biases(), X.Row(i))
		return 1
	}
	x0, x1, x2, x3 := X.Row(i), X.Row(i+1), X.Row(i+2), X.Row(i+3)
	for k, bk := range m.biases() {
		s0, s1, s2, s3 := tensor.Dot4(x0, x1, x2, x3, m.weightRow(k))
		z[k], z[c+k], z[2*c+k], z[3*c+k] = s0+bk, s1+bk, s2+bk, s3+bk
	}
	return 4
}

// Loss implements Model.
func (m *SoftmaxRegression) Loss(X *tensor.Matrix, y []float64) float64 {
	checkBatch(X, y, m.d)
	var buf [scratchLen]float64
	z := scratch(&buf, 4*m.c)
	var s float64
	for i, n := 0, 0; i < X.Rows; i += n {
		n = m.blockLogits(X, i, z)
		for r := 0; r < n; r++ {
			zr := z[r*m.c : (r+1)*m.c]
			s += logSumExp(zr) - zr[int(y[i+r])]
		}
	}
	return s / float64(X.Rows)
}

// Grad implements Model.
func (m *SoftmaxRegression) Grad(X *tensor.Matrix, y []float64) []float64 {
	checkBatch(X, y, m.d)
	g := make([]float64, m.NumParams())
	gb := g[m.c*m.d:]
	var buf [scratchLen]float64
	z := scratch(&buf, 4*m.c)
	var xs [4][]float64
	var pk [4]float64
	for i, n := 0, 0; i < X.Rows; i += n {
		n = m.blockLogits(X, i, z)
		// The block's dz = softmax(z) − onehot(y) first, over its logits …
		for r := 0; r < n; r++ {
			xs[r] = X.Row(i + r)
			zr := z[r*m.c : (r+1)*m.c]
			lse := logSumExp(zr)
			for k, zk := range zr {
				zr[k] = math.Exp(zk - lse)
				if k == int(y[i+r]) {
					zr[k]--
				}
			}
		}
		// … then each class takes the block's rows in one pass.
		for k := 0; k < m.c; k++ {
			for r := 0; r < n; r++ {
				pk[r] = z[r*m.c+k]
				gb[k] += pk[r]
			}
			tensor.AXPYRows(pk[:n], xs[:n], g[k*m.d:(k+1)*m.d])
		}
	}
	tensor.Scale(1/float64(X.Rows), g)
	return g
}

// Predict implements Classifier.
func (m *SoftmaxRegression) Predict(X *tensor.Matrix) []int {
	out := make([]int, X.Rows)
	var buf [scratchLen]float64
	z := scratch(&buf, 4*m.c)
	for i, n := 0, 0; i < X.Rows; i += n {
		n = m.blockLogits(X, i, z)
		for r := 0; r < n; r++ {
			out[i+r] = tensor.Argmax(z[r*m.c : (r+1)*m.c])
		}
	}
	return out
}
