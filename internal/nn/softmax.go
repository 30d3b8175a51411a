package nn

import "digfl/internal/tensor"

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

// blockLogits computes the logits of the next rows of X from row i on into
// z, row i+r's at z[r·C:(r+1)·C], and returns how many rows it took, under
// the vector w laid out like the parameters — W row-major, then the C
// biases: the model's own for the logits, the direction v for their
// derivative u = V·x + v_b in the HVP. Eight rows are a block and one
// tensor.Dot8xN call — the rows are its lanes, every class row taken
// against all eight, so that a class count that is no multiple of the
// block leaves no class on a chain of its own; four rows short of eight are
// one tensor.Dot4xN call; the last rows, short of four, are taken one at a
// time with the classes as lanes.
func (m *SoftmaxRegression) blockLogits(X *tensor.Matrix, i int, w, z []float64) int {
	c, cd := m.c, m.c*m.d
	n := 8
	switch {
	case i+8 <= X.Rows:
		tensor.Dot8xN(z[:8*c], X.Data[i*X.Cols:(i+8)*X.Cols], w[:cd])
	case i+4 <= X.Rows:
		n = 4
		tensor.Dot4xN(z[:4*c], X.Data[i*X.Cols:(i+4)*X.Cols], w[:cd])
	default:
		affine(z[:c], w[:cd], w[cd:], X.Row(i))
		return 1
	}
	for r := range n {
		zr := z[r*c : (r+1)*c]
		for k, bk := range w[cd:] {
			zr[k] += bk
		}
	}
	return n
}

// blockSoftmax turns the n rows of logits blockLogits left in z into their
// softmax p_k = exp(z_k − lse), in place: an eight-row block through
// tensor.LogSumExp8 and two tensor.ExpShift4 calls, a four-row block
// through tensor.LogSumExp4 and one, their rows the lanes, a single row
// through LogSumExp and Exp, with the same bits.
func (m *SoftmaxRegression) blockSoftmax(z []float64, n int) {
	c := m.c
	switch n {
	case 8:
		var lse [8]float64
		tensor.LogSumExp8(&lse, z[:8*c])
		tensor.ExpShift4(z[:4*c], (*[4]float64)(lse[:4]))
		tensor.ExpShift4(z[4*c:8*c], (*[4]float64)(lse[4:]))
	case 4:
		var lse [4]float64
		tensor.LogSumExp4(&lse, z[:4*c])
		tensor.ExpShift4(z[:4*c], &lse)
	default:
		zr := z[:c]
		lse := tensor.LogSumExp(zr)
		for k, zk := range zr {
			zr[k] = tensor.Exp(zk - lse)
		}
	}
}

// Loss implements Model: per row, log Σ exp(z_k) − z_y, the normaliser of
// an eight-row block from one tensor.LogSumExp8 call, of a four-row block
// from one tensor.LogSumExp4 call.
func (m *SoftmaxRegression) Loss(X *tensor.Matrix, y []float64) float64 {
	checkBatch(X, y, m.d)
	var buf [scratchLen]float64
	z := scratch(&buf, 8*m.c)
	var lse [8]float64
	var s float64
	for i, n := 0, 0; i < X.Rows; i += n {
		switch n = m.blockLogits(X, i, m.params, z); n {
		case 8:
			tensor.LogSumExp8(&lse, z[:8*m.c])
		case 4:
			tensor.LogSumExp4((*[4]float64)(lse[:4]), z[:4*m.c])
		default:
			lse[0] = tensor.LogSumExp(z[:m.c])
		}
		for r := 0; r < n; r++ {
			s += lse[r] - z[r*m.c+classOf(y[i+r], i+r, m.c)]
		}
	}
	return s / float64(X.Rows)
}

// Grad implements Model.
func (m *SoftmaxRegression) Grad(X *tensor.Matrix, y []float64) []float64 {
	checkBatch(X, y, m.d)
	g := make([]float64, m.NumParams())
	var buf [scratchLen]float64
	z := scratch(&buf, 8*m.c)
	for i, n := 0, 0; i < X.Rows; i += n {
		n = m.blockLogits(X, i, m.params, z)
		// The block's dz = softmax(z) − onehot(y) first, over its logits …
		m.blockSoftmax(z, n)
		for r := 0; r < n; r++ {
			z[r*m.c+classOf(y[i+r], i+r, m.c)]--
		}
		m.blockBackward(X, i, n, z, g)
	}
	tensor.Scale(1/float64(X.Rows), g)
	return g
}

// HVP implements Model with the cross-entropy Hessian's closed form. Per
// row, with p = softmax(z) and u = V·x + v_b the logits' derivative along v,
// the head's R{dz} is r = (diag p − p pᵀ)·u, and H·v = (1/m)·Σ r ⊗ [x, 1]:
// u takes the logits' row blocks and r the gradient's backward pass.
// The scratch is on the stack, so the call allocates only its result. The
// Hessian does not depend on the labels; each row's is only checked.
func (m *SoftmaxRegression) HVP(X *tensor.Matrix, y []float64, v []float64) []float64 {
	checkBatch(X, y, m.d)
	checkDir(v, len(m.params))
	out := make([]float64, m.NumParams())
	var bufZ, bufU [scratchLen]float64
	z, u := scratch(&bufZ, 8*m.c), scratch(&bufU, 8*m.c)
	for i, n := 0, 0; i < X.Rows; i += n {
		n = m.blockLogits(X, i, m.params, z)
		m.blockLogits(X, i, v, u)
		m.blockSoftmax(z, n)
		for r := 0; r < n; r++ {
			classOf(y[i+r], i+r, m.c)
			softmaxR(z[r*m.c:(r+1)*m.c], u[r*m.c:(r+1)*m.c])
		}
		m.blockBackward(X, i, n, u, out)
	}
	tensor.Scale(1/float64(X.Rows), out)
	return out
}

// blockBackward adds Σ_r dz_r ⊗ [x_r, 1] over the n rows of X from row i on
// to g, row r's C values at dz[r·C:(r+1)·C]: each class takes the block's
// rows in one pass.
func (m *SoftmaxRegression) blockBackward(X *tensor.Matrix, i, n int, dz, g []float64) {
	gb := g[m.c*m.d:]
	var xs [8][]float64
	var pk [8]float64
	for r := 0; r < n; r++ {
		xs[r] = X.Row(i + r)
	}
	for k := 0; k < m.c; k++ {
		for r := 0; r < n; r++ {
			pk[r] = dz[r*m.c+k]
			gb[k] += pk[r]
		}
		tensor.AXPYRows(pk[:n], xs[:n], g[k*m.d:(k+1)*m.d])
	}
}

// Predict implements Classifier.
func (m *SoftmaxRegression) Predict(X *tensor.Matrix) []int {
	out := make([]int, X.Rows)
	var buf [scratchLen]float64
	z := scratch(&buf, 8*m.c)
	for i, n := 0, 0; i < X.Rows; i += n {
		n = m.blockLogits(X, i, m.params, z)
		for r := 0; r < n; r++ {
			out[i+r] = tensor.Argmax(z[r*m.c : (r+1)*m.c])
		}
	}
	return out
}
