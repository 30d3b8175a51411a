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
// z and returns how many rows n it took, class-major — row i+r's logit of
// class k at z[k·n+r] — under the vector w laid out like the parameters — W
// row-major, then the C biases: the model's own for the logits, the
// direction v for their derivative u = V·x + v_b in the HVP. Eight rows are
// a block and one tensor.Dot8xN call — the rows are its lanes, every class
// row taken against all eight, so that a class count that is no multiple of
// the block leaves no class on a chain of its own; four rows short of eight
// are one tensor.Dot4xN call; the last rows, short of four, are taken one at
// a time with the classes as lanes. Each adds the biases itself.
func (m *SoftmaxRegression) blockLogits(X *tensor.Matrix, i int, w, z []float64) int {
	c, b := m.c, w[m.c*m.d:]
	w = w[:m.c*m.d]
	switch {
	case i+8 <= X.Rows:
		tensor.Dot8xN(z[:8*c], X.Data[i*X.Cols:(i+8)*X.Cols], w, b)
		return 8
	case i+4 <= X.Rows:
		tensor.Dot4xN(z[:4*c], X.Data[i*X.Cols:(i+4)*X.Cols], w, b)
		return 4
	default:
		affine(z[:c], w, b, X.Row(i))
		return 1
	}
}

// blockSoftmax turns the n rows of logits blockLogits left in z into their
// softmax p_k = exp(z_k − lse), in place: an eight-row block through
// tensor.LogSumExp8 and tensor.ExpShift8, a four-row block through
// tensor.LogSumExp4 and tensor.ExpShift4, their rows the lanes, a single row
// through LogSumExp and Exp, with the same bits.
func (m *SoftmaxRegression) blockSoftmax(z []float64, n int) {
	c := m.c
	switch n {
	case 8:
		var lse [8]float64
		tensor.LogSumExp8(&lse, z[:8*c])
		tensor.ExpShift8(z[:8*c], &lse)
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
			s += lse[r] - z[classOf(y[i+r], i+r, m.c)*n+r]
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
			z[classOf(y[i+r], i+r, m.c)*n+r]--
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
		}
		softmaxR(z[:n*m.c], u[:n*m.c], n)
		m.blockBackward(X, i, n, u, out)
	}
	tensor.Scale(1/float64(X.Rows), out)
	return out
}

// blockBackward adds Σ_r dz_r ⊗ [x_r, 1] over the n rows of X from row i on
// to g, the block's dz class-major as blockLogits leaves it: each class
// takes its n values, one per row, in one pass.
func (m *SoftmaxRegression) blockBackward(X *tensor.Matrix, i, n int, dz, g []float64) {
	gb := g[m.c*m.d:]
	var xs [8][]float64
	for r := 0; r < n; r++ {
		xs[r] = X.Row(i + r)
	}
	for k, b := range gb {
		dk := dz[k*n : (k+1)*n]
		for _, v := range dk {
			b += v
		}
		gb[k] = b
		tensor.AXPYRows(dk, xs[:n], g[k*m.d:(k+1)*m.d])
	}
}

// Predict implements Classifier.
func (m *SoftmaxRegression) Predict(X *tensor.Matrix) []int {
	out := make([]int, X.Rows)
	var buf [scratchLen]float64
	z := scratch(&buf, 8*m.c)
	for i, n := 0, 0; i < X.Rows; i += n {
		n = m.blockLogits(X, i, m.params, z)
		// tensor.Argmax of each row: the first of its largest logits.
		best := out[i : i+n]
		for k := 1; k < m.c; k++ {
			for r, b := range best {
				if z[k*n+r] > z[b*n+r] {
					best[r] = k
				}
			}
		}
	}
	return out
}
