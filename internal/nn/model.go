// Package nn implements the learning models used by the HFL and VFL
// simulators, with fully manual gradients (Go has no mature autodiff, so
// every backward pass is hand-derived and validated against finite
// differences in the tests). Every model also computes the exact
// Hessian-vector product (HVP) that DIG-FL's interactive estimator
// (Algorithm 1) consumes: a closed form for the three generalized linear
// models, Pearlmutter's R-operator on the hand-derived backward pass for the
// CNN. None of them writes to the model.
//
// SoftmaxRegression takes its validation rows in blocks of eight, then one
// of four, then single rows, each block one call of tensor's row-block
// kernels (Dot8xN / Dot4xN with the biases, LogSumExp8 / LogSumExp4,
// ExpShift8 / ExpShift4), with the same bits on every path those kernels
// take. A block is class-major, the kernels' own layout — row r's logit of
// class k at z[k·n+r] — so a class is one vector load or store and its
// backward pass one contiguous slice; its scratch stays on the stack up to
// sixteen classes.
package nn

import (
	"fmt"

	"digfl/internal/tensor"
)

// Model is a differentiable parametric model trained with full-batch
// gradient steps. Parameters are a single flat float64 vector so the
// federated machinery can treat every model uniformly.
//
// Loss and Grad use the *mean* loss over the batch, which keeps gradient
// scale independent of the local dataset size — the FedSGD convention the
// paper assumes.
type Model interface {
	// NumParams returns the parameter count p.
	NumParams() int
	// Params returns the live parameter slice; callers may read it freely
	// and must copy before mutating unless they intend to update the model.
	Params() []float64
	// SetParams copies p into the model parameters.
	SetParams(p []float64)
	// Loss returns the mean loss of the model on (X, y).
	Loss(X *tensor.Matrix, y []float64) float64
	// Grad returns the gradient of the mean loss, as a fresh slice.
	Grad(X *tensor.Matrix, y []float64) []float64
	// HVP returns H·v, where H is the Hessian of the mean loss at the
	// current parameters, as a fresh slice. It only reads the model, so
	// concurrent calls may share one.
	HVP(X *tensor.Matrix, y []float64, v []float64) []float64
	// Clone returns a deep copy, preserving architecture and parameters.
	Clone() Model
}

// Classifier is implemented by classification models.
type Classifier interface {
	Model
	// Predict returns the arg-max class index for every row of X.
	Predict(X *tensor.Matrix) []int
}

// HVP returns the Hessian-vector product of the model's mean loss at its
// current parameters: m.HVP(X, y, v).
func HVP(m Model, X *tensor.Matrix, y []float64, v []float64) []float64 {
	return m.HVP(X, y, v)
}

// NumGrad computes a central-difference numerical gradient; the tests use it
// to validate every hand-written backward pass.
func NumGrad(m Model, X *tensor.Matrix, y []float64, eps float64) []float64 {
	theta := tensor.Clone(m.Params())
	defer m.SetParams(theta)
	g := make([]float64, len(theta))
	for i := range theta {
		p := tensor.Clone(theta)
		p[i] += eps
		m.SetParams(p)
		lp := m.Loss(X, y)
		p[i] -= 2 * eps
		m.SetParams(p)
		lm := m.Loss(X, y)
		g[i] = (lp - lm) / (2 * eps)
	}
	return g
}

// sigmoid is the numerically stable logistic function.
func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + tensor.Exp(-z))
	}
	e := tensor.Exp(z)
	return e / (1 + e)
}

// affine computes dst = W·x + b for the row-major len(b)×len(x) matrix w:
// the logit layer of every classifier here, its rows sharing Dot4 passes.
func affine(dst, w, b, x []float64) {
	tensor.MatVecTo(dst, w, x)
	for k, bk := range b {
		dst[k] += bk
	}
}

// scaledXt returns the p parameters' scale·Xᵀr with, when p leaves room for
// a bias after the X.Cols weights, scale·Σr there: the gradient and the
// Hessian-vector product of both generalized linear models. Xᵀr goes
// straight into the returned vector and is scaled in place.
func scaledXt(X *tensor.Matrix, r []float64, scale float64, p int) []float64 {
	out := make([]float64, p)
	gw := out[:X.Cols]
	tensor.MatTVecTo(gw, X, r)
	for i, v := range gw {
		gw[i] = scale * v
	}
	if p > X.Cols {
		out[X.Cols] = scale * tensor.Sum(r)
	}
	return out
}

// scratchLen bounds the per-call scratch that Loss, Grad and Predict keep in
// a stack array: logits of an eight-row block of a sixteen-class model, or
// 128 hidden units.
const scratchLen = 128

// scratch returns n values of per-call scratch: buf when they fit — the
// caller's stack array, so that a shared model stays re-entrant and the call
// allocates nothing — and a fresh slice otherwise.
func scratch(buf *[scratchLen]float64, n int) []float64 {
	if n <= scratchLen {
		return buf[:n]
	}
	return make([]float64, n)
}

// headR turns a row's logits z into p = softmax(z), in place, and their
// derivative u along a direction into the softmax cross-entropy's
// R{dz} = (diag p − p pᵀ)·u, r_k = p_k·(u_k − Σ_j p_j·u_j): the head's share
// of the CNN's Hessian-vector product. The softmax model takes p a row
// block at a time and runs softmaxR on the block.
func headR(z, u []float64) {
	lse := tensor.LogSumExp(z)
	for k, zk := range z {
		z[k] = tensor.Exp(zk - lse)
	}
	softmaxR(z, u, 1)
}

// softmaxR is headR after the softmax: it turns u into
// r_k = p_k·(u_k − Σ_j p_j·u_j) for each of the n ≤ 8 rows of
// probabilities p, class-major like u — row r's class k at [k·n+r] — each
// row's sum in class order.
func softmaxR(p, u []float64, n int) {
	var s [8]float64
	for k, r := 0, 0; k < len(p); k, r = k+1, r+1 {
		if r == n {
			r = 0
		}
		s[r] += float64(p[k] * u[k])
	}
	for k, r := 0, 0; k < len(u); k, r = k+1, r+1 {
		if r == n {
			r = 0
		}
		u[k] = p[k] * (u[k] - s[r])
	}
}

// denseHeadR is the R-operator pass through the CNN's dense softmax head
// z = W·act + b. Along the direction (V, v_b) and with act's own derivative
// rAct, it forms R{z} = V·act + v_b + W·rAct, turns logits (the forward
// pass's z) into p and R{z} into R{dz} (headR), and adds the head weights'
// products R{dz} ⊗ act + dz ⊗ rAct to ow and R{dz} to ob, with
// dz = p − onehot(label). It sets rdAct = Wᵀ·R{dz} + Vᵀ·dz for the layer
// below.
func denseHeadR(act, rAct, w, vw, vb, logits []float64, label int, ow, ob, rdAct []float64) {
	var bufRZ, bufDZ [scratchLen]float64
	c, n := len(logits), len(act)
	rz, dz := scratch(&bufRZ, c), scratch(&bufDZ, c)
	affine(rz, vw, vb, act)
	tensor.MatVecTo(dz, w, rAct)
	for k, wk := range dz {
		rz[k] += wk
	}
	headR(logits, rz)
	copy(dz, logits)
	dz[label]--
	tensor.Zero(rdAct)
	for k := 0; k < c; k++ {
		wk, vwk, owk := w[k*n:(k+1)*n], vw[k*n:(k+1)*n], ow[k*n:(k+1)*n]
		tensor.AXPY(rz[k], act, owk)
		tensor.AXPY(dz[k], rAct, owk)
		ob[k] += rz[k]
		tensor.AXPY(rz[k], wk, rdAct)
		tensor.AXPY(dz[k], vwk, rdAct)
	}
}

// checkDir panics unless the HVP direction v has one entry per parameter.
func checkDir(v []float64, p int) {
	if len(v) != p {
		panic(fmt.Sprintf("nn: HVP vector length %d, model has %d params", len(v), p))
	}
}

// classOf reads the label v of row i as a class index in [0,c). It is the
// per-row label read of every classifier loop, so the check costs no pass of
// its own.
func classOf(v float64, i, c int) (k int) {
	if k = int(v); uint(k) >= uint(c) || float64(k) != v {
		badLabel(v, i, c)
	}
	return k
}

// badLabel panics on a label that is no class index, out of line so that
// classOf inlines.
//
//go:noinline
func badLabel(v float64, i, c int) {
	panic(fmt.Sprintf("nn: label %v at row %d is not a class index in [0,%d)", v, i, c))
}

func checkBatch(x *tensor.Matrix, y []float64, wantCols int) {
	if x.Cols != wantCols {
		panic(fmt.Sprintf("nn: batch has %d features, model expects %d", x.Cols, wantCols))
	}
	if x.Rows != len(y) {
		panic(fmt.Sprintf("nn: batch has %d rows but %d labels", x.Rows, len(y)))
	}
	if x.Rows == 0 {
		panic("nn: empty batch")
	}
}
