package nn

import (
	"fmt"
	"math"

	"digfl/internal/tensor"
)

// CNN is a small convolutional classifier in the shape of the paper's HFL
// models: one valid-padding convolution (F filters of size k×k on a
// single-channel side×side image), ReLU, 2×2 max-pooling with stride 2, and
// a dense softmax head. All gradients are hand-derived, including the
// arg-max routing through the pooling layer. Table II's HFL-Softmax-* rows
// train softmax regression, not this model; the DIG-FL estimators run on it
// in core's CNN federation test.
//
// Parameter layout: filters (F×k×k) ‖ filter biases (F) ‖ dense W (C×flat)
// ‖ dense biases (C), where flat = F·(pool side)².
type CNN struct {
	side, k, f, c int
	convOut       int // side − k + 1
	poolOut       int // convOut / 2 (floor)
	flat          int // f · poolOut²
	params        []float64
}

var (
	_ Model      = (*CNN)(nil)
	_ Classifier = (*CNN)(nil)
)

// NewCNN builds a CNN for side×side single-channel inputs with f filters of
// size k×k and c output classes, randomly initialized from rng.
func NewCNN(side, k, f, c int, rng *tensor.RNG) *CNN {
	if k >= side {
		panic(fmt.Sprintf("nn: CNN kernel %d does not fit %d×%d input", k, side, side))
	}
	convOut := side - k + 1
	poolOut := convOut / 2
	if poolOut < 1 {
		panic("nn: CNN pooled feature map is empty")
	}
	flat := f * poolOut * poolOut
	m := &CNN{side: side, k: k, f: f, c: c, convOut: convOut, poolOut: poolOut, flat: flat,
		params: make([]float64, f*k*k+f+c*flat+c)}
	rng.Normal(m.params[:f*k*k], 0, math.Sqrt(2/float64(k*k)))
	rng.Normal(m.params[f*k*k+f:f*k*k+f+c*flat], 0, math.Sqrt(2/float64(flat+c)))
	return m
}

// InputDim returns the flattened input size side².
func (m *CNN) InputDim() int { return m.side * m.side }

// Classes returns the number of output classes.
func (m *CNN) Classes() int { return m.c }

// NumParams implements Model.
func (m *CNN) NumParams() int { return len(m.params) }

// Params implements Model.
func (m *CNN) Params() []float64 { return m.params }

// SetParams implements Model.
func (m *CNN) SetParams(p []float64) { copy(m.params, p) }

// Clone implements Model.
func (m *CNN) Clone() Model {
	c := *m
	c.params = tensor.Clone(m.params)
	return &c
}

func (m *CNN) slices() (filters, fb, w, b []float64) { return m.split(m.params) }

// split cuts any vector laid out like the parameters into its four blocks.
func (m *CNN) split(p []float64) (filters, fb, w, b []float64) {
	fk := m.f * m.k * m.k
	filters = p[:fk]
	fb = p[fk : fk+m.f]
	w = p[fk+m.f : fk+m.f+m.c*m.flat]
	b = p[fk+m.f+m.c*m.flat:]
	return
}

// fwdState holds per-sample activations needed for backprop.
type fwdState struct {
	conv   []float64 // pre-ReLU conv output, f×convOut×convOut
	pooled []float64 // flat pooled activations
	argmax []int     // index into conv for each pooled cell
	logits []float64
}

func (m *CNN) newState() *fwdState {
	return &fwdState{
		conv:   make([]float64, m.f*m.convOut*m.convOut),
		pooled: make([]float64, m.flat),
		argmax: make([]int, m.flat),
		logits: make([]float64, m.c),
	}
}

// convAt is one filter's pre-ReLU output at conv cell (r, c): its k×k
// kernel ker dotted with the input patch there, plus the bias b.
func (m *CNN) convAt(ker []float64, b float64, x []float64, r, c int) float64 {
	s := b
	for kr := 0; kr < m.k; kr++ {
		xrow := x[(r+kr)*m.side+c:]
		krow := ker[kr*m.k:]
		for kc := 0; kc < m.k; kc++ {
			s += float64(krow[kc] * xrow[kc])
		}
	}
	return s
}

// forward runs one sample through the network, filling st.
func (m *CNN) forward(x []float64, st *fwdState) {
	filters, fb, w, b := m.slices()
	co := m.convOut
	for fi := 0; fi < m.f; fi++ {
		ker := filters[fi*m.k*m.k : (fi+1)*m.k*m.k]
		out := st.conv[fi*co*co : (fi+1)*co*co]
		for r := 0; r < co; r++ {
			for cIdx := 0; cIdx < co; cIdx++ {
				out[r*co+cIdx] = m.convAt(ker, fb[fi], x, r, cIdx)
			}
		}
	}
	// ReLU + 2×2 max pool, recording the winning conv index per cell.
	po := m.poolOut
	for fi := 0; fi < m.f; fi++ {
		base := fi * co * co
		for r := 0; r < po; r++ {
			for cIdx := 0; cIdx < po; cIdx++ {
				bestIdx := -1
				best := 0.0 // ReLU floor: cells ≤ 0 contribute 0 with no gradient
				for dr := 0; dr < 2; dr++ {
					for dc := 0; dc < 2; dc++ {
						idx := base + (2*r+dr)*co + (2*cIdx + dc)
						if v := st.conv[idx]; v > best {
							best = v
							bestIdx = idx
						}
					}
				}
				cell := fi*po*po + r*po + cIdx
				st.pooled[cell] = best
				st.argmax[cell] = bestIdx
			}
		}
	}
	affine(st.logits, w, b, st.pooled)
}

// Loss implements Model.
func (m *CNN) Loss(X *tensor.Matrix, y []float64) float64 {
	checkBatch(X, y, m.side*m.side)
	st := m.newState()
	var s float64
	for i := 0; i < X.Rows; i++ {
		m.forward(X.Row(i), st)
		s += tensor.LogSumExp(st.logits) - st.logits[classOf(y[i], i, m.c)]
	}
	return s / float64(X.Rows)
}

// Grad implements Model.
func (m *CNN) Grad(X *tensor.Matrix, y []float64) []float64 {
	checkBatch(X, y, m.side*m.side)
	_, _, w, _ := m.slices()
	g := make([]float64, m.NumParams())
	gFilters, gfb, gw, gb := m.split(g)

	st := m.newState()
	dz := make([]float64, m.c)
	dPooled := make([]float64, m.flat)
	for i := 0; i < X.Rows; i++ {
		x := X.Row(i)
		m.forward(x, st)
		lse, yi := tensor.LogSumExp(st.logits), classOf(y[i], i, m.c)
		for k := 0; k < m.c; k++ {
			dz[k] = tensor.Exp(st.logits[k] - lse)
			if k == yi {
				dz[k]--
			}
		}
		tensor.Zero(dPooled)
		for k := 0; k < m.c; k++ {
			tensor.AXPY(dz[k], st.pooled, gw[k*m.flat:(k+1)*m.flat])
			gb[k] += dz[k]
			tensor.AXPY(dz[k], w[k*m.flat:(k+1)*m.flat], dPooled)
		}
		m.route(x, st.argmax, dPooled, gFilters, gfb)
	}
	tensor.Scale(1/float64(X.Rows), g)
	return g
}

// route sends pooled gradients back to the winning conv cells, then to the
// filter weights (the winning cell at conv index idx corresponds to the
// input patch starting at (idx/co, idx%co) within filter fi).
func (m *CNN) route(x []float64, argmax []int, dPooled, gFilters, gfb []float64) {
	co := m.convOut
	for cell, idx := range argmax {
		if idx < 0 || dPooled[cell] == 0 {
			continue // ReLU-clipped or zero gradient
		}
		fi := idx / (co * co)
		rc := idx % (co * co)
		r, cIdx := rc/co, rc%co
		dv := dPooled[cell]
		gker := gFilters[fi*m.k*m.k : (fi+1)*m.k*m.k]
		for kr := 0; kr < m.k; kr++ {
			xrow := x[(r+kr)*m.side+cIdx:]
			grow := gker[kr*m.k:]
			for kc := 0; kc < m.k; kc++ {
				grow[kc] += float64(dv * xrow[kc])
			}
		}
		gfb[fi] += dv
	}
}

// HVP implements Model with Pearlmutter's R-operator on the passes above.
// The ReLU mask and the max-pool routing are fixed by the forward pass and
// have a zero second derivative almost everywhere, so along
// v = (V_F, v_fb, V, v_b) a pooled cell moves only with its winning conv
// cell, R{pooled} = V_F∗x + v_fb there (0 where ReLU clipped the window),
// and R{z} = W·R{pooled} + V·pooled + v_b. What remains is the softmax
// head's closed form, R{dz} = (diag p − p pᵀ)·R{z}, and its cross terms with
// the filters: R{dPooled} = Wᵀ·R{dz} + Vᵀ·dz, routed to the filters like
// dPooled.
func (m *CNN) HVP(X *tensor.Matrix, y []float64, v []float64) []float64 {
	checkBatch(X, y, m.side*m.side)
	checkDir(v, len(m.params))
	_, _, w, _ := m.slices()
	vf, vfb, vw, vb := m.split(v)
	out := make([]float64, m.NumParams())
	of, ofb, ow, ob := m.split(out)

	st := m.newState()
	rPooled := make([]float64, m.flat)
	rdPooled := make([]float64, m.flat)
	co := m.convOut
	for i := 0; i < X.Rows; i++ {
		x := X.Row(i)
		m.forward(x, st)
		for cell, idx := range st.argmax {
			rPooled[cell] = 0
			if idx < 0 {
				continue
			}
			fi, rc := idx/(co*co), idx%(co*co)
			rPooled[cell] = m.convAt(vf[fi*m.k*m.k:(fi+1)*m.k*m.k], vfb[fi], x, rc/co, rc%co)
		}
		denseHeadR(st.pooled, rPooled, w, vw, vb, st.logits, classOf(y[i], i, m.c), ow, ob, rdPooled)
		m.route(x, st.argmax, rdPooled, of, ofb)
	}
	tensor.Scale(1/float64(X.Rows), out)
	return out
}

// Predict implements Classifier.
func (m *CNN) Predict(X *tensor.Matrix) []int {
	st := m.newState()
	out := make([]int, X.Rows)
	for i := 0; i < X.Rows; i++ {
		m.forward(X.Row(i), st)
		out[i] = tensor.Argmax(st.logits)
	}
	return out
}
