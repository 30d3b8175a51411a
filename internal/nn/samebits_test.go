package nn

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"digfl/internal/tensor"
)

// The reference models below are the loops every model ran before its
// products moved onto tensor.Dot4: one term-by-term dot per logit, one row
// and one class at a time, scratch from make. TestModelsMatchTermByTerm holds
// Loss, Grad and Predict of the five models to their bits, and the HVP of
// the three closed forms (linear, logistic, softmax); what the change did
// not touch (AXPY, MatTVec, the convolution) is shared. The CNN's product,
// an R-operator pass with no earlier loop to match, is held to the Hessian
// by hvp_test.go.

// refDot rounds each product before its add, as tensor.Dot does.
func refDot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}

func refMatVec(X *tensor.Matrix, x []float64) []float64 {
	y := make([]float64, X.Rows)
	for i := range y {
		y[i] = refDot(X.Row(i), x)
	}
	return y
}

func refLogSumExp(z []float64) float64 {
	m := z[0]
	for _, v := range z[1:] {
		if v > m {
			m = v
		}
	}
	var s float64
	for _, v := range z {
		s += tensor.Exp(v - m)
	}
	return m + tensor.Log(s)
}

// refLinear is the shared body of the two generalized linear models: z = Xw
// (+ b), then a per-row residual and a per-row curvature.
type refLinear struct {
	Model
	d    int
	bias bool
}

func (m refLinear) z(X *tensor.Matrix, w []float64) []float64 {
	z := refMatVec(X, w[:m.d])
	if m.bias {
		for i := range z {
			z[i] += w[m.d]
		}
	}
	return z
}

// xt returns scale·Xᵀr with the bias coordinate scale·Σr.
func (m refLinear) xt(X *tensor.Matrix, r []float64, scale float64) []float64 {
	out := make([]float64, m.NumParams())
	gw := tensor.MatTVec(X, r)
	for i := 0; i < m.d; i++ {
		out[i] = scale * gw[i]
	}
	if m.bias {
		out[m.d] = scale * tensor.Sum(r)
	}
	return out
}

type refLinReg struct{ refLinear }

func (m refLinReg) residuals(X *tensor.Matrix, y []float64) []float64 {
	r := refMatVec(X, m.Params()[:m.d])
	var b float64
	if m.bias {
		b = m.Params()[m.d]
	}
	for i := range r {
		r[i] += b - y[i]
	}
	return r
}

func (m refLinReg) Loss(X *tensor.Matrix, y []float64) float64 {
	var s float64
	for _, v := range m.residuals(X, y) {
		s += float64(v * v)
	}
	return s / float64(X.Rows)
}

func (m refLinReg) Grad(X *tensor.Matrix, y []float64) []float64 {
	return m.xt(X, m.residuals(X, y), 2/float64(X.Rows))
}

func (m refLinReg) HVP(X *tensor.Matrix, y, v []float64) []float64 {
	return m.xt(X, m.z(X, v), 2/float64(X.Rows))
}

func (m refLinReg) predict(X *tensor.Matrix) any { return m.z(X, m.Params()) }

type refLogReg struct{ refLinear }

func (m refLogReg) Loss(X *tensor.Matrix, y []float64) float64 {
	var s float64
	for i, zi := range m.z(X, m.Params()) {
		if zi >= 0 {
			s += tensor.Log1p(tensor.Exp(-zi)) + float64((1-y[i])*zi)
		} else {
			s += tensor.Log1p(tensor.Exp(zi)) - float64(y[i]*zi)
		}
	}
	return s / float64(len(y))
}

func (m refLogReg) Grad(X *tensor.Matrix, y []float64) []float64 {
	r := m.z(X, m.Params())
	for i, zi := range r {
		r[i] = sigmoid(zi) - y[i]
	}
	return m.xt(X, r, 1/float64(len(y)))
}

func (m refLogReg) HVP(X *tensor.Matrix, y, v []float64) []float64 {
	xv := m.z(X, v)
	for i, zi := range m.z(X, m.Params()) {
		p := sigmoid(zi)
		xv[i] *= p * (1 - p)
	}
	return m.xt(X, xv, 1/float64(X.Rows))
}

func (m refLogReg) predict(X *tensor.Matrix) any {
	out := make([]int, X.Rows)
	for i, zi := range m.z(X, m.Params()) {
		if zi >= 0 {
			out[i] = 1
		}
	}
	return out
}

// refHeadLoss is the softmax cross-entropy on top of a per-row logit
// function, as SoftmaxRegression and CNN each spelled it out.
func refHeadLoss(X *tensor.Matrix, y []float64, logits func(x []float64) []float64) float64 {
	var s float64
	for i := 0; i < X.Rows; i++ {
		z := logits(X.Row(i))
		s += refLogSumExp(z) - z[int(y[i])]
	}
	return s / float64(X.Rows)
}

func refHeadPredict(X *tensor.Matrix, logits func(x []float64) []float64) any {
	out := make([]int, X.Rows)
	for i := range out {
		out[i] = tensor.Argmax(logits(X.Row(i)))
	}
	return out
}

// refDz returns softmax(z) − onehot(label).
func refDz(z []float64, label int) []float64 {
	lse := refLogSumExp(z)
	dz := make([]float64, len(z))
	for k := range z {
		dz[k] = tensor.Exp(z[k] - lse)
		if k == label {
			dz[k]--
		}
	}
	return dz
}

type refSoftmax struct{ *SoftmaxRegression }

func (m refSoftmax) logits(x []float64) []float64 {
	z := make([]float64, m.c)
	for k := range z {
		z[k] = refDot(m.params[k*m.d:(k+1)*m.d], x) + m.params[m.c*m.d+k]
	}
	return z
}

func (m refSoftmax) Loss(X *tensor.Matrix, y []float64) float64 {
	return refHeadLoss(X, y, m.logits)
}

func (m refSoftmax) Grad(X *tensor.Matrix, y []float64) []float64 {
	g := make([]float64, m.NumParams())
	gb := g[m.c*m.d:]
	for i := 0; i < X.Rows; i++ {
		x := X.Row(i)
		for k, p := range refDz(m.logits(x), int(y[i])) {
			tensor.AXPY(p, x, g[k*m.d:(k+1)*m.d])
			gb[k] += p
		}
	}
	tensor.Scale(1/float64(X.Rows), g)
	return g
}

func (m refSoftmax) HVP(X *tensor.Matrix, y, v []float64) []float64 {
	dir := refSoftmax{&SoftmaxRegression{d: m.d, c: m.c, params: v}}
	out := make([]float64, m.NumParams())
	ob := out[m.c*m.d:]
	for i := 0; i < X.Rows; i++ {
		x := X.Row(i)
		p, u := m.logits(x), dir.logits(x)
		lse := refLogSumExp(p)
		var s float64
		for k := range p {
			p[k] = tensor.Exp(p[k] - lse)
			s += float64(p[k] * u[k])
		}
		for k, pk := range p {
			r := float64(pk * (u[k] - s))
			tensor.AXPY(r, x, out[k*m.d:(k+1)*m.d])
			ob[k] += r
		}
	}
	tensor.Scale(1/float64(X.Rows), out)
	return out
}

func (m refSoftmax) predict(X *tensor.Matrix) any { return refHeadPredict(X, m.logits) }

// refCNN shares the convolution and pooling with the model (CNN.forward
// fills them) and recomputes the dense head — the layer that moved — term by
// term.
type refCNN struct{ *CNN }

func (m refCNN) forward(x []float64) *fwdState {
	st := m.newState()
	m.CNN.forward(x, st)
	_, _, w, b := m.slices()
	for k := range st.logits {
		st.logits[k] = refDot(w[k*m.flat:(k+1)*m.flat], st.pooled) + b[k]
	}
	return st
}

func (m refCNN) logits(x []float64) []float64 { return m.forward(x).logits }

func (m refCNN) Loss(X *tensor.Matrix, y []float64) float64 {
	return refHeadLoss(X, y, m.logits)
}

func (m refCNN) Grad(X *tensor.Matrix, y []float64) []float64 {
	_, _, w, _ := m.slices()
	g := make([]float64, m.NumParams())
	fk := m.f * m.k * m.k
	gFilters := g[:fk]
	gfb := g[fk : fk+m.f]
	gw := g[fk+m.f : fk+m.f+m.c*m.flat]
	gb := g[fk+m.f+m.c*m.flat:]
	dPooled := make([]float64, m.flat)
	co := m.convOut
	for i := 0; i < X.Rows; i++ {
		x := X.Row(i)
		st := m.forward(x)
		tensor.Zero(dPooled)
		for k, dzk := range refDz(st.logits, int(y[i])) {
			tensor.AXPY(dzk, st.pooled, gw[k*m.flat:(k+1)*m.flat])
			gb[k] += dzk
			tensor.AXPY(dzk, w[k*m.flat:(k+1)*m.flat], dPooled)
		}
		for cell, idx := range st.argmax {
			if idx < 0 || dPooled[cell] == 0 {
				continue
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
	tensor.Scale(1/float64(X.Rows), g)
	return g
}

func (m refCNN) predict(X *tensor.Matrix) any { return refHeadPredict(X, m.logits) }

// refModel is a reference: a Model (refCNN takes its HVP from the model it
// embeds) with the model's Predict under one signature.
type refModel interface {
	Model
	predict(X *tensor.Matrix) any
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestModelsMatchTermByTerm: batches of 1…9 rows cover every split into
// four-row blocks and a tail; 2, 3 and 10 classes every split of the class
// lanes; 17 classes the scratch that no longer fits the stack array.
func TestModelsMatchTermByTerm(t *testing.T) {
	const d = 9 // 3×3 images for the CNN
	rng := tensor.NewRNG(22)
	type subject struct {
		name    string
		model   Model
		ref     refModel
		predict func(X *tensor.Matrix) any
		classes int  // 0: regression targets
		hvp     bool // the reference spells out its own HVP
	}
	var subjects []subject
	for _, bias := range []bool{false, true} {
		lin := NewLinearRegression(d, bias)
		subjects = append(subjects, subject{fmt.Sprintf("linreg bias=%v", bias), lin,
			refLinReg{refLinear{lin, d, bias}}, func(X *tensor.Matrix) any { return lin.Predict(X) }, 0, true})
		lg := NewLogisticRegression(d, bias)
		subjects = append(subjects, subject{fmt.Sprintf("logreg bias=%v", bias), lg,
			refLogReg{refLinear{lg, d, bias}}, func(X *tensor.Matrix) any { return lg.Predict(X) }, 2, true})
	}
	for _, c := range []int{2, 3, 10, 17} {
		sm := NewSoftmaxRegression(d, c)
		subjects = append(subjects, subject{fmt.Sprintf("softmax c=%d", c), sm,
			refSoftmax{sm}, func(X *tensor.Matrix) any { return sm.Predict(X) }, c, true})
		cnn := NewCNN(3, 2, 3, c, rng)
		subjects = append(subjects, subject{fmt.Sprintf("cnn c=%d", c), cnn,
			refCNN{cnn}, func(X *tensor.Matrix) any { return cnn.Predict(X) }, c, false})
	}
	for _, s := range subjects {
		rng.Normal(s.model.Params(), 0, 0.7)
		for rows := 1; rows <= 9; rows++ {
			X, y := randBatch(rng, rows, d)
			if s.classes > 0 {
				X, y = randClassBatch(rng, rows, d, s.classes)
			}
			v := rng.NormalVec(s.model.NumParams(), 0, 1)
			if got, want := s.model.Loss(X, y), s.ref.Loss(X, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s, %d rows: Loss %v, term by term %v", s.name, rows, got, want)
			}
			if !sameBits(s.model.Grad(X, y), s.ref.Grad(X, y)) {
				t.Errorf("%s, %d rows: Grad differs from the term-by-term reference", s.name, rows)
			}
			if s.hvp && !sameBits(s.model.HVP(X, y, v), s.ref.HVP(X, y, v)) {
				t.Errorf("%s, %d rows: HVP differs from the term-by-term reference", s.name, rows)
			}
			if got, want := s.predict(X), s.ref.predict(X); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %d rows: Predict %v, term by term %v", s.name, rows, got, want)
			}
		}
	}
}

// TestLogSumExpMatchesExpOfZero: adding the maximum's term as 1 instead of
// computing exp(0) leaves the bits — with the maximum tied, at ±0, infinite,
// beside a NaN, or alone.
func TestLogSumExpMatchesExpOfZero(t *testing.T) {
	inf, nan, neg0 := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	rows := [][]float64{
		{1.5}, {0}, {neg0}, {inf}, {-inf}, {nan},
		{1, 2, 3}, {3, 3, 3}, {-2, 7, 7, 1}, {7, -2, 1, 7},
		{0, neg0}, {neg0, 0}, {neg0, neg0, -1}, {0, neg0, 0, 1e-300},
		{inf, 1}, {1, inf}, {inf, inf}, {inf, inf, inf}, {-inf, 0}, {-inf, -inf}, {inf, -inf},
		{nan, 1}, {1, nan}, {1, nan, 1}, {nan, nan}, {nan, inf}, {inf, nan}, {-inf, nan},
		{700, -700}, {1e-320, 0}, {-745, 0, 709},
	}
	rng := tensor.NewRNG(5)
	for n := 1; n <= 12; n++ {
		rows = append(rows, rng.NormalVec(n, 0, 30))
	}
	for _, z := range rows {
		got, want := tensor.LogSumExp(z), refLogSumExp(z)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("tensor.LogSumExp(%v) = %v (%#x), with exp(0) computed %v (%#x)", z,
				got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestLossScratchStaysOffTheHeap: the logit scratch of Loss is a stack
// array — for the softmax model up to an eight-row block of sixteen
// classes — so Loss allocates nothing and stays re-entrant on a shared
// model.
func TestLossScratchStaysOffTheHeap(t *testing.T) {
	rng := tensor.NewRNG(8)
	X, y := randClassBatch(rng, 9, 6, 10)
	for name, m := range map[string]Model{
		"softmax":            NewSoftmaxRegression(6, 10),
		"softmax 16 classes": NewSoftmaxRegression(6, 16),
	} {
		rng.Normal(m.Params(), 0, 0.5)
		if a := testing.AllocsPerRun(20, func() { m.Loss(X, y) }); a != 0 {
			t.Errorf("%s: Loss allocates %v times a call, want 0", name, a)
		}
		want := m.Loss(X, y)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if got := m.Loss(X, y); got != want {
						t.Errorf("%s: concurrent Loss %v, alone %v", name, got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

var benchSink float64
