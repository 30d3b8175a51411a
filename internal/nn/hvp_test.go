package nn

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"digfl/internal/tensor"
)

// fdHVP is the test oracle for every exact HVP: the central difference
// (∇L(θ+r·v) − ∇L(θ−r·v)) / (2r), with the step r = 1e-4/‖v‖ scaled so the
// perturbation stays where the linearization is accurate. Unlike HVP it
// writes θ ± r·v into the model it is handed, restoring θ afterwards.
func fdHVP(m Model, X *tensor.Matrix, y []float64, v []float64) []float64 {
	p := m.NumParams()
	checkDir(v, p)
	nv := tensor.Norm2(v)
	if nv == 0 {
		return make([]float64, p)
	}
	r := 1e-4 / nv
	theta := tensor.Clone(m.Params())
	defer m.SetParams(theta)

	plus := tensor.Clone(theta)
	tensor.AXPY(r, v, plus)
	m.SetParams(plus)
	gPlus := m.Grad(X, y)

	minus := tensor.Clone(theta)
	tensor.AXPY(-r, v, minus)
	m.SetParams(minus)
	gMinus := m.Grad(X, y)

	out := tensor.Sub(gPlus, gMinus)
	tensor.Scale(1/(2*r), out)
	return out
}

// hvpCase is one model at a small shape, with a batch for it.
type hvpCase struct {
	name  string
	model Model
	X     *tensor.Matrix
	y     []float64
}

// hvpCases are the two models whose HVP is hand-derived here — the
// softmax closed form and the CNN R-operator pass — at small shapes: 7 rows
// (one four-row block and a three-row tail), 3 classes.
func hvpCases(seed int64) []hvpCase {
	rng := tensor.NewRNG(seed)
	const rows, c = 7, 3
	sm := NewSoftmaxRegression(5, c)
	rng.Normal(sm.Params(), 0, 0.7)
	cnn := NewCNN(6, 3, 2, c, rng.Split(2))
	Xs, ys := randClassBatch(rng, rows, 5, c)
	Xc, yc := randClassBatch(rng, rows, 36, c)
	return []hvpCase{
		{"softmax", sm, Xs, ys},
		{"cnn", cnn, Xc, yc},
	}
}

// closeTo reports whether got is within tol·(1 + |want|) of want everywhere.
func closeTo(got, want []float64, tol float64) (int, bool) {
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol*(1+math.Abs(want[i])) {
			return i, false
		}
	}
	return -1, len(got) == len(want)
}

// TestHVPMatchesExplicitHessian: H·e_j is column j of the Hessian built
// explicitly from central differences of Grad, (∇L(θ+h·e_j) −
// ∇L(θ−h·e_j))/2h with h = 1e-5, to 1e-6 relative — the differences'
// O(h²) truncation and O(ε/h) rounding are both below 1e-9 here.
func TestHVPMatchesExplicitHessian(t *testing.T) {
	const h, tol = 1e-5, 1e-6
	for _, c := range hvpCases(31) {
		m, p := c.model, c.model.NumParams()
		theta := tensor.Clone(m.Params())
		e := make([]float64, p)
		for j := 0; j < p; j++ {
			e[j] = 1
			got := m.HVP(c.X, c.y, e)
			e[j] = 0

			probe := m.Clone()
			shifted := tensor.Clone(theta)
			shifted[j] += h
			probe.SetParams(shifted)
			col := probe.Grad(c.X, c.y)
			shifted[j] -= 2 * h
			probe.SetParams(shifted)
			tensor.AXPY(-1, probe.Grad(c.X, c.y), col)
			tensor.Scale(1/(2*h), col)
			if i, ok := closeTo(got, col, tol); !ok {
				t.Fatalf("%s: (H·e_%d)[%d] = %g, explicit Hessian %g", c.name, j, i, got[i], col[i])
			}
		}
	}
}

// TestHVPMatchesFDOracle: on random directions the exact product agrees
// with the fdHVP oracle within its O(r²) error, r = 1e-4/‖v‖: to 1e-6
// relative.
func TestHVPMatchesFDOracle(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := tensor.NewRNG(100 + seed)
		for _, c := range hvpCases(seed) {
			v := rng.NormalVec(c.model.NumParams(), 0, 1)
			exact := c.model.HVP(c.X, c.y, v)
			fd := fdHVP(c.model, c.X, c.y, v)
			if i, ok := closeTo(exact, fd, 1e-6); !ok {
				t.Fatalf("%s, seed %d: HVP[%d] exact %g vs oracle %g", c.name, seed, i, exact[i], fd[i])
			}
		}
	}
}

// TestHVPSymmetric: the Hessian is symmetric, so uᵀ(H·v) = vᵀ(H·u) to
// rounding, 1e-12 relative to the terms' magnitude.
func TestHVPSymmetric(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := tensor.NewRNG(200 + seed)
		for _, c := range hvpCases(seed) {
			u := rng.NormalVec(c.model.NumParams(), 0, 1)
			v := rng.NormalVec(c.model.NumParams(), 0, 1)
			hu, hv := c.model.HVP(c.X, c.y, u), c.model.HVP(c.X, c.y, v)
			a, b := tensor.Dot(u, hv), tensor.Dot(v, hu)
			scale := tensor.Norm2(u) * tensor.Norm2(hv)
			if math.Abs(a-b) > 1e-12*scale {
				t.Fatalf("%s, seed %d: uᵀHv = %.17g, vᵀHu = %.17g", c.name, seed, a, b)
			}
		}
	}
}

// TestHVPSharedModelReadOnly: eight goroutines take products on one shared
// model at once; under -race that is a data race the moment HVP writes to
// it. Every product equals the lone one and the parameters keep their bits.
func TestHVPSharedModelReadOnly(t *testing.T) {
	rng := tensor.NewRNG(300)
	for _, c := range hvpCases(4) {
		before := tensor.Clone(c.model.Params())
		v := rng.NormalVec(c.model.NumParams(), 0, 1)
		want := c.model.HVP(c.X, c.y, v)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					if !sameBits(c.model.HVP(c.X, c.y, v), want) {
						t.Errorf("%s: concurrent HVP differs from the lone one", c.name)
						return
					}
				}
			}()
		}
		wg.Wait()
		if !sameBits(c.model.Params(), before) {
			t.Fatalf("%s: HVP changed the model's parameters", c.name)
		}
	}
}

// TestSoftmaxHVPAllocs: the softmax product's scratch is on the stack, so a
// call allocates its result and nothing else.
func TestSoftmaxHVPAllocs(t *testing.T) {
	rng := tensor.NewRNG(400)
	m := NewSoftmaxRegression(64, 10)
	rng.Normal(m.Params(), 0, 0.3)
	X, y := randClassBatch(rng, 250, 64, 10)
	v := rng.NormalVec(m.NumParams(), 0, 1)
	if a := testing.AllocsPerRun(20, func() { m.HVP(X, y, v) }); a != 1 {
		t.Fatalf("softmax HVP allocates %v times a call, want 1", a)
	}
}

// TestClassLabelsChecked: a label that is no class index — C, −1, 1.5 or
// NaN for C = 3 — panics with an nn: message in Loss, Grad and HVP of every
// multiclass model, and not deep inside a one-hot it matches no class of.
func TestClassLabelsChecked(t *testing.T) {
	for _, c := range hvpCases(5) {
		for _, bad := range []float64{3, -1, 1.5, math.NaN()} {
			y := tensor.Clone(c.y)
			y[len(y)-1] = bad
			v := make([]float64, c.model.NumParams())
			for name, call := range map[string]func(){
				"Loss": func() { c.model.Loss(c.X, y) },
				"Grad": func() { c.model.Grad(c.X, y) },
				"HVP":  func() { c.model.HVP(c.X, y, v) },
			} {
				msg := func() (msg string) {
					defer func() { msg = fmt.Sprint(recover()) }()
					call()
					return
				}()
				if !strings.HasPrefix(msg, "nn: label") {
					t.Errorf("%s.%s with label %v: panic %q, want an nn: label message", c.name, name, bad, msg)
				}
			}
		}
	}
}

// BenchmarkHVP times each hand-derived product against the fdHVP oracle it
// replaced, checking the two agree first: the softmax at the audit's shard
// shape (250 rows × 64 features × 10 classes), the CNN on the same rows as
// 8×8 images with four 3×3 filters.
func BenchmarkHVP(b *testing.B) {
	rng := tensor.NewRNG(500)
	sm := NewSoftmaxRegression(64, 10)
	rng.Normal(sm.Params(), 0, 0.3)
	cnn := NewCNN(8, 3, 4, 10, rng.Split(2))
	X, y := randClassBatch(rng, 250, 64, 10)
	for _, c := range []hvpCase{{"softmax", sm, X, y}, {"cnn", cnn, X, y}} {
		v := rng.NormalVec(c.model.NumParams(), 0, 1)
		if i, ok := closeTo(c.model.HVP(c.X, c.y, v), fdHVP(c.model, c.X, c.y, v), 1e-5); !ok {
			b.Fatalf("%s: exact HVP disagrees with the oracle at %d", c.name, i)
		}
		for _, arm := range []struct {
			name string
			hvp  func(Model, *tensor.Matrix, []float64, []float64) []float64
		}{{"exact", HVP}, {"fd", fdHVP}} {
			b.Run(c.name+"/"+arm.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSink = arm.hvp(c.model, c.X, c.y, v)[0]
				}
			})
		}
	}
}
