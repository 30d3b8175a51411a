package nn

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	_ "unsafe" // go:linkname

	"digfl/internal/tensor"
)

// useAVX512 and useAVX2 are tensor's switches between Dot8xN's AVX-512 tile
// (with the kernels of LogSumExp8 and ExpShift8), Dot4xN's AVX2 tile (with
// the exp kernels of LogSumExp4 and ExpShift4) and the portable loops,
// reached here so that the model's own calls can be run on each.
//
//go:linkname useAVX2 digfl/internal/tensor.useAVX2
var useAVX2 bool

//go:linkname useAVX512 digfl/internal/tensor.useAVX512
var useAVX512 bool

// onTilePaths runs f with the kernels tensor chose at init, where the host
// has them: "avx512" with all of them, "avx2" with the AVX2 ones (Dot8xN,
// LogSumExp8 and ExpShift8 as two four-row kernels), and "portable" with
// none.
func onTilePaths(t testing.TB, f func(path string)) {
	tile, wide := useAVX2, useAVX512
	defer func() { useAVX2, useAVX512 = tile, wide }()
	if wide {
		f("avx512")
	} else {
		t.Log("no AVX-512F on this host: the AVX-512 path skipped")
	}
	useAVX512 = false
	if tile {
		f("avx2")
	} else {
		t.Log("no AVX2 on this host: the portable path only")
	}
	useAVX2 = false
	f("portable")
}

// TestSoftmaxTilePathsSameBits: Loss, Grad, HVP and Predict of the softmax
// model give the same bits on every path of onTilePaths, for 1…17 classes
// (17 takes the heap scratch) and batches of 1…17 rows (every split into
// eight-row blocks, a four-row block and single rows), at parameters whose
// logits are spread, so the exps are paid; and on each path Loss allocates
// nothing and HVP only its result.
func TestSoftmaxTilePathsSameBits(t *testing.T) {
	const d = 7
	rng := tensor.NewRNG(40)
	for c := 1; c <= 17; c++ {
		m := NewSoftmaxRegression(d, c)
		rng.Normal(m.Params(), 0, 2)
		for rows := 1; rows <= 9; rows++ {
			X, y := randClassBatch(rng, rows, d, c)
			checkSoftmaxPaths(t, m, X, y, rng.NormalVec(m.NumParams(), 0, 1))
		}
	}
	rng = tensor.NewRNG(44)
	for c := 1; c <= 17; c++ {
		m := NewSoftmaxRegression(d, c)
		rng.Normal(m.Params(), 0, 2)
		for rows := 10; rows <= 17; rows++ {
			X, y := randClassBatch(rng, rows, d, c)
			checkSoftmaxPaths(t, m, X, y, rng.NormalVec(m.NumParams(), 0, 1))
		}
	}
}

// checkSoftmaxPaths runs m's Loss, Grad, HVP along v and Predict on every
// path of onTilePaths and wants each path's bits to be the portable loops',
// Loss to allocate nothing and HVP only its result where the scratch fits
// on the stack.
func checkSoftmaxPaths(t *testing.T, m *SoftmaxRegression, X *tensor.Matrix, y, v []float64) {
	t.Helper()
	type result struct {
		loss       float64
		grad, hvp  []float64
		predict    []int
		lossAllocs float64
		hvpAllocs  float64
	}
	got := map[string]result{}
	onTilePaths(t, func(path string) {
		got[path] = result{
			loss:       m.Loss(X, y),
			grad:       m.Grad(X, y),
			hvp:        m.HVP(X, y, v),
			predict:    m.Predict(X),
			lossAllocs: testing.AllocsPerRun(5, func() { m.Loss(X, y) }),
			hvpAllocs:  testing.AllocsPerRun(5, func() { m.HVP(X, y, v) }),
		}
	})
	at := fmt.Sprintf("c=%d, %d rows", m.Classes(), X.Rows)
	p := got["portable"]
	for path, a := range got {
		if m.Classes() <= 16 && (a.lossAllocs != 0 || a.hvpAllocs != 1) {
			t.Errorf("%s, %s: Loss allocates %v, HVP %v times a call, want 0 and 1", at, path, a.lossAllocs, a.hvpAllocs)
		}
		if math.Float64bits(a.loss) != math.Float64bits(p.loss) {
			t.Errorf("%s: Loss %v on %s, %v on the portable loops", at, a.loss, path, p.loss)
		}
		if !sameBits(a.grad, p.grad) {
			t.Errorf("%s: Grad differs between %s and the portable loops", at, path)
		}
		if !sameBits(a.hvp, p.hvp) {
			t.Errorf("%s: HVP differs between %s and the portable loops", at, path)
		}
		if !reflect.DeepEqual(a.predict, p.predict) {
			t.Errorf("%s: Predict %v on %s, %v on the portable loops", at, a.predict, path, p.predict)
		}
	}
}

// BenchmarkSoftmaxLoss is the audit engines' utility evaluation on each of
// onTilePaths' paths: the validation loss of a 10-class softmax on 400 rows
// of 64 features, at parameters fitted to the batch by gradient descent —
// their logits are spread, so every row's log-sum-exp pays its exps, as the audit's
// trained models do (an all-zero θ, whose logits are all 0, pays none).
func BenchmarkSoftmaxLoss(b *testing.B) {
	rng := tensor.NewRNG(64)
	m := NewSoftmaxRegression(64, 10)
	X, y := randClassBatch(rng, 400, 64, 10)
	for step := 0; step < 30; step++ {
		tensor.AXPY(-1, m.Grad(X, y), m.Params())
	}
	want := refSoftmax{m}.Loss(X, y)
	onTilePaths(b, func(path string) {
		b.Run("400x64x10/"+path, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = m.Loss(X, y)
			}
			if math.Float64bits(benchSink) != math.Float64bits(want) {
				b.Fatalf("Loss = %v, term by term %v", benchSink, want)
			}
		})
	})
}
