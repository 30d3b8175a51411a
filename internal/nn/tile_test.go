package nn

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	_ "unsafe" // go:linkname

	"digfl/internal/tensor"
)

// useAVX2 is tensor's switch between Dot4xN's AVX2 tile and its portable
// loop, and expPath its choice between LogSumExp4's and ExpShift4's AVX2
// kernel (1 or 2, the exp sequence math.Exp runs) and math.Exp one value at
// a time (0), reached here so that the model's own calls can be run on each.
//
//go:linkname useAVX2 digfl/internal/tensor.useAVX2
var useAVX2 bool

//go:linkname expPath digfl/internal/tensor.expPath
var expPath uint8

// onTilePaths runs f with the AVX2 kernels tensor chose at init, where the
// host has them: "avx2" with all of them, "avx2-scalar-exp" with the logit
// tile and math.Exp; and "portable" with neither.
func onTilePaths(t testing.TB, f func(path string)) {
	tile, exp := useAVX2, expPath
	defer func() { useAVX2, expPath = tile, exp }()
	if tile && exp != 0 {
		f("avx2")
		expPath = 0
		f("avx2-scalar-exp")
	} else {
		t.Log("no AVX2 on this host: the portable path only")
	}
	useAVX2, expPath = false, 0
	f("portable")
}

// TestSoftmaxTilePathsSameBits: Loss, Grad, HVP and Predict of the softmax
// model give the same bits with the AVX2 kernels — Dot4xN's tile, and
// LogSumExp4's and ExpShift4's exp — with the tile alone, and on the
// portable loops, for 1…17 classes (17 takes the heap scratch) and batches
// of 1…9 rows (every split into four-row blocks and a tail), at parameters
// whose logits are spread, so the exps are paid; and on each path Loss
// allocates nothing and HVP only its result.
func TestSoftmaxTilePathsSameBits(t *testing.T) {
	const d = 7
	rng := tensor.NewRNG(40)
	for c := 1; c <= 17; c++ {
		m := NewSoftmaxRegression(d, c)
		rng.Normal(m.Params(), 0, 2)
		for rows := 1; rows <= 9; rows++ {
			X, y := randClassBatch(rng, rows, d, c)
			v := rng.NormalVec(m.NumParams(), 0, 1)
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
			at := fmt.Sprintf("c=%d, %d rows", c, rows)
			p := got["portable"]
			for path, a := range got {
				if c <= 16 && (a.lossAllocs != 0 || a.hvpAllocs != 1) {
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
