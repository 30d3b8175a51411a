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
// loop, reached here so that the model's own calls can be run on both.
//
//go:linkname useAVX2 digfl/internal/tensor.useAVX2
var useAVX2 bool

// onTilePaths runs f once with Dot4xN on the AVX2 tile, where the host
// has it, and once on the portable loop.
func onTilePaths(t testing.TB, f func(path string)) {
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	if saved {
		f("avx2")
	} else {
		t.Log("no AVX2 on this host: the portable path only")
	}
	useAVX2 = false
	f("portable")
}

// TestSoftmaxTilePathsSameBits: Loss, Grad, HVP and Predict of the softmax
// model give the same bits on Dot4xN's AVX2 tile and on its portable loop —
// for 2, 3, 10, 16 and 17 classes (17 takes the heap scratch) and batches of
// 1…9 rows (every split into four-row blocks and a tail) — and on both
// Loss allocates nothing and HVP only its result.
func TestSoftmaxTilePathsSameBits(t *testing.T) {
	const d = 7
	rng := tensor.NewRNG(40)
	for _, c := range []int{2, 3, 10, 16, 17} {
		m := NewSoftmaxRegression(d, c)
		rng.Normal(m.Params(), 0, 0.7)
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
			if c <= 16 && (p.lossAllocs != 0 || p.hvpAllocs != 1) {
				t.Errorf("%s, portable: Loss allocates %v, HVP %v times a call, want 0 and 1", at, p.lossAllocs, p.hvpAllocs)
			}
			a, ok := got["avx2"]
			if !ok {
				continue
			}
			if c <= 16 && (a.lossAllocs != 0 || a.hvpAllocs != 1) {
				t.Errorf("%s, avx2: Loss allocates %v, HVP %v times a call, want 0 and 1", at, a.lossAllocs, a.hvpAllocs)
			}
			if math.Float64bits(a.loss) != math.Float64bits(p.loss) {
				t.Errorf("%s: Loss %v on the tile, %v on the portable loop", at, a.loss, p.loss)
			}
			if !sameBits(a.grad, p.grad) {
				t.Errorf("%s: Grad differs between the tile and the portable loop", at)
			}
			if !sameBits(a.hvp, p.hvp) {
				t.Errorf("%s: HVP differs between the tile and the portable loop", at)
			}
			if !reflect.DeepEqual(a.predict, p.predict) {
				t.Errorf("%s: Predict %v on the tile, %v on the portable loop", at, a.predict, p.predict)
			}
		}
	}
}

// BenchmarkSoftmaxLoss is the audit engines' utility evaluation on both of
// Dot4xN's paths: the validation loss of a 10-class softmax on 400 rows of
// 64 features, at parameters fitted to the batch by gradient descent — their
// logits are spread, so every row's logSumExp pays its exps, as the audit's
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
