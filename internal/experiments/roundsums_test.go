package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"digfl/internal/core"
	"digfl/internal/dataset"
	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/robust"
	"digfl/internal/shapley"
	"digfl/internal/tensor"
)

// TestRoundSumsPinned holds every sum a round takes over a list of vectors —
// the estimator's and the quarantine's φ dots, the buffered aggregate, Xᵀr
// under the linear models' gradients, the softmax gradient, a coalition's
// reconstructed model — to the float bits they had when each was still one
// Dot or one AXPY per vector. Each run's θ, loss curve, φ totals and ban
// list (or the sweep's outputs) are hashed with SHA-256; the digests were
// printed by the one-vector-at-a-time loops, three seeds each.
func TestRoundSumsPinned(t *testing.T) {
	for _, pin := range []struct {
		name string
		run  func(t *testing.T, seed int64) []byte
		want [3]string
	}{
		{"quarantine 64×2000", pinQuarantineRun, [3]string{
			"4300591ae2939512accfa6c4ea5b3ccd8dbbb052463a41cbb5f413d66fc96ed0",
			"80e477e4a5493e0916b353d37ceb2804d1137a89d000146af2b5c29476af0e53",
			"e61025f21c4c6c4101287e663ee0418bf2b4f48d470690f2eda8493cd7f4c1c8",
		}},
		{"uniform degraded", pinUniformRun, [3]string{
			"f2a41c7cc0a9396292932b355834d9bb2fad64ff291db46cd39072aae93f832a",
			"3c7b06593331e8955f26002a1f64326baad0a15b0dc1755abc1134204d6bcde3",
			"f881b1436ca5f7012376c0fc2e358afc29f9a0d07c24c903bd92c2b14d141a78",
		}},
		{"linear models", pinModelSweep, [3]string{
			"511b685939b0fa6bce36e0544490852556fb061a46ab361777c8f64c7e2943f1",
			"2de61f14a69dbe6c8bc4900966c03f9af518439f72024d064735dd90e51ba4f1",
			"ca2471f54dcf434a74f90e293ee8cc02826eed0a2b3cb027387abd34ce2dcfb5",
		}},
		{"gtg/tmc softmax", pinEngineTotals, [3]string{
			"e5b426ccbb12aad7bd5efb74f716b41e561a12144fc48fbfe9ba87d63d4ffb5d",
			"1af5f2571025c877e5c26b3f4c06c773c028bef0c5f305f7f486d605a8e5eaa4",
			"633d91f60a88df59f4ca9e36cf8882c8dba91458e889bbef090087a4e3926a71",
		}},
	} {
		for s, want := range pin.want {
			seed := int64(s + 1)
			if got := hex.EncodeToString(pin.run(t, seed)); got != want {
				t.Errorf("%s, seed %d: SHA-256 of the float bits %s, pinned %s", pin.name, seed, got, want)
			}
		}
	}
}

// bitsHash accumulates float bits and integers in a fixed byte order.
type bitsHash struct{ buf []byte }

func (h *bitsHash) floats(v ...float64) {
	for _, x := range v {
		h.buf = binary.LittleEndian.AppendUint64(h.buf, math.Float64bits(x))
	}
}

func (h *bitsHash) ints(v ...int) {
	for _, x := range v {
		h.buf = binary.LittleEndian.AppendUint64(h.buf, uint64(x))
	}
}

func (h *bitsHash) sum() []byte {
	s := sha256.Sum256(h.buf)
	return s[:]
}

// pinSource hands the trainer seeded updates: participant i's round-t delta
// is a small step along the initial validation gradient g — against it for
// every eighth participant — plus noise, so that φ has a sign to act on.
// degrade[t] keeps only every stride-th active participant in round t.
type pinSource struct {
	seed    int64
	g       []float64
	degrade map[int]int
}

func (s *pinSource) Round(_ context.Context, spec *hfl.RoundSpec) (*hfl.RoundResult, error) {
	res := &hfl.RoundResult{}
	reported := spec.Active
	if stride := s.degrade[spec.T]; stride > 0 {
		reported = nil
		for k, i := range spec.Active {
			if k%stride == 0 {
				reported = append(reported, i)
			}
		}
		res.Reported = reported
	}
	for _, i := range reported {
		rng := tensor.NewRNG(s.seed*1_000_003 + int64(spec.T)*1009 + int64(i))
		d := rng.NormalVec(len(s.g), 0, 1/math.Sqrt(float64(len(s.g))))
		sign := 0.5
		if i%8 == 7 {
			sign = -0.5
		}
		tensor.AXPY(sign, s.g, d)
		tensor.Scale(1e-3, d)
		res.Deltas = append(res.Deltas, d)
	}
	return res, nil
}

// pinFederation is a d-feature regression federation of n participants fed
// by a pinSource.
func pinFederation(seed int64, n, d, epochs int, degrade map[int]int) *hfl.Trainer {
	val := dataset.SynthTabular(dataset.TabularConfig{
		Name: "pinval", N: 24, D: d, Task: dataset.Regression,
		Informative: 8, Noise: 0.3, Seed: seed,
	})
	g := nn.NewLinearRegression(d, false).Grad(val.X, val.Y)
	tensor.Scale(1/tensor.Norm2(g), g)
	return &hfl.Trainer{
		Model:  nn.NewLinearRegression(d, false),
		Val:    val,
		Cfg:    hfl.Config{Epochs: epochs, LR: 0.05, Participants: n, KeepLog: true},
		Rounds: &pinSource{seed: seed, g: g, degrade: degrade},
	}
}

func pinRun(t *testing.T, tr *hfl.Trainer) *hfl.Result {
	t.Helper()
	res, err := tr.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// pinQuarantineRun: 64 participants at d = 2000, buffered, under the
// contribution-guided quarantine with an estimator attached — eight
// attackers, rectified to weight 0 from the first round and banned after
// Patience rounds — and again with the first-order projection in its place.
func pinQuarantineRun(t *testing.T, seed int64) []byte {
	const n, d = 64, 2000
	var h bitsHash
	for _, withEstimator := range []bool{true, false} {
		tr := pinFederation(seed, n, d, 6, nil)
		q := robust.MustNewQuarantine(robust.Quarantine{})
		var est *core.HFLEstimator
		if withEstimator {
			est = core.NewHFLEstimator(n, d, core.ResourceSaving, nil)
			q.Estimator = est
		}
		tr.Reweighter = q
		res := pinRun(t, tr)
		zeros := 0
		for _, w := range res.Log[0].Weights {
			if w == 0 {
				zeros++
			}
		}
		banned := q.Quarantined()
		if zeros == 0 || len(banned) == 0 {
			t.Fatalf("seed %d: %d zero weights in round 1 and %d bans; the pin needs both", seed, zeros, len(banned))
		}
		h.floats(res.Model.Params()...)
		h.floats(res.ValLossCurve...)
		if est != nil {
			h.floats(est.Attribution().Totals...)
		}
		h.ints(banned...)
	}
	return h.sum()
}

// pinUniformRun: 13 participants, the plain buffered mean, with a round that
// degrades to every third reporter and one that keeps a single reporter, φ
// from a resource-saving estimator.
func pinUniformRun(t *testing.T, seed int64) []byte {
	const n, d = 13, 2000
	tr := pinFederation(seed, n, d, 6, map[int]int{2: 3, 4: 13})
	est := core.NewHFLEstimator(n, d, core.ResourceSaving, nil)
	tr.Observer = func(ep *hfl.Epoch) { est.Observe(ep) }
	res := pinRun(t, tr)
	if len(res.Log[1].Deltas) != 5 || len(res.Log[3].Deltas) != 1 {
		t.Fatalf("seed %d: degraded rounds kept %d and %d deltas, want 5 and 1", seed, len(res.Log[1].Deltas), len(res.Log[3].Deltas))
	}
	var h bitsHash
	h.floats(res.Model.Params()...)
	h.floats(res.ValLossCurve...)
	h.floats(est.Attribution().Totals...)
	return h.sum()
}

// pinModelSweep: Grad and HVP of logistic and linear regression, with and
// without a bias, and the softmax gradient, over 1…9 rows at three widths.
func pinModelSweep(t *testing.T, seed int64) []byte {
	rng := tensor.NewRNG(seed)
	var h bitsHash
	for _, d := range []int{1, 7, 64} {
		for rows := 1; rows <= 9; rows++ {
			X := tensor.NewMatrix(rows, d)
			rng.Normal(X.Data, 0, 1)
			y := make([]float64, rows)
			for i := range y {
				y[i] = float64(rng.Intn(3))
			}
			models := []nn.Model{nn.NewSoftmaxRegression(d, 3)}
			for _, bias := range []bool{false, true} {
				models = append(models, nn.NewLogisticRegression(d, bias), nn.NewLinearRegression(d, bias))
			}
			for _, m := range models {
				rng.Normal(m.Params(), 0, 0.7)
				labels := y
				if _, logistic := m.(*nn.LogisticRegression); logistic {
					labels = make([]float64, rows)
					for i, v := range y {
						labels[i] = math.Min(v, 1)
					}
				}
				h.floats(m.Grad(X, labels)...)
				if hv, ok := m.(nn.HVPer); ok {
					h.floats(hv.HVP(X, labels, rng.NormalVec(m.NumParams(), 0, 1))...)
				}
			}
		}
	}
	return h.sum()
}

// pinEngineTotals: gtg and tmc over a six-participant softmax training log,
// one participant mislabeled.
func pinEngineTotals(t *testing.T, seed int64) []byte {
	rng := tensor.NewRNG(seed)
	train, val := dataset.MNISTLike(480, seed).Split(0.25, rng)
	parts := dataset.PartitionIID(train, 6, rng)
	parts[2] = dataset.Mislabel(parts[2], 0.6, rng)
	tr := &hfl.Trainer{
		Model: nn.NewSoftmaxRegression(train.Dim(), train.Classes),
		Parts: parts, Val: val,
		Cfg: hfl.Config{Epochs: 3, LR: 0.3, KeepLog: true},
	}
	res := pinRun(t, tr)
	var h bitsHash
	for _, name := range []string{"gtg", "tmc"} {
		m := tr.Model.Clone()
		eng, err := shapley.NewEngine(name, shapley.EngineSpec{N: len(parts), Seed: seed,
			Loss: func(theta []float64) float64 { m.SetParams(theta); return m.Loss(val.X, val.Y) }})
		if err != nil {
			t.Fatal(err)
		}
		for _, ep := range res.Log {
			eng.Observe(ep)
		}
		rep := eng.Finalize()
		h.floats(rep.Totals...)
		h.ints(int(rep.Cost.UtilityEvals))
	}
	return h.sum()
}
