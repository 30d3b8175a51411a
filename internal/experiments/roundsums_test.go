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
// printed by the one-vector-at-a-time loops, three seeds each. The three
// pins that train on the buffered aggregate were printed again once it took
// the fold's order — Σ r_k·δ_k from zero, then one scale by 1/Σ r — and the
// linear-model sweep once the softmax HVP became exact and joined it; the
// rest were left as the loops printed them. The linear-model and gtg/tmc
// pins moved once when every exp and log became tensor's own on amd64's
// plain exp sequence, and back when tensor.Exp took the FMA sequence with
// math.FMA: each is the hash of commit fdf370f, which math.Exp's FMA
// sequence printed.
func TestRoundSumsPinned(t *testing.T) {
	for _, pin := range []struct {
		name string
		run  func(t *testing.T, seed int64) []byte
		want [3]string
	}{
		{"quarantine 64×2000", pinQuarantineRun, [3]string{
			"aab50d44dc8add8a919c0b67aaa9a011830ed15bfae92e4926193e790d728d7a",
			"3cb34f10eaf74500df8ffb9dc61a61e536b88301a11ea6b73b8422d83e6f16a5",
			"55066edbeef73db189a6c47c160fc705616c278e0ac5d2c3d86cb97640f6b57c",
		}},
		{"uniform degraded", pinUniformRun, [3]string{
			"6e27ecc010cdab9c9b4a3259e8661ce00c2e271361a6d6f8c5dc76c78b725a50",
			"23f3c907c528f2c7240e152472f94cafea8ae1b95d1ea00d08c072022742afe7",
			"6c97f88907bad5b8c5b42cb39a977f8e425c7840c2033549a1f1f102c5a91857",
		}},
		{"linear models", pinModelSweep, [3]string{
			"fd08a035b16bf9ba3fc97fe7514845d0b8351781b6091e7864d05a09d4aa0b96",
			"07ed4098bb8cb140d730311bb2b98f3fd25295f6b2a891de061f110c2e2a6ff1",
			"3f99fb4678b19144ab26d5489b30927dd4b31442c91a11a65dafd9224598fb9b",
		}},
		{"gtg/tmc softmax", pinEngineTotals, [3]string{
			"68d636e272cd58571581667f7c4787941ca2f15fd3a9ef2c1ad38c40ee100629",
			"d9d07cdfbf82fa5ef0d4e556682652b767797f7e45063c3ab415e5884e2901d6",
			"f1e434d3e532c4d11ff7ce0fb0e3d74115f1dc70e647528388e29460ab727c1d",
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
// without a bias, and of the softmax, over 1…9 rows at three widths.
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
				h.floats(m.HVP(X, labels, rng.NormalVec(m.NumParams(), 0, 1))...)
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
