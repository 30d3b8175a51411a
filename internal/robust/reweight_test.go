package robust

import (
	"context"
	"math"
	"reflect"
	"testing"

	"digfl/internal/core"
	"digfl/internal/dataset"
	"digfl/internal/faults"
	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/sampling"
	"digfl/internal/tensor"
)

// The Σ r contract: a reweighter returns rectified numerators r_k and the
// trainer alone divides, aggregating (Σ r_k·δ_k)·(1/Σ r) and recording
// r_k/Σ r. Every check below is bit for bit, over three seeds.

var reweightSeeds = []int64{1, 2, 3}

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

// reweightTrainer is a five-participant softmax federation, two of them
// mislabeled.
func reweightTrainer(seed int64) *hfl.Trainer {
	parts, train, val := corruptedFederation(seed, 5, 2)
	return &hfl.Trainer{
		Model: nn.NewSoftmaxRegression(train.Dim(), train.Classes),
		Parts: parts,
		Val:   val,
		Cfg:   hfl.Config{Epochs: 6, LR: 0.3, KeepLog: true},
	}
}

// ascentSource hands every participant a step *up* the validation loss —
// δ_k[j] = −α·g[j]·(1 + u_kj/2) with g = ∇loss^v(θ_{t-1}) and u_kj ∈ [0, 1)
// seeded — so every φ_k = (1/|S|)·g·δ_k is negative.
type ascentSource struct {
	seed  int64
	model nn.Model
	val   dataset.Dataset
}

func (s *ascentSource) Round(_ context.Context, spec *hfl.RoundSpec) (*hfl.RoundResult, error) {
	s.model.SetParams(tensor.Clone(spec.Theta))
	g := s.model.Grad(s.val.X, s.val.Y)
	res := &hfl.RoundResult{}
	for _, i := range spec.Active {
		rng := tensor.NewRNG(s.seed*7919 + int64(spec.T)*31 + int64(i))
		d := make([]float64, len(g))
		for j, v := range g {
			d[j] = -spec.LR * v * (1 + float64(rng.Float64()/2))
		}
		res.Deltas = append(res.Deltas, d)
	}
	return res, nil
}

func ascentTrainer(seed int64) *hfl.Trainer {
	tr := reweightTrainer(seed)
	tr.Rounds = &ascentSource{seed: seed, model: tr.Model.Clone(), val: tr.Val}
	tr.Cfg.Participants, tr.Parts = len(tr.Parts), nil
	return tr
}

// bannedQuarantine is a Quarantine that starts with the given participants
// of n banned.
func bannedQuarantine(t *testing.T, n int, banned ...int) *Quarantine {
	t.Helper()
	q := MustNewQuarantine(Quarantine{})
	st := &QuarantineState{Ewma: make([]float64, n), Seen: make([]bool, n), Streak: make([]int, n), Banned: make([]bool, n)}
	for _, i := range banned {
		st.Banned[i] = true
	}
	if err := q.SetState(st); err != nil {
		t.Fatal(err)
	}
	return q
}

func runTrainer(t *testing.T, tr *hfl.Trainer) *hfl.Result {
	t.Helper()
	res, err := tr.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestQuarantineAllBannedFreezesModel: every reporter banned is Σ r = 0,
// and the round leaves θ exactly where it was.
func TestQuarantineAllBannedFreezesModel(t *testing.T) {
	for _, seed := range reweightSeeds {
		tr := reweightTrainer(seed)
		tr.Reweighter = bannedQuarantine(t, len(tr.Parts), 0, 1, 2, 3, 4)
		res := runTrainer(t, tr)
		theta0 := tr.Model.Params()
		if !sameBits(res.Model.Params(), theta0) {
			t.Fatalf("seed %d: an all-banned run moved θ", seed)
		}
		for _, ep := range res.Log {
			if !sameBits(ep.Theta, theta0) || ep.ValLoss != res.InitLoss {
				t.Fatalf("seed %d: epoch %d broadcast a moved θ", seed, ep.T)
			}
			if !sameBits(ep.Weights, make([]float64, len(ep.Deltas))) {
				t.Fatalf("seed %d: epoch %d weights %v, want all zero", seed, ep.T, ep.Weights)
			}
		}
	}
}

// TestQuarantineZeroSumIsMeanStreamFold: with every φ negative and two of
// five reporters banned, Σ r = 0 over k = 3 non-banned reporters, and each
// round is θ_t = θ_{t-1} − a MeanStream{} fold over those three deltas.
func TestQuarantineZeroSumIsMeanStreamFold(t *testing.T) {
	for _, seed := range reweightSeeds {
		tr := ascentTrainer(seed)
		q := bannedQuarantine(t, 5, 1, 3)
		tr.Reweighter = q
		var want []float64 // θ_t predicted from epoch t's record
		tr.Observer = func(ep *hfl.Epoch) {
			if want != nil && !sameBits(ep.Theta, want) {
				t.Fatalf("seed %d: θ_%d is not θ_%d minus the fold", seed, ep.T-1, ep.T-2)
			}
			fold := hfl.MeanStream{}.NewFold(len(ep.Theta), 3, nil)
			for slot, k := range []int{0, 2, 4} {
				if err := fold.Add(slot, ep.Deltas[k]); err != nil {
					t.Fatal(err)
				}
			}
			fr, err := fold.Close()
			if err != nil {
				t.Fatal(err)
			}
			want = tensor.Clone(ep.Theta)
			tensor.AXPY(-1, fr.Sum, want)
		}
		res := runTrainer(t, tr)
		if !sameBits(res.Model.Params(), want) {
			t.Fatalf("seed %d: final θ is not the last round's fold", seed)
		}
		if got := q.Quarantined(); !reflect.DeepEqual(got, []int{1, 3}) {
			t.Fatalf("seed %d: bans %v, want [1 3]", seed, got)
		}
	}
}

// TestReweightAllNonPositiveIsUnweighted: when every φ ≤ 0, HFLReweighter's
// r is all ones and the run is the unweighted run.
func TestReweightAllNonPositiveIsUnweighted(t *testing.T) {
	for _, seed := range reweightSeeds {
		plain := runTrainer(t, ascentTrainer(seed))
		tr := ascentTrainer(seed)
		tr.Reweighter = &core.HFLReweighter{}
		got := runTrainer(t, tr)
		if !sameBits(got.Model.Params(), plain.Model.Params()) || !sameBits(got.ValLossCurve, plain.ValLossCurve) {
			t.Fatalf("seed %d: all-non-positive reweighted run differs from the unweighted one", seed)
		}
		for _, ep := range got.Log {
			if !sameBits(ep.Weights, core.Weights(make([]float64, len(ep.Deltas)))) {
				t.Fatalf("seed %d: epoch %d weights %v, want uniform", seed, ep.T, ep.Weights)
			}
		}
	}
}

// TestReweightEpochWeightsMatchEq17: the weights the trainer records are
// core.Weights over the epoch's φ, for HFLReweighter and for a Quarantine
// that bans nobody.
func TestReweightEpochWeightsMatchEq17(t *testing.T) {
	for _, seed := range reweightSeeds {
		for _, rw := range []hfl.Reweighter{&core.HFLReweighter{}, MustNewQuarantine(Quarantine{Patience: 1 << 20})} {
			tr := reweightTrainer(seed)
			tr.Reweighter = rw
			checked := 0
			tr.Observer = func(ep *hfl.Epoch) {
				if want := core.Weights(core.AlignedPhi(nil, ep)); !sameBits(ep.Weights, want) {
					t.Fatalf("seed %d, %T: epoch %d weights %v, core.Weights %v", seed, rw, ep.T, ep.Weights, want)
				}
				checked++
			}
			runTrainer(t, tr)
			if checked != tr.Cfg.Epochs {
				t.Fatalf("seed %d, %T: checked %d epochs", seed, rw, checked)
			}
		}
	}
}

// atRiskQuarantine is a Quarantine (Patience 3) whose state makes
// participant 0 of 5 at risk and sure to be banned by epoch 1's close —
// EWMA −10, streak 2 — whatever φ it reports then, participant 1 at risk
// but sure to survive (EWMA +5, streak 2), and the rest healthy. With
// banned0 set, participant 0 starts the epoch banned instead.
func atRiskQuarantine(t *testing.T, banned0 bool) *Quarantine {
	t.Helper()
	q := MustNewQuarantine(Quarantine{Patience: 3})
	st := &QuarantineState{
		Ewma:   []float64{-10, 5, 1, 1, 1},
		Seen:   []bool{true, true, true, true, true},
		Streak: []int{2, 2, 0, 0, 0},
		Banned: []bool{banned0, false, false, false, false},
	}
	if err := q.SetState(st); err != nil {
		t.Fatal(err)
	}
	return q
}

// TestBannedAtCloseAddsNothing kills the mutant "an at-risk slot folded as
// final": participant 0 reports a positive φ in an epoch whose close bans it
// (its EWMA stays negative), and that epoch's θ must be bit for bit the θ of
// the same epoch with participant 0 banned from the start — it adds exactly
// nothing — on the buffered path and on the streamed one, which agree.
// Participant 1, held too, survives and is summed last on both.
func TestBannedAtCloseAddsNothing(t *testing.T) {
	for _, seed := range reweightSeeds {
		var thetas [2][]float64
		for path, stream := range []hfl.StreamAggregator{nil, hfl.MeanStream{}} {
			run := func(banned0 bool) (*hfl.Result, *Quarantine) {
				tr := reweightTrainer(seed)
				tr.Cfg.Epochs = 1
				tr.Stream = stream
				q := atRiskQuarantine(t, banned0)
				tr.Reweighter = q
				tr.Observer = func(ep *hfl.Epoch) {
					w := ep.DeltaDots
					if w == nil {
						w = []float64{tensor.Dot(ep.ValGrad, ep.Deltas[0])}
					}
					if !(w[0] > 0) {
						t.Fatalf("seed %d: participant 0's dot %v is not positive; the check would be vacuous", seed, w[0])
					}
				}
				return runTrainer(t, tr), q
			}
			held, q := run(false)
			if got := q.Quarantined(); !reflect.DeepEqual(got, []int{0}) {
				t.Fatalf("seed %d, stream %v: bans %v, want [0]", seed, stream, got)
			}
			banned, _ := run(true)
			if !sameBits(held.Model.Params(), banned.Model.Params()) {
				t.Fatalf("seed %d, stream %v: a participant banned at the close moved θ", seed, stream)
			}
			thetas[path] = held.Model.Params()
		}
		if !sameBits(thetas[0], thetas[1]) {
			t.Fatalf("seed %d: the streamed reweighted round differs from the buffered one", seed)
		}
	}
}

// TestStreamedReweightMatchesBuffered: a streamed reweighted run
// (Stream: MeanStream{} beside the Reweighter) is the buffered reweighted run
// bit for bit — θ, the loss curve, φ totals and the bans — for a Quarantine
// and for HFLReweighter, on a flat run and on a sampled run with dropout,
// over three seeds.
func TestStreamedReweightMatchesBuffered(t *testing.T) {
	shapes := map[string]func(seed int64) *hfl.Trainer{
		"flat": reweightTrainer,
		"sampled+dropout": func(seed int64) *hfl.Trainer {
			parts, train, val := corruptedFederation(seed, 10, 3)
			return &hfl.Trainer{
				Model: nn.NewSoftmaxRegression(train.Dim(), train.Classes),
				Parts: parts, Val: val,
				Cfg: hfl.Config{Epochs: 8, LR: 0.3,
					Sample: sampling.MustNew(sampling.Config{Seed: seed, Size: 7}),
					Faults: faults.MustNew(faults.Config{Seed: seed, Dropout: 0.2})},
			}
		},
	}
	for name, mk := range shapes {
		for _, seed := range reweightSeeds {
			for _, quarantine := range []bool{true, false} {
				type out struct {
					res    *hfl.Result
					totals []float64
					bans   []int
				}
				run := func(stream hfl.StreamAggregator) out {
					tr := mk(seed)
					tr.Stream = stream
					est := core.NewHFLEstimator(len(tr.Parts), tr.Model.NumParams(), core.ResourceSaving, nil)
					var q *Quarantine
					if quarantine {
						q = MustNewQuarantine(Quarantine{Estimator: est, Patience: 2})
						tr.Reweighter = q
					} else {
						tr.Reweighter = &core.HFLReweighter{Estimator: est}
					}
					o := out{res: runTrainer(t, tr), totals: est.Attribution().Totals}
					if q != nil {
						o.bans = q.Quarantined()
					}
					return o
				}
				buf, str := run(nil), run(hfl.MeanStream{})
				if !sameBits(str.res.Model.Params(), buf.res.Model.Params()) || !sameBits(str.res.ValLossCurve, buf.res.ValLossCurve) ||
					!sameBits(str.totals, buf.totals) || !reflect.DeepEqual(str.bans, buf.bans) {
					t.Fatalf("%s seed %d quarantine=%v: streamed reweighted run differs from buffered (bans %v vs %v)",
						name, seed, quarantine, str.bans, buf.bans)
				}
			}
		}
	}
}

// TestStreamedReweightLemma4: Lemma 4 on the streamed path — with a small
// enough learning rate, reweighted training folded on arrival decreases the
// validation loss monotonically, for HFLReweighter and a Quarantine, over
// three seeds.
func TestStreamedReweightLemma4(t *testing.T) {
	for _, seed := range []int64{8, 9, 10} {
		for _, rw := range []func() hfl.Reweighter{
			func() hfl.Reweighter { return &core.HFLReweighter{} },
			func() hfl.Reweighter { return MustNewQuarantine(Quarantine{}) },
		} {
			rng := tensor.NewRNG(seed)
			full := dataset.MNISTLike(800, seed)
			train, val := full.Split(0.2, rng)
			parts := dataset.PartitionIID(train, 4, rng)
			parts[3] = dataset.Mislabel(parts[3], 0.7, rng)
			tr := &hfl.Trainer{
				Model: nn.NewSoftmaxRegression(train.Dim(), train.Classes),
				Parts: parts, Val: val,
				Cfg:        hfl.Config{Epochs: 30, LR: 0.05}, // α ≤ 2/(Lδ²) regime
				Reweighter: rw(),
				Stream:     hfl.MeanStream{},
			}
			curve := runTrainer(t, tr).ValLossCurve
			for i := 1; i < len(curve); i++ {
				if curve[i] > curve[i-1]+1e-9 {
					t.Fatalf("seed %d, %T: validation loss increased at epoch %d: %v -> %v",
						seed, tr.Reweighter, i, curve[i-1], curve[i])
				}
			}
		}
	}
}
