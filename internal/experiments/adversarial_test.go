package experiments

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"digfl/internal/adversary"
	"digfl/internal/core"
	"digfl/internal/dataset"
	"digfl/internal/faults"
	"digfl/internal/fednet"
	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/robust"
	"digfl/internal/sampling"
	"digfl/internal/tensor"
)

// TestAdversarialEfficacyGate is the PR's acceptance gate: 30% sign-flip
// attackers must wreck the undefended run (≥2× clean loss) while the full
// defense stack holds within 10% of clean, ranks every attacker below every
// honest participant, quarantines exactly the attackers, and costs nothing
// when no attack is configured — across three seeds.
func TestAdversarialEfficacyGate(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		spec := DefaultAdvSpec()
		spec.Seed = seed
		o := QuickOpts()
		o.Seed = seed
		r := Adversarial(spec, o)
		if r.UndefendedRatio < 2 {
			t.Errorf("seed %d: undefended ratio %.3f < 2 (clean %.4f, undefended %.4f)",
				seed, r.UndefendedRatio, r.CleanLoss, r.UndefendedLoss)
		}
		if r.DefendedRatio > 1.1 {
			t.Errorf("seed %d: defended ratio %.3f > 1.1 (clean %.4f, defended %.4f)",
				seed, r.DefendedRatio, r.CleanLoss, r.DefendedLoss)
		}
		if !r.AttackersRankedLast {
			t.Errorf("seed %d: attacker max φ %.6g not below honest min φ %.6g",
				seed, r.AttackerMaxPhi, r.HonestMinPhi)
		}
		if !reflect.DeepEqual(r.Quarantined, r.Attackers) {
			t.Errorf("seed %d: quarantined %v, want exactly the attackers %v",
				seed, r.Quarantined, r.Attackers)
		}
		if !r.BitIdenticalNoAttack {
			t.Errorf("seed %d: no-attack defense stack not bit-identical to baseline", seed)
		}
		if r.AttacksInjected == 0 {
			t.Errorf("seed %d: no attacks recorded", seed)
		}
		checkGolden(t, r.Tables(), goldenAdversarial[seed-1])
	}
}

// chaosRun trains a small defended federation under simultaneous fault
// injection and update-level attacks, returning the final model, loss
// curve, and attribution.
func chaosRun(t *testing.T, seed int64) (*hfl.Result, []float64) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	full := imageData("MNIST", 400, seed, 0)
	train, val := full.Split(0.1, rng)
	parts := dataset.PartitionIID(train, 6, rng)
	model := nn.NewSoftmaxRegression(train.Dim(), train.Classes)
	est := core.NewHFLEstimator(len(parts), model.NumParams(), core.ResourceSaving, nil)
	adv := adversary.MustNew(adversary.Config{
		Seed: seed, Attackers: []int{0, 1}, Kind: adversary.Collude, Rate: 0.7,
	})
	tr := &hfl.Trainer{
		Model: model, Val: val,
		Cfg: hfl.Config{
			Epochs: 10, LR: 0.3, Participants: len(parts),
			Faults: faults.MustNew(faults.Config{Seed: seed, Dropout: 0.2, Straggler: 0.1}),
		},
		Rounds: &adversary.Source{
			Inner:     &fednet.LocalSource{Model: model, Parts: adv.PoisonShards(parts)},
			Adversary: adv,
		},
		Screen:     robust.MustNewUpdateScreen(robust.ScreenConfig{}),
		Reweighter: robust.MustNewQuarantine(robust.Quarantine{Estimator: est}),
	}
	res, err := tr.RunContext(context.Background())
	if err != nil {
		t.Fatalf("seed %d: chaos run: %v", seed, err)
	}
	return res, est.Attribution().Totals
}

// TestAdversarialChaos: attacks and injected faults together must never
// panic, never produce non-finite state, and stay bit-deterministic across
// reruns — for three seeds.
func TestAdversarialChaos(t *testing.T) {
	for _, seed := range []int64{5, 6, 7} {
		res, totals := chaosRun(t, seed)
		for j, v := range res.Model.Params() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("seed %d: param %d non-finite: %v", seed, j, v)
			}
		}
		for i, v := range totals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("seed %d: φ_%d non-finite: %v", seed, i, v)
			}
		}
		res2, totals2 := chaosRun(t, seed)
		if !reflect.DeepEqual(res.Model.Params(), res2.Model.Params()) ||
			!reflect.DeepEqual(res.ValLossCurve, res2.ValLossCurve) ||
			!reflect.DeepEqual(totals, totals2) {
			t.Errorf("seed %d: chaos rerun not bit-identical", seed)
		}
	}
}

func TestParseAdvSpec(t *testing.T) {
	spec, err := ParseAdvSpec("seed=9,kind=collude,frac=0.4,n=5,scale=2,noise=0.1,rate=0.5,flip=0.8,clip=4,patience=2")
	if err != nil {
		t.Fatal(err)
	}
	want := AdvSpec{Seed: 9, Kind: adversary.Collude, Frac: 0.4, N: 5,
		Scale: 2, NoiseStd: 0.1, Rate: 0.5, Flip: 0.8, Clip: 4, Patience: 2}
	if spec != want {
		t.Fatalf("spec = %+v, want %+v", spec, want)
	}
	if spec, err := ParseAdvSpec(""); err != nil || spec != DefaultAdvSpec() {
		t.Fatalf("empty spec = %+v, %v", spec, err)
	}
	for _, bad := range []string{"frac=0.6", "frac=nan", "n=1", "kind=nope", "bogus=1", "seed"} {
		if _, err := ParseAdvSpec(bad); err == nil {
			t.Errorf("ParseAdvSpec(%q) accepted", bad)
		}
	}
}

func TestAdversarialRender(t *testing.T) {
	spec := DefaultAdvSpec()
	spec.N = 5
	o := QuickOpts()
	r := Adversarial(spec, o)
	var b strings.Builder
	r.Render(&b)
	for _, want := range []string{"Adversarial robustness", "sign_flip", "quarantined"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("rendering missing %q:\n%s", want, b.String())
		}
	}
	if len(r.Tables()["adversarial"]) == 0 {
		t.Error("no CSV rows")
	}
}

// TestStreamedQuarantineEfficacySampled is the efficacy gate on a sampled
// cohort-64 cell whose quarantine runs in the fold: 30 % of 128
// participants sign-flip their updates, each round samples 64, and the
// trainer folds every round on arrival (Stream beside the Quarantine). Over
// three seeds the attackers rank below every honest participant, the
// quarantine bans exactly the attackers, and the run is bit for bit the
// buffered reweighted run. (128 rather than the 100k of the streamed
// benchmark: every attacker must be sampled Patience times for the ban, which
// takes about N·ln N/64 rounds.)
func TestStreamedQuarantineEfficacySampled(t *testing.T) {
	const n, cohort, epochs = 128, 64, 24
	for _, seed := range []int64{1, 2, 3} {
		fed := iidFederation(n, 12*n, seed)
		attackers := make([]int, 3*n/10)
		for i := range attackers {
			attackers[i] = i
		}
		type out struct {
			res    *hfl.Result
			totals []float64
			bans   []int
		}
		run := func(stream hfl.StreamAggregator) out {
			adv := adversary.MustNew(adversary.Config{Seed: seed, Attackers: attackers, Kind: adversary.SignFlip})
			est := fed.estimator()
			q := robust.MustNewQuarantine(robust.Quarantine{Estimator: est})
			tr := &hfl.Trainer{
				Model: fed.model, Val: fed.val,
				Cfg: hfl.Config{Epochs: epochs, LR: 0.3, Participants: n,
					Sample: sampling.MustNew(sampling.Config{Seed: seed, Size: cohort})},
				Rounds:     &adversary.Source{Inner: &fednet.LocalSource{Model: fed.model, Parts: adv.PoisonShards(fed.parts)}, Adversary: adv},
				Reweighter: q,
				Stream:     stream,
			}
			res, err := tr.RunContext(context.Background())
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return out{res, est.Attribution().Totals, q.Quarantined()}
		}
		got := run(hfl.MeanStream{})
		if !reflect.DeepEqual(got.bans, attackers) {
			t.Errorf("seed %d: quarantined %v, want exactly the attackers %v", seed, got.bans, attackers)
		}
		atkMax, honMin := math.Inf(-1), math.Inf(1)
		for i, v := range got.totals {
			if i < len(attackers) {
				atkMax = max(atkMax, v)
			} else {
				honMin = min(honMin, v)
			}
		}
		if !(atkMax < honMin) {
			t.Errorf("seed %d: attacker max φ %.6g not below honest min φ %.6g", seed, atkMax, honMin)
		}
		want := run(nil)
		if !sameRun(got.res, want.res, got.totals, want.totals, got.bans, want.bans) {
			t.Errorf("seed %d: the streamed quarantine run differs from the buffered one", seed)
		}
	}
}
