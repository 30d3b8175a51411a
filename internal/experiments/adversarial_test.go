package experiments

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"

	"digfl/internal/adversary"
	"digfl/internal/core"
	"digfl/internal/dataset"
	"digfl/internal/faults"
	"digfl/internal/fednet"
	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/obs"
	"digfl/internal/robust"
	"digfl/internal/sampling"
	"digfl/internal/tensor"
)

// advN is the adversarial study's federation size; its first three
// participants flip the sign of their updates.
const advN = 10

// advResult summarizes the three-run adversarial comparison: a clean
// φ-reweighted baseline, the attacked run with no defenses (uniform
// aggregation), and the attacked run behind the full defense stack
// (wire-style screen + contribution-guided quarantine).
type advResult struct {
	epochs    int
	attackers []int
	// Final validation losses of the three runs, and the attacked runs'
	// ratios to the clean one (+Inf when an attacked run went non-finite).
	cleanLoss, undefendedLoss, defendedLoss float64
	undefendedRatio, defendedRatio          float64
	// Defense activity observed during the defended attacked run.
	attacksInjected, updatesRejected, updatesClipped int
	quarantined                                      []int
	// totals is the defended run's attribution; rankedLast: every
	// attacker's total φ is below every honest participant's.
	totals     []float64
	rankedLast bool
	// bitIdenticalNoAttack: the defense stack with a nil adversary
	// reproduced the clean baseline bit for bit (model, loss curve, φ).
	bitIdenticalNoAttack bool
}

// adversarial runs the attack/defense comparison on an HFL image task, the
// attack seeded with o.Seed.
func adversarial(o Opts) *advResult {
	epochs := o.epochs(12)
	attackers := []int{0, 1, 2}

	fed := iidFederation(advN, o.samples(1200), o.Seed)
	model, parts, val := fed.model, fed.parts, fed.val

	adv := adversary.MustNew(adversary.Config{
		Seed: o.Seed, Attackers: attackers, Kind: adversary.SignFlip,
	})

	// All runs share one wiring shape — an adversary.Source over the
	// in-process LocalSource — so the clean/attacked comparison isolates the
	// attack, and the bit-identity check isolates the defenses.
	type runOut struct {
		res    *hfl.Result
		totals []float64
		snap   obs.Snapshot
		quar   []int
	}
	run := func(a *adversary.Adversary, defended bool) runOut {
		col := &obs.Collector{}
		est := fed.estimator()
		src := &adversary.Source{
			Inner:     &fednet.LocalSource{Model: model, Parts: a.PoisonShards(parts)},
			Adversary: a, Sink: col,
		}
		tr := &hfl.Trainer{
			Model: model, Val: val,
			Cfg: hfl.Config{Epochs: epochs, LR: 0.3, Participants: advN,
				Runtime: obs.Runtime{Sink: col}},
			Rounds: src,
		}
		out := runOut{}
		if defended {
			q := robust.MustNewQuarantine(robust.Quarantine{Estimator: est, Sink: col})
			tr.Screen = robust.MustNewUpdateScreen(robust.ScreenConfig{Sink: col})
			tr.Reweighter = q
			out.res = tr.Run()
			out.quar = q.Quarantined()
		} else {
			// Undefended attacked run: plain uniform FedAvg, the pipeline an
			// unprotected deployment would run. The estimator still watches so
			// φ is comparable, but nothing acts on it.
			tr.Observer = func(ep *hfl.Epoch) { est.Observe(ep) }
			out.res = tr.Run()
		}
		out.totals = append([]float64(nil), est.Attribution().Totals...)
		out.snap = col.Snapshot()
		return out
	}

	// Clean φ-reweighted baseline: Eq. 17 reweighting, no adversary, no
	// defenses.
	cleanEst := fed.estimator()
	cleanTr := &hfl.Trainer{
		Model: model, Val: val,
		Cfg:        hfl.Config{Epochs: epochs, LR: 0.3, Participants: advN},
		Rounds:     &fednet.LocalSource{Model: model, Parts: parts},
		Reweighter: &core.HFLReweighter{Estimator: cleanEst},
	}
	clean := cleanTr.Run()

	cleanDefended := run(nil, true)
	undefended := run(adv, false)
	defended := run(adv, true)

	res := &advResult{
		epochs: epochs, attackers: attackers,
		cleanLoss:       clean.FinalLoss,
		undefendedLoss:  undefended.res.FinalLoss,
		defendedLoss:    defended.res.FinalLoss,
		attacksInjected: int(defended.snap.AttacksInjected),
		updatesRejected: int(defended.snap.UpdatesRejected),
		updatesClipped:  int(defended.snap.UpdatesClipped),
		quarantined:     defended.quar,
		totals:          defended.totals,
		bitIdenticalNoAttack: sameRun(cleanDefended.res, clean, cleanDefended.totals, cleanEst.Attribution().Totals) &&
			len(cleanDefended.quar) == 0,
	}
	res.undefendedRatio = lossRatio(res.undefendedLoss, res.cleanLoss)
	res.defendedRatio = lossRatio(res.defendedLoss, res.cleanLoss)
	res.rankedLast = slices.Max(res.totals[:len(attackers)]) < slices.Min(res.totals[len(attackers):])
	return res
}

// lossRatio is attacked/clean, treating a non-finite attacked loss as
// infinite damage.
func lossRatio(attacked, clean float64) float64 {
	if math.IsNaN(attacked) || math.IsInf(attacked, 0) {
		return math.Inf(1)
	}
	if clean == 0 {
		return 1
	}
	return attacked / clean
}

// TestAdversarialEfficacyGate is the PR's acceptance gate: 30% sign-flip
// attackers must wreck the undefended run (≥2× clean loss) while the full
// defense stack holds within 10% of clean, ranks every attacker below every
// honest participant, quarantines exactly the attackers, and costs nothing
// when no attack is configured — across three seeds.
func TestAdversarialEfficacyGate(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		o := QuickOpts()
		o.Seed = seed
		r := adversarial(o)
		if r.undefendedRatio < 2 {
			t.Errorf("seed %d: undefended ratio %.3f < 2 (clean %.4f, undefended %.4f)",
				seed, r.undefendedRatio, r.cleanLoss, r.undefendedLoss)
		}
		if r.defendedRatio > 1.1 {
			t.Errorf("seed %d: defended ratio %.3f > 1.1 (clean %.4f, defended %.4f)",
				seed, r.defendedRatio, r.cleanLoss, r.defendedLoss)
		}
		if !r.rankedLast {
			t.Errorf("seed %d: attackers %v not ranked below every honest participant: φ %v",
				seed, r.attackers, r.totals)
		}
		if !reflect.DeepEqual(r.quarantined, r.attackers) {
			t.Errorf("seed %d: quarantined %v, want exactly the attackers %v",
				seed, r.quarantined, r.attackers)
		}
		if !r.bitIdenticalNoAttack {
			t.Errorf("seed %d: no-attack defense stack not bit-identical to baseline", seed)
		}
		if r.attacksInjected == 0 {
			t.Errorf("seed %d: no attacks recorded", seed)
		}
		if want := goldenAdversarial[seed-1]; !reflect.DeepEqual(*r, want) {
			t.Errorf("seed %d: study differs from its golden:\n%+v\nwant:\n%+v", seed, *r, want)
		}
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
