package experiments

import (
	"fmt"
	"io"
	"math"

	"digfl/internal/adversary"
	"digfl/internal/core"
	"digfl/internal/fednet"
	"digfl/internal/hfl"
	"digfl/internal/obs"
	"digfl/internal/robust"
)

// AdvSpec parameterizes the adversarial-robustness experiment: the attack
// configuration plus the defense knobs.
type AdvSpec struct {
	Seed     int64
	Kind     adversary.Kind
	Frac     float64 // fraction of participants compromised
	N        int     // participant count
	Scale    float64 // attack amplification (0 → adversary default)
	NoiseStd float64 // free-rider noise (0 → adversary default)
	Rate     float64 // per-round fire probability (0 → 1)
	Flip     float64 // label-flip fraction (0 → 1)
	Clip     float64 // screen clip factor (0 → screen default)
	Patience int     // quarantine patience (0 → quarantine default)
}

// DefaultAdvSpec is the CLI configuration when -attacks gives no overrides:
// the ISSUE's efficacy gate — 30% sign-flipping attackers among 10.
func DefaultAdvSpec() AdvSpec {
	return AdvSpec{Seed: 7, Kind: adversary.SignFlip, Frac: 0.3, N: 10}
}

// ParseAdvSpec overlays a comma-separated key=value spec (e.g.
// "seed=3,kind=collude,frac=0.4") onto the default spec. Keys: seed, kind
// (label_flip, sign_flip, scale_poison, free_rider, collude), frac, n,
// scale, noise, rate, flip, clip, patience.
func ParseAdvSpec(s string) (AdvSpec, error) {
	spec := DefaultAdvSpec()
	err := overlaySpec("attacks", s, map[string]any{
		"seed": &spec.Seed, "frac": &spec.Frac, "n": &spec.N, "scale": &spec.Scale,
		"noise": &spec.NoiseStd, "rate": &spec.Rate, "flip": &spec.Flip, "clip": &spec.Clip,
		"patience": &spec.Patience,
		"kind":     func(v string) (err error) { spec.Kind, err = adversary.ParseKind(v); return err },
	})
	if err != nil {
		return spec, err
	}
	// Written so that NaN fails.
	if !(0 <= spec.Frac && spec.Frac < 0.5) {
		return spec, fmt.Errorf("attacks spec: frac %v outside [0,0.5) (defenses assume an honest majority)", spec.Frac)
	}
	if spec.N < 2 {
		return spec, fmt.Errorf("attacks spec: n %d < 2", spec.N)
	}
	return spec, nil
}

// AdvResult summarizes the three-run adversarial comparison: a clean
// φ-reweighted baseline, the attacked run with no defenses (uniform
// aggregation), and the attacked run behind the full defense stack
// (wire-style screen + contribution-guided quarantine).
type AdvResult struct {
	Spec      AdvSpec
	Epochs    int
	Attackers []int

	// Final validation losses of the three runs.
	CleanLoss, UndefendedLoss, DefendedLoss float64
	// Ratios to the clean baseline; +Inf when the attacked run went
	// non-finite. The efficacy gate wants Undefended ≥ 2 and Defended ≤ 1.1.
	UndefendedRatio, DefendedRatio float64

	// Defense activity observed during the defended attacked run.
	AttacksInjected, UpdatesRejected, UpdatesClipped int
	Quarantined                                      []int

	// Contribution separation in the defended run: every attacker's total φ
	// below every honest participant's.
	Totals              []float64
	HonestMinPhi        float64
	AttackerMaxPhi      float64
	AttackersRankedLast bool

	// BitIdenticalNoAttack: the defense stack with a nil adversary
	// reproduced the clean baseline bit for bit (model, loss curve, φ).
	BitIdenticalNoAttack bool
}

// Adversarial runs the attack/defense comparison on an HFL image task.
func Adversarial(spec AdvSpec, o Opts) *AdvResult {
	o.validate()
	epochs := o.epochs(12)
	nAtk := int(math.Round(spec.Frac * float64(spec.N)))
	if spec.Frac > 0 && nAtk == 0 {
		nAtk = 1
	}
	attackers := make([]int, nAtk)
	for i := range attackers {
		attackers[i] = i
	}

	fed := iidFederation(spec.N, o.samples(1200), o.Seed)
	model, parts, val := fed.model, fed.parts, fed.val

	adv := adversary.MustNew(adversary.Config{
		Seed: spec.Seed, Attackers: attackers, Kind: spec.Kind,
		Scale: spec.Scale, NoiseStd: spec.NoiseStd, Rate: spec.Rate,
		FlipFrac: spec.Flip,
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
		sink := obs.Tee(col, o.Sink)
		est := fed.estimator()
		src := &adversary.Source{
			Inner:     &fednet.LocalSource{Model: model, Parts: a.PoisonShards(parts)},
			Adversary: a, Sink: sink,
		}
		tr := &hfl.Trainer{
			Model: model, Val: val,
			Cfg: hfl.Config{Epochs: epochs, LR: 0.3, Participants: spec.N,
				Runtime: obs.Runtime{Sink: sink}},
			Rounds: src,
		}
		out := runOut{}
		if defended {
			q := robust.MustNewQuarantine(robust.Quarantine{
				Estimator: est, Patience: spec.Patience, Sink: sink,
			})
			tr.Screen = robust.MustNewUpdateScreen(robust.ScreenConfig{
				ClipFactor: spec.Clip, Sink: sink,
			})
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

	// Clean φ-reweighted baseline: the pre-PR pipeline (Eq. 17 reweighting,
	// no adversary, no defenses).
	cleanEst := fed.estimator()
	cleanTr := &hfl.Trainer{
		Model: model, Val: val,
		Cfg: hfl.Config{Epochs: epochs, LR: 0.3, Participants: spec.N,
			Runtime: obs.Runtime{Sink: o.Sink}},
		Rounds:     &fednet.LocalSource{Model: model, Parts: parts},
		Reweighter: &core.HFLReweighter{Estimator: cleanEst},
	}
	clean := cleanTr.Run()

	cleanDefended := run(nil, true)
	undefended := run(adv, false)
	defended := run(adv, true)

	res := &AdvResult{
		Spec: spec, Epochs: epochs, Attackers: attackers,
		CleanLoss:       clean.FinalLoss,
		UndefendedLoss:  undefended.res.FinalLoss,
		DefendedLoss:    defended.res.FinalLoss,
		AttacksInjected: int(defended.snap.AttacksInjected),
		UpdatesRejected: int(defended.snap.UpdatesRejected),
		UpdatesClipped:  int(defended.snap.UpdatesClipped),
		Quarantined:     defended.quar,
		Totals:          defended.totals,
		BitIdenticalNoAttack: sameRun(cleanDefended.res, clean, cleanDefended.totals, cleanEst.Attribution().Totals) &&
			len(cleanDefended.quar) == 0,
	}
	res.UndefendedRatio = lossRatio(res.UndefendedLoss, res.CleanLoss)
	res.DefendedRatio = lossRatio(res.DefendedLoss, res.CleanLoss)

	isAttacker := make(map[int]bool, nAtk)
	for _, i := range attackers {
		isAttacker[i] = true
	}
	res.HonestMinPhi, res.AttackerMaxPhi = math.Inf(1), math.Inf(-1)
	for i, phi := range defended.totals {
		if isAttacker[i] {
			res.AttackerMaxPhi = math.Max(res.AttackerMaxPhi, phi)
		} else {
			res.HonestMinPhi = math.Min(res.HonestMinPhi, phi)
		}
	}
	res.AttackersRankedLast = nAtk == 0 || res.AttackerMaxPhi < res.HonestMinPhi
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

// Render writes the adversarial-robustness summary.
func (r *AdvResult) Render(w io.Writer) {
	writeHeader(w, "Adversarial robustness — attack simulation, screening, quarantine")
	fmt.Fprintf(w, "spec: seed=%d kind=%s frac=%.2f n=%d epochs=%d attackers=%v\n",
		r.Spec.Seed, r.Spec.Kind, r.Spec.Frac, r.Spec.N, r.Epochs, r.Attackers)
	fmt.Fprintf(w, "final val loss: clean=%.4f undefended=%.4f defended=%.4f\n",
		r.CleanLoss, r.UndefendedLoss, r.DefendedLoss)
	fmt.Fprintf(w, "damage ratio vs clean: undefended=%.2fx defended=%.2fx\n",
		r.UndefendedRatio, r.DefendedRatio)
	fmt.Fprintf(w, "defense activity: %d attacks injected, %d updates rejected, %d clipped, quarantined=%v\n",
		r.AttacksInjected, r.UpdatesRejected, r.UpdatesClipped, r.Quarantined)
	fmt.Fprintf(w, "contribution separation: honest min φ=%.6g, attacker max φ=%.6g, attackers ranked last: %v\n",
		r.HonestMinPhi, r.AttackerMaxPhi, r.AttackersRankedLast)
	fmt.Fprintf(w, "no-attack defense stack bit-identical to baseline: %v\n", r.BitIdenticalNoAttack)
	fmt.Fprintf(w, "attribution totals: %s\n", fmtVec(r.Totals))
}

// Tables returns the CSV rendering.
func (r *AdvResult) Tables() map[string][][]string {
	return metricTable("adversarial", r.Totals,
		"kind", r.Spec.Kind, "attackers", len(r.Attackers), "participants", r.Spec.N,
		"epochs", r.Epochs, "clean_loss", r.CleanLoss, "undefended_loss", r.UndefendedLoss,
		"defended_loss", r.DefendedLoss, "undefended_ratio", r.UndefendedRatio,
		"defended_ratio", r.DefendedRatio, "attacks_injected", r.AttacksInjected,
		"updates_rejected", r.UpdatesRejected, "updates_clipped", r.UpdatesClipped,
		"quarantined", len(r.Quarantined), "attackers_ranked_last", r.AttackersRankedLast,
		"bit_identical_no_attack", r.BitIdenticalNoAttack)
}
