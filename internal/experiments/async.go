package experiments

import (
	"fmt"
	"io"
	"strconv"

	"digfl/internal/faults"
	"digfl/internal/fednet"
	"digfl/internal/hfl"
	"digfl/internal/obs"
)

// asyncN is the federation size of the -exp async study, asyncMaxStaleness
// the commit window (rounds a late update may age before it is refused),
// and asyncRates the sticky-straggler rates the two topologies are compared
// under.
const (
	asyncN            = 5
	asyncMaxStaleness = 3
)

var asyncRates = []float64{0, 0.2, 0.4}

// AsyncArm is one (topology, straggler-rate) cell of the comparison.
type AsyncArm struct {
	// Mode is "sync-drop" (a straggler's round is simply lost) or
	// "async-fold" (the straggler's update is buffered and folded late
	// with a staleness discount).
	Mode string
	// Rate is the sticky-straggler rate the arm ran under.
	Rate float64
	// EpochsToTarget is the first epoch whose validation loss reaches the
	// no-fault reference target; 0 means the arm never reached it.
	EpochsToTarget int
	// FinalLoss is loss^v(θ_τ) at the end of the arm's budget.
	FinalLoss float64
	// AsyncCommits/StaleFolds/StaleRejects are the arm's async commit
	// counters (zero for the sync arms, which have no buffer).
	AsyncCommits, StaleFolds, StaleRejects int64
	// Phi is the arm's DIG-FL contribution estimate (Lemma-3 over the
	// discounted deltas the aggregate actually used).
	Phi []float64
}

// AsyncResult is the -exp async report: synchronous drop vs asynchronous
// staleness-discounted fold on a class-disjoint federation where losing a
// straggler's shard forever imposes a validation-loss floor. Three gates
// make the claim checkable: the fresh path is bit-identical to the plain
// streamed trainer, the whole study is deterministic under rerun, and at
// the highest straggler rate the async fold reaches the no-fault loss
// target in fewer epochs than the sync drop.
type AsyncResult struct {
	N, Epochs, RefEpochs int
	Quorum, MaxStaleness int
	// TargetLoss is the no-fault reference's validation loss after
	// RefEpochs epochs — the bar both faulted topologies race to.
	TargetLoss float64
	Rows       []AsyncArm
	// FreshIdentical: the rate-0 async arm reproduced the no-fault
	// streamed reference bit for bit (model and loss curve).
	FreshIdentical bool
	// Deterministic: rerunning the heaviest async arm reproduced its
	// model, curve, and φ bit for bit.
	Deterministic bool
	// StragglerAdvantage: at the highest rate the async fold reached the
	// target in strictly fewer epochs than the sync drop (never-reaching
	// counts as worst).
	StragglerAdvantage bool
}

// Passed reports whether every gate held.
func (r *AsyncResult) Passed() bool {
	return r.FreshIdentical && r.Deterministic && r.StragglerAdvantage
}

// asyncFederation builds the class-disjoint federation: participant i holds
// exactly classes {2i, 2i+1} of a 10-class image problem, so a shard that
// never reaches the aggregate leaves two classes untrained and the
// validation loss floored above the no-fault target.
func asyncFederation(o Opts) *federation {
	return newFederation(HFLSetting{Dataset: "MNIST", N: asyncN, Corruption: ClassDisjoint,
		Samples: o.samples(2500), Seed: o.Seed})
}

// asyncRun is one arm: a streaming trainer fed by the given round source,
// with an attached estimator.
type asyncRunOut struct {
	res  *hfl.Result
	phi  []float64
	snap obs.Snapshot
}

func asyncRun(fed *federation, o Opts, epochs int, fcfg faults.Config, async bool) *asyncRunOut {
	model, parts := fed.model, fed.parts
	col := &obs.Collector{}
	sink := obs.Tee(col, o.Sink)
	cfg := hfl.Config{Epochs: epochs, LR: 0.3, Participants: asyncN,
		Runtime: obs.Runtime{Sink: sink}}
	tr, est := fed.observed(&hfl.Trainer{Model: model, Val: fed.val, Cfg: cfg, Stream: hfl.MeanStream{}})
	if async {
		tr.Cfg.Faults = faults.MustNew(fcfg)
		tr.Rounds = &fednet.AsyncLocalSource{
			Model: model, Parts: parts,
			Async:  hfl.AsyncConfig{Quorum: asyncN, MaxStaleness: asyncMaxStaleness},
			Faults: faults.MustNew(fcfg),
			Sink:   sink,
		}
	} else {
		inj := faults.MustNew(fcfg)
		tr.Rounds = &fednet.LocalSource{
			Model: model, Parts: parts,
			Drop: func(t, i int) bool { return inj.Lag(t, i, asyncMaxStaleness) > 0 },
		}
	}
	res := tr.Run()
	return &asyncRunOut{res: res, phi: est.Attribution().Totals, snap: col.Snapshot()}
}

// epochsToTarget finds the first epoch whose validation loss reaches the
// target; 0 means the curve never got there.
func epochsToTarget(curve []float64, target float64) int {
	for t := 1; t < len(curve); t++ {
		if curve[t] <= target {
			return t
		}
	}
	return 0
}

// Async runs the buffered-federation study: a no-fault streamed reference
// fixes the loss target, then sync-drop and async-fold race to it at each
// sticky-straggler rate. The async arms use the same AsyncLocalSource /
// AsyncPlanner machinery the networked coordinator runs, so the numbers
// here are the loopback numbers.
func Async(o Opts) *AsyncResult {
	o.validate()
	refEpochs := o.epochs(12)
	epochs := 3 * refEpochs
	res := &AsyncResult{N: asyncN, Epochs: epochs, RefEpochs: refEpochs,
		Quorum: asyncN, MaxStaleness: asyncMaxStaleness}

	fed := asyncFederation(o)
	noFault := faults.Config{Seed: o.Seed}
	ref := asyncRun(fed, o, epochs, noFault, false)
	res.TargetLoss = ref.res.ValLossCurve[refEpochs]

	arm := func(mode string, rate float64, out *asyncRunOut) AsyncArm {
		return AsyncArm{
			Mode: mode, Rate: rate,
			EpochsToTarget: epochsToTarget(out.res.ValLossCurve, res.TargetLoss),
			FinalLoss:      out.res.FinalLoss,
			AsyncCommits:   out.snap.AsyncCommits,
			StaleFolds:     out.snap.StaleFolds,
			StaleRejects:   out.snap.StaleRejects,
			Phi:            out.phi,
		}
	}

	var toTarget = map[string]int{}
	var heavyAsync *asyncRunOut
	for _, rate := range asyncRates {
		fcfg := faults.Config{Seed: o.Seed, Straggler: rate, StickyStragglers: true}
		sync := asyncRun(fed, o, epochs, fcfg, false)
		async := asyncRun(fed, o, epochs, fcfg, true)
		res.Rows = append(res.Rows, arm("sync-drop", rate, sync), arm("async-fold", rate, async))
		toTarget[fmt.Sprintf("sync/%g", rate)] = epochsToTarget(sync.res.ValLossCurve, res.TargetLoss)
		toTarget[fmt.Sprintf("async/%g", rate)] = epochsToTarget(async.res.ValLossCurve, res.TargetLoss)
		if rate == 0 {
			res.FreshIdentical = sameRun(ref.res, async.res)
		}
		if rate == asyncRates[len(asyncRates)-1] {
			heavyAsync = async
		}
	}

	heavy := asyncRates[len(asyncRates)-1]
	rerun := asyncRun(fed, o, epochs, faults.Config{Seed: o.Seed, Straggler: heavy, StickyStragglers: true}, true)
	res.Deterministic = sameRun(heavyAsync.res, rerun.res, heavyAsync.phi, rerun.phi)

	at, st := toTarget[fmt.Sprintf("async/%g", heavy)], toTarget[fmt.Sprintf("sync/%g", heavy)]
	res.StragglerAdvantage = at > 0 && (st == 0 || at < st)
	return res
}

func gate(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

// Render writes the async-topology report.
func (r *AsyncResult) Render(w io.Writer) {
	writeHeader(w, "Async buffered federation — sync-drop vs staleness-discounted fold")
	fmt.Fprintf(w, "n=%d epochs=%d quorum=%d max_staleness=%d class-disjoint shards; target = no-fault loss after %d epochs (%.4f)\n\n",
		r.N, r.Epochs, r.Quorum, r.MaxStaleness, r.RefEpochs, r.TargetLoss)
	fmt.Fprintf(w, "%6s %-12s %10s %10s %8s %7s %8s\n",
		"rate", "mode", "to_target", "final", "commits", "folds", "rejects")
	for _, a := range r.Rows {
		tt := "never"
		if a.EpochsToTarget > 0 {
			tt = strconv.Itoa(a.EpochsToTarget)
		}
		fmt.Fprintf(w, "%6g %-12s %10s %10.4f %8d %7d %8d\n",
			a.Rate, a.Mode, tt, a.FinalLoss, a.AsyncCommits, a.StaleFolds, a.StaleRejects)
	}
	fmt.Fprintf(w, "\nfresh path bit-identical to streamed trainer: %s\n", gate(r.FreshIdentical))
	fmt.Fprintf(w, "deterministic under rerun (model+curve+phi):  %s\n", gate(r.Deterministic))
	fmt.Fprintf(w, "straggler advantage at rate %g:               %s\n",
		asyncRates[len(asyncRates)-1], gate(r.StragglerAdvantage))
}

// Tables renders the study as CSV.
func (r *AsyncResult) Tables() map[string][][]string {
	rows := [][]string{{
		"rate", "mode", "epochs_to_target", "final_loss",
		"async_commits", "stale_folds", "stale_rejects",
	}}
	for _, a := range r.Rows {
		rows = append(rows, []string{
			f(a.Rate), a.Mode, strconv.Itoa(a.EpochsToTarget), f(a.FinalLoss),
			strconv.FormatInt(a.AsyncCommits, 10), strconv.FormatInt(a.StaleFolds, 10),
			strconv.FormatInt(a.StaleRejects, 10),
		})
	}
	gates := [][]string{
		{"gate", "passed"},
		{"fresh_identical", fmt.Sprint(r.FreshIdentical)},
		{"deterministic", fmt.Sprint(r.Deterministic)},
		{"straggler_advantage", fmt.Sprint(r.StragglerAdvantage)},
	}
	return map[string][][]string{"async_topology": rows, "async_gates": gates}
}
