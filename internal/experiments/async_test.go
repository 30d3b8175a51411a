package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"digfl/internal/dataset"
	"digfl/internal/faults"
	"digfl/internal/fednet"
	"digfl/internal/hfl"
	"digfl/internal/obs"
	"digfl/internal/tensor"
)

// asyncN is the federation size of the async study, asyncMaxStaleness the
// commit window (rounds a late update may age before it is refused), and
// asyncRates the sticky-straggler rates the two topologies are compared
// under.
const (
	asyncN            = 5
	asyncMaxStaleness = 3
)

var asyncRates = []float64{0, 0.2, 0.4}

// classDisjoint gives participant i exactly classes {k·i, …, k·i+k−1},
// k = Classes/asyncN, so a shard that never reaches the aggregate leaves its
// classes untrained. It draws nothing from the RNG.
func classDisjoint(train dataset.Dataset, _ *tensor.RNG) []dataset.Dataset {
	idx := make([][]int, asyncN)
	for r, y := range train.Y {
		if i := int(y) / (train.Classes / asyncN); i < asyncN {
			idx[i] = append(idx[i], r)
		}
	}
	parts := make([]dataset.Dataset, asyncN)
	for i := range parts {
		parts[i] = train.Subset(idx[i])
	}
	return parts
}

// asyncArm is one (topology, straggler-rate) cell of the comparison.
type asyncArm struct {
	// mode is "sync-drop" (a straggler's round is simply lost) or
	// "async-fold" (the straggler's update is buffered and folded late
	// with a staleness discount).
	mode string
	rate float64
	// epochsToTarget is the first epoch whose validation loss reaches the
	// no-fault reference target; 0 means the arm never reached it.
	epochsToTarget int
	finalLoss      float64
	// The arm's async commit counters (zero for the sync arms, which have
	// no buffer).
	asyncCommits, staleFolds, staleRejects int64
}

// asyncResult is the async study: synchronous drop vs asynchronous
// staleness-discounted fold on a class-disjoint federation where losing a
// straggler's shard forever imposes a validation-loss floor.
type asyncResult struct {
	rows []asyncArm
	// freshIdentical: the rate-0 async arm reproduced the no-fault
	// streamed reference bit for bit (model and loss curve).
	freshIdentical bool
	// deterministic: rerunning the heaviest async arm reproduced its
	// model, curve, and φ bit for bit.
	deterministic bool
	// stragglerAdvantage: at the highest rate the async fold reached the
	// target in strictly fewer epochs than the sync drop (never-reaching
	// counts as worst).
	stragglerAdvantage bool
}

type asyncRunOut struct {
	res  *hfl.Result
	phi  []float64
	snap obs.Snapshot
}

// asyncRun is one arm: a streaming trainer with an attached estimator, fed
// by AsyncLocalSource (async) or by a LocalSource that drops every lagging
// participant's round.
func asyncRun(fed *federation, epochs int, fcfg faults.Config, async bool) *asyncRunOut {
	model, parts := fed.model, fed.parts
	col := &obs.Collector{}
	cfg := hfl.Config{Epochs: epochs, LR: 0.3, Participants: asyncN,
		Runtime: obs.Runtime{Sink: col}}
	tr, est := fed.observed(&hfl.Trainer{Model: model, Val: fed.val, Cfg: cfg, Stream: hfl.MeanStream{}})
	if async {
		tr.Cfg.Faults = faults.MustNew(fcfg)
		tr.Rounds = &fednet.AsyncLocalSource{
			Model: model, Parts: parts,
			Async:  hfl.AsyncConfig{Quorum: asyncN, MaxStaleness: asyncMaxStaleness},
			Faults: faults.MustNew(fcfg),
			Sink:   col,
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

// asyncStudy runs the buffered-federation study: a no-fault streamed
// reference fixes the loss target, then sync-drop and async-fold race to it
// at each sticky-straggler rate. The federation is class-disjoint —
// participant i holds exactly classes {2i, 2i+1} — so a shard that never
// reaches the aggregate leaves two classes untrained. The async arms use the
// same AsyncLocalSource / AsyncPlanner machinery the networked coordinator
// runs, so the numbers here are the loopback numbers.
func asyncStudy(o Opts) *asyncResult {
	refEpochs := o.epochs(12)
	epochs := 3 * refEpochs
	fed := newFederation(HFLSetting{Dataset: "MNIST", Samples: o.samples(2500), Seed: o.Seed}, classDisjoint)
	ref := asyncRun(fed, epochs, faults.Config{Seed: o.Seed}, false)
	target := ref.res.ValLossCurve[refEpochs]

	res := &asyncResult{}
	var heavy *asyncRunOut
	for _, rate := range asyncRates {
		fcfg := faults.Config{Seed: o.Seed, Straggler: rate, StickyStragglers: true}
		for _, async := range []bool{false, true} {
			out := asyncRun(fed, epochs, fcfg, async)
			arm := asyncArm{mode: "sync-drop", rate: rate,
				epochsToTarget: epochsToTarget(out.res.ValLossCurve, target),
				finalLoss:      out.res.FinalLoss,
				asyncCommits:   out.snap.AsyncCommits,
				staleFolds:     out.snap.StaleFolds,
				staleRejects:   out.snap.StaleRejects,
			}
			if async {
				arm.mode = "async-fold"
				if rate == 0 {
					res.freshIdentical = sameRun(ref.res, out.res)
				}
				heavy = out // the highest rate's, once the loop ends
			}
			res.rows = append(res.rows, arm)
		}
	}

	rerun := asyncRun(fed, epochs, faults.Config{Seed: o.Seed, Straggler: asyncRates[len(asyncRates)-1], StickyStragglers: true}, true)
	res.deterministic = sameRun(heavy.res, rerun.res, heavy.phi, rerun.phi)

	st, at := res.rows[len(res.rows)-2].epochsToTarget, res.rows[len(res.rows)-1].epochsToTarget
	res.stragglerAdvantage = at > 0 && (st == 0 || at < st)
	return res
}

// TestAsyncStudyGates is the buffered-federation acceptance gate: the
// rate-0 async arm must reproduce the plain streamed trainer bit for bit,
// the study must be deterministic, and at the highest sticky-straggler
// rate the staleness-discounted fold must reach the no-fault loss target
// in fewer epochs than the synchronous drop (which is floored by the
// permanently missing class-disjoint shard).
func TestAsyncStudyGates(t *testing.T) {
	r := asyncStudy(QuickOpts())
	if !r.freshIdentical {
		t.Error("rate-0 async arm not bit-identical to the streamed reference")
	}
	if !r.deterministic {
		t.Error("async arm rerun diverged (model/curve/phi)")
	}
	if !r.stragglerAdvantage {
		t.Errorf("async fold shows no epochs-to-target advantage at rate %g:\n%+v",
			asyncRates[len(asyncRates)-1], r.rows)
	}
	var folds int64
	for _, a := range r.rows {
		folds += a.staleFolds
	}
	if folds == 0 {
		t.Error("no arm folded a stale update — the lag schedule never fired")
	}
	for _, a := range r.rows {
		if a.mode == "sync-drop" && a.asyncCommits+a.staleFolds+a.staleRejects != 0 {
			t.Errorf("sync arm %+v has async counters", a)
		}
	}
	var rows []string
	for _, a := range r.rows {
		rows = append(rows, fmt.Sprintf("%g,%s,%d,%s,%d,%d,%d", a.rate, a.mode, a.epochsToTarget,
			f(a.finalLoss), a.asyncCommits, a.staleFolds, a.staleRejects))
	}
	checkGoldenRows(t, "async", rows, goldenAsync)
}

// TestAsyncStudyRerunIdentical pins the study (rows, counters, gates) as a
// pure function of Opts — the property `make verify-async` gates on.
func TestAsyncStudyRerunIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full study twice")
	}
	if a, b := asyncStudy(QuickOpts()), asyncStudy(QuickOpts()); !reflect.DeepEqual(a, b) {
		t.Errorf("async study rerun differs:\n%+v\nvs\n%+v", a, b)
	}
}
