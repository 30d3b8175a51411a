package experiments

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"digfl/internal/core"
	"digfl/internal/dataset"
	"digfl/internal/faults"
	"digfl/internal/hfl"
	"digfl/internal/obs"
	"digfl/internal/tensor"
	"digfl/internal/vfl"
)

// The fault-tolerance study's injected faults: dropout and stragglers on
// the HFL run (its crash epoch is set per run), transient round failures on
// the secure VFL run.
var (
	ftFaults       = faults.Config{Seed: 3, Dropout: 0.25, Straggler: 0.15, StragglerDelay: time.Millisecond}
	ftSecureFaults = faults.Config{Seed: 3, SecureFailure: 0.3}
)

// faultTolResult summarizes one fault-tolerance lifecycle: the injected
// fault counts, and whether the three robustness guarantees held — resume
// bit-identity, schedule determinism, and secure-retry transparency.
type faultTolResult struct {
	epochs int
	// Crash/resume lifecycle (effective values after scaling).
	crashEpoch, every, resumedFrom int
	// Fault counts observed during the (resumed) training run.
	dropouts, stragglers, degraded, checkpoints int
	// resumeIdentical: crash + resume reproduced the uninterrupted run's
	// model, loss curve, and attribution bit for bit.
	resumeIdentical bool
	// deterministic: a second identically-seeded lifecycle produced the
	// same fault schedule (event projection) and outputs.
	deterministic bool
	// secureRetries counts the secure run's retried rounds;
	// secureTransparent: the retried run matched the unfaulted run exactly.
	secureRetries     int
	secureTransparent bool
	// totals is the per-participant attribution from the resumed run.
	totals []float64
}

// ftKey is the deterministic event projection (durations excluded).
type ftKey struct {
	Kind obs.Kind
	T    int
	Part int
	N    int64
}

// ftTrace records the event projection of a run and counts events by kind.
type ftTrace struct {
	events []ftKey
	counts map[obs.Kind]int
}

func (r *ftTrace) Emit(e obs.Event) {
	if e.Kind == obs.KindPoolTask {
		return
	}
	r.events = append(r.events, ftKey{Kind: e.Kind, T: e.T, Part: e.Part, N: e.N})
	if r.counts == nil {
		r.counts = map[obs.Kind]int{}
	}
	r.counts[e.Kind]++
}

type ftRun struct {
	res         *hfl.Result
	totals      []float64
	degraded    int
	trace       *ftTrace
	resumedFrom int
}

// faultTolerance runs the full robustness lifecycle on an HFL task and the
// secure VFL protocol: an injected crash resumed from the last checkpoint,
// twice, against an uninterrupted reference; then a secure run under
// transient round failures against an unfaulted one.
func faultTolerance(t *testing.T, o Opts) *faultTolResult {
	t.Helper()
	epochs := o.epochs(12)
	// A crash two-thirds in, a checkpoint every 3 epochs or, if the crash
	// comes sooner, halfway to it.
	crashAt := max(2*epochs/3, 2)
	every := 3
	if every >= crashAt {
		every = (crashAt + 1) / 2
	}
	fcfg := ftFaults
	fcfg.CrashEpoch = crashAt

	fed := iidFederation(5, o.samples(1200), o.Seed)
	newTrainer := func(sink obs.Sink) (*hfl.Trainer, *core.HFLEstimator) {
		return fed.observed(fed.trainer(hfl.Config{Epochs: epochs, LR: 0.3, KeepLog: true,
			Runtime: obs.Runtime{Sink: sink}}))
	}

	// One crash-and-resume lifecycle; deterministic for a fixed config.
	lifecycle := func() ftRun {
		rec := &ftTrace{}
		var lastCk *hfl.Checkpoint
		var lastEst *core.EstimatorState
		tr, est := newTrainer(rec)
		tr.Cfg.Faults = faults.MustNew(fcfg)
		tr.Cfg.CheckpointEvery = every
		tr.Cfg.CheckpointFunc = func(ck *hfl.Checkpoint) error {
			cp := *ck
			cp.Log = append([]*hfl.Epoch(nil), ck.Log...)
			lastCk, lastEst = &cp, est.State()
			return nil
		}
		_, err := tr.RunContext(context.Background())
		var ce *faults.CrashError
		if !errors.As(err, &ce) {
			t.Fatalf("expected the injected crash, got %v", err)
		}
		if lastCk == nil {
			t.Fatal("crash fired before the first checkpoint")
		}

		tr2, est2 := newTrainer(rec)
		if err := est2.SetState(lastEst); err != nil {
			t.Fatalf("estimator resume: %v", err)
		}
		tr2.Cfg.Faults = faults.MustNew(fcfg).WithoutCrash()
		tr2.Cfg.Resume = lastCk
		out := ftRun{res: tr2.Run(), trace: rec, resumedFrom: lastCk.Epoch}
		out.totals = est2.Attribution().Totals
		for _, ep := range out.res.Log {
			if ep.Reported != nil {
				out.degraded++
			}
		}
		return out
	}

	a := lifecycle()
	b := lifecycle()

	// Uninterrupted reference: same schedule, crash disarmed from the start.
	ref, refEst := newTrainer(nil)
	ref.Cfg.Faults = faults.MustNew(fcfg).WithoutCrash()
	want := ref.Run()

	res := &faultTolResult{
		epochs: epochs, crashEpoch: crashAt, every: every, resumedFrom: a.resumedFrom,
		dropouts:        a.trace.counts[obs.KindDropout],
		stragglers:      a.trace.counts[obs.KindStraggler],
		degraded:        a.degraded,
		checkpoints:     a.trace.counts[obs.KindCheckpoint],
		totals:          a.totals,
		resumeIdentical: sameRun(a.res, want, a.totals, refEst.Attribution().Totals),
		deterministic:   sameRun(a.res, b.res, a.trace.events, b.trace.events, a.totals, b.totals),
	}

	// Secure protocol: transient round failures with retries must be
	// invisible in the result.
	sfull := dataset.SynthTabular(dataset.TabularConfig{
		Name: "ft-sec", N: 48, D: 4, Task: dataset.Regression, Informative: 3,
		Noise: 0.2, Seed: o.Seed,
	})
	strain, sval := sfull.Split(0.25, tensor.NewRNG(o.Seed))
	prob := &vfl.Problem{Train: strain, Val: sval,
		Blocks: dataset.VerticalBlocks(4, 2), Kind: vfl.LinReg}
	scfg := vfl.SecureConfig{Epochs: 4, LR: 0.05, KeyBits: 256, MaskSeed: 21}
	clean, err := vfl.RunSecureN(prob, scfg)
	if err != nil {
		t.Fatalf("secure reference: %v", err)
	}
	srec := &ftTrace{}
	scfg.Faults = faults.MustNew(ftSecureFaults)
	scfg.MaxRetries = 8
	scfg.Runtime.Sink = srec
	retried, err := vfl.RunSecureN(prob, scfg)
	if err != nil {
		t.Fatalf("secure retried run: %v", err)
	}
	res.secureRetries = srec.counts[obs.KindRetry]
	res.secureTransparent = reflect.DeepEqual(clean, retried)
	return res
}

func TestFaultTolerance(t *testing.T) {
	r := faultTolerance(t, QuickOpts())
	if !r.resumeIdentical {
		t.Error("crash+resume should be bit-identical to the uninterrupted run")
	}
	if !r.deterministic {
		t.Error("identically-seeded lifecycles should match exactly")
	}
	if !r.secureTransparent {
		t.Error("secure retries should not change the protocol result")
	}
	if r.dropouts == 0 || r.degraded == 0 {
		t.Errorf("the dropout rate fired nothing: %+v", r)
	}
	if r.checkpoints == 0 {
		t.Error("no checkpoints recorded")
	}
	if r.secureRetries == 0 {
		t.Error("30% secure failure rate fired no retries")
	}
	if !reflect.DeepEqual(*r, goldenFaults) {
		t.Errorf("study differs from its golden:\n%+v\nwant:\n%+v", *r, goldenFaults)
	}
}
