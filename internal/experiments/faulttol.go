package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"time"

	"digfl/internal/core"
	"digfl/internal/dataset"
	"digfl/internal/faults"
	"digfl/internal/hfl"
	"digfl/internal/obs"
	"digfl/internal/tensor"
	"digfl/internal/vfl"
)

// FaultSpec parameterizes the fault-tolerance experiment: the injector
// configuration plus the checkpoint cadence and secure retry budget.
type FaultSpec struct {
	Seed            int64
	Dropout         float64
	Straggler       float64
	StragglerDelay  time.Duration
	CrashEpoch      int // 0 → two-thirds of the epoch budget
	SecureFailure   float64
	CheckpointEvery int
	MaxRetries      int
}

// DefaultFaultSpec is the configuration the CLI uses when -faults gives no
// overrides.
func DefaultFaultSpec() FaultSpec {
	return FaultSpec{
		Seed: 3, Dropout: 0.25, Straggler: 0.15, StragglerDelay: time.Millisecond,
		SecureFailure: 0.3, CheckpointEvery: 3, MaxRetries: 8,
	}
}

// ParseFaultSpec overlays a comma-separated key=value spec (e.g.
// "seed=3,dropout=0.4,crash=8,every=2") onto the default spec. Keys: seed,
// dropout, straggler, delay (Go duration), crash, secure, every, retries.
// The result is validated by the fault injector it will configure.
func ParseFaultSpec(s string) (FaultSpec, error) {
	spec := DefaultFaultSpec()
	err := overlaySpec("faults", s, map[string]any{
		"seed": &spec.Seed, "dropout": &spec.Dropout, "straggler": &spec.Straggler,
		"delay": &spec.StragglerDelay, "crash": &spec.CrashEpoch, "secure": &spec.SecureFailure,
		"every": &spec.CheckpointEvery, "retries": &spec.MaxRetries,
	})
	if err != nil {
		return spec, err
	}
	if _, err := faults.New(faults.Config{Dropout: spec.Dropout, Straggler: spec.Straggler,
		StragglerDelay: spec.StragglerDelay, CrashEpoch: spec.CrashEpoch, SecureFailure: spec.SecureFailure}); err != nil {
		return spec, fmt.Errorf("faults spec: %v", err)
	}
	return spec, nil
}

// FaultTolResult summarizes one fault-tolerance lifecycle: the injected
// fault counts, and whether the three robustness guarantees held — resume
// bit-identity, schedule determinism, and secure-retry transparency.
type FaultTolResult struct {
	Spec   FaultSpec
	Epochs int
	// Crash/resume lifecycle (effective values after scaling defaults).
	CrashEpoch  int
	Every       int
	ResumedFrom int
	// Fault counts observed during the (resumed) training run.
	Dropouts, Stragglers, DegradedEpochs, Checkpoints int
	// ResumeBitIdentical: crash + resume reproduced the uninterrupted run's
	// model, loss curve, and attribution bit for bit.
	ResumeBitIdentical bool
	// Deterministic: a second identically-seeded lifecycle produced the
	// same fault schedule (event projection) and outputs.
	Deterministic bool
	// Totals is the per-participant attribution from the resumed run.
	Totals []float64
	// Secure protocol under transient round failures.
	SecureEpochs      int
	SecureRetries     int
	SecureTransparent bool // retried run matched the unfaulted run exactly
}

// ftKey is the deterministic event projection (durations excluded).
type ftKey struct {
	Kind obs.Kind
	T    int
	Part int
	N    int64
}

type ftTrace struct {
	next   obs.Sink
	events []ftKey
	counts map[obs.Kind]int
}

func (r *ftTrace) Emit(e obs.Event) {
	if r.next != nil {
		r.next.Emit(e)
	}
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

// FaultTolerance runs the full robustness lifecycle on an HFL task and the
// secure VFL protocol and checks the PR's three guarantees end to end.
func FaultTolerance(spec FaultSpec, o Opts) *FaultTolResult {
	o.validate()
	epochs := o.epochs(12)
	crashAt := spec.CrashEpoch
	if crashAt <= 0 || crashAt > epochs {
		crashAt = 2 * epochs / 3
	}
	if crashAt < 2 {
		crashAt = 2
	}
	every := spec.CheckpointEvery
	if every <= 0 || every >= crashAt {
		every = (crashAt + 1) / 2
	}
	fcfg := faults.Config{Seed: spec.Seed, Dropout: spec.Dropout,
		Straggler: spec.Straggler, StragglerDelay: spec.StragglerDelay,
		CrashEpoch: crashAt}

	fed := iidFederation(5, o.samples(1200), o.Seed)
	newTrainer := func(sink obs.Sink) (*hfl.Trainer, *core.HFLEstimator) {
		return fed.observed(fed.trainer(hfl.Config{Epochs: epochs, LR: 0.3, KeepLog: true,
			Runtime: obs.Runtime{Sink: sink}}))
	}

	// One crash-and-resume lifecycle; deterministic for a fixed spec.
	lifecycle := func() ftRun {
		rec := &ftTrace{next: o.Sink}
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
			panic(fmt.Sprintf("experiments: expected injected crash, got %v", err))
		}
		if lastCk == nil {
			panic("experiments: crash fired before the first checkpoint")
		}

		tr2, est2 := newTrainer(rec)
		if err := est2.SetState(lastEst); err != nil {
			panic(fmt.Sprintf("experiments: estimator resume: %v", err))
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
	ref, refEst := newTrainer(o.Sink)
	ref.Cfg.Faults = faults.MustNew(fcfg).WithoutCrash()
	want := ref.Run()

	res := &FaultTolResult{
		Spec: spec, Epochs: epochs, CrashEpoch: crashAt, Every: every, ResumedFrom: a.resumedFrom,
		Dropouts:           a.trace.counts[obs.KindDropout],
		Stragglers:         a.trace.counts[obs.KindStraggler],
		DegradedEpochs:     a.degraded,
		Checkpoints:        a.trace.counts[obs.KindCheckpoint],
		Totals:             a.totals,
		ResumeBitIdentical: sameRun(a.res, want, a.totals, refEst.Attribution().Totals),
		Deterministic:      sameRun(a.res, b.res, a.trace.events, b.trace.events, a.totals, b.totals),
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
	scfg := vfl.SecureConfig{Epochs: 4, LR: 0.05, KeyBits: 256, MaskSeed: 21,
		Runtime: obs.Runtime{Sink: o.Sink}}
	res.SecureEpochs = scfg.Epochs
	clean, err := vfl.RunSecureN(prob, scfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: secure reference: %v", err))
	}
	srec := &ftTrace{next: o.Sink}
	scfg.Faults = faults.MustNew(faults.Config{Seed: spec.Seed, SecureFailure: spec.SecureFailure})
	scfg.MaxRetries = spec.MaxRetries
	scfg.Runtime.Sink = srec
	retried, err := vfl.RunSecureN(prob, scfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: secure retried run: %v", err))
	}
	res.SecureRetries = srec.counts[obs.KindRetry]
	res.SecureTransparent = reflect.DeepEqual(clean, retried)
	return res
}

// Render writes the fault-tolerance summary.
func (r *FaultTolResult) Render(w io.Writer) {
	writeHeader(w, "Fault tolerance — injected faults, crash/resume, secure retry")
	fmt.Fprintf(w, "spec: seed=%d dropout=%.2f straggler=%.2f crash=%d every=%d secure=%.2f retries=%d\n",
		r.Spec.Seed, r.Spec.Dropout, r.Spec.Straggler, r.CrashEpoch,
		r.Every, r.Spec.SecureFailure, r.Spec.MaxRetries)
	fmt.Fprintf(w, "HFL: %d epochs, %d dropouts, %d stragglers, %d degraded epochs, %d checkpoints\n",
		r.Epochs, r.Dropouts, r.Stragglers, r.DegradedEpochs, r.Checkpoints)
	fmt.Fprintf(w, "crash at epoch %d, resumed from checkpoint at epoch %d\n",
		r.CrashEpoch, r.ResumedFrom)
	fmt.Fprintf(w, "resume bit-identical to uninterrupted: %v\n", r.ResumeBitIdentical)
	fmt.Fprintf(w, "schedule + outputs deterministic across reruns: %v\n", r.Deterministic)
	fmt.Fprintf(w, "attribution totals: %s\n", fmtVec(r.Totals))
	fmt.Fprintf(w, "secure VFL: %d epochs, %d transient failures retried, result unchanged: %v\n",
		r.SecureEpochs, r.SecureRetries, r.SecureTransparent)
}

// Tables returns the CSV rendering.
func (r *FaultTolResult) Tables() map[string][][]string {
	return metricTable("fault_tolerance", r.Totals,
		"epochs", r.Epochs, "crash_epoch", r.CrashEpoch, "checkpoint_every", r.Every,
		"resumed_from", r.ResumedFrom, "dropouts", r.Dropouts, "stragglers", r.Stragglers,
		"degraded_epochs", r.DegradedEpochs, "checkpoints", r.Checkpoints,
		"resume_bit_identical", r.ResumeBitIdentical, "deterministic", r.Deterministic,
		"secure_retries", r.SecureRetries, "secure_transparent", r.SecureTransparent)
}
