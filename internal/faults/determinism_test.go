package faults_test

// The fault-injection determinism suite: for a set of fixed seeds, two
// independent full runs — training with dropout, stragglers, an injected
// crash, checkpointing, resume, and online contribution estimation — must
// produce the same fault schedule, the same observability-event projection,
// the same model bits, and the same attribution. This is the suite the
// `make verify-faults` target runs; any nondeterminism fails it.

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
	"digfl/internal/nn"
	"digfl/internal/obs"
	"digfl/internal/tensor"
)

// eventKey is the deterministic projection of an observability event:
// durations vary run to run, everything else must not.
type eventKey struct {
	Kind obs.Kind
	T    int
	Part int
	N    int64
}

type trace struct {
	events []eventKey
}

func (r *trace) Emit(e obs.Event) {
	// Pool and local-update events interleave nondeterministically across
	// workers; this suite runs serial, but exclude them anyway so the
	// projection stays meaningful under -race with parallel configs.
	if e.Kind == obs.KindPoolTask {
		return
	}
	r.events = append(r.events, eventKey{Kind: e.Kind, T: e.T, Part: e.Part, N: e.N})
}

type runOutput struct {
	params  []float64
	curve   []float64
	totals  []float64
	events  []eventKey
	retries int
}

// faultedRun executes the full fault-tolerance lifecycle for one seed:
// train with dropout + stragglers + crash-at-epoch under checkpointing,
// then resume from the latest checkpoint (trainer and estimator state) and
// finish the run.
func faultedRun(t *testing.T, seed int64) runOutput {
	t.Helper()
	const epochs, crashAt, every = 12, 8, 3
	rng := tensor.NewRNG(seed)
	full := dataset.MNISTLike(240, seed)
	train, val := full.Split(0.25, rng)
	parts := dataset.PartitionIID(train, 4, rng)

	fcfg := faults.Config{Seed: seed * 1000, Dropout: 0.3, Straggler: 0.2,
		StragglerDelay: 50 * time.Microsecond, CrashEpoch: crashAt}

	newTrainer := func(est *core.HFLEstimator, rec *trace) *hfl.Trainer {
		tr := &hfl.Trainer{
			Model: nn.NewSoftmaxRegression(train.Dim(), train.Classes),
			Parts: parts,
			Val:   val,
			Cfg:   hfl.Config{Epochs: epochs, LR: 0.3, KeepLog: true},
		}
		tr.Cfg.Runtime.Sink = rec
		tr.Observer = func(ep *hfl.Epoch) { est.Observe(ep) }
		return tr
	}

	rec := &trace{}
	p := nn.NewSoftmaxRegression(train.Dim(), train.Classes).NumParams()
	est := core.NewHFLEstimator(len(parts), p, core.ResourceSaving, nil)
	var lastCk *hfl.Checkpoint
	var lastEst *core.EstimatorState
	tr := newTrainer(est, rec)
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
	if !errors.As(err, &ce) || ce.Epoch != crashAt {
		t.Fatalf("seed %d: expected crash at %d, got %v", seed, crashAt, err)
	}
	if lastCk == nil || lastEst == nil {
		t.Fatalf("seed %d: crash before first checkpoint", seed)
	}

	// "Process restart": fresh trainer and estimator, state reinstalled,
	// crash disarmed, same schedule.
	est2 := core.NewHFLEstimator(len(parts), p, core.ResourceSaving, nil)
	if err := est2.SetState(lastEst); err != nil {
		t.Fatalf("seed %d: SetState: %v", seed, err)
	}
	tr2 := newTrainer(est2, rec)
	tr2.Cfg.Faults = faults.MustNew(fcfg).WithoutCrash()
	tr2.Cfg.Resume = lastCk
	res, err := tr2.RunContext(context.Background())
	if err != nil {
		t.Fatalf("seed %d: resume: %v", seed, err)
	}

	out := runOutput{
		params: append([]float64(nil), res.Model.Params()...),
		curve:  append([]float64(nil), res.ValLossCurve...),
		totals: append([]float64(nil), est2.Attribution().Totals...),
		events: rec.events,
	}
	for _, e := range rec.events {
		if e.Kind == obs.KindRetry {
			out.retries++
		}
	}
	return out
}

// TestFaultScheduleDeterministic is the acceptance gate: same seed, same
// dropout schedule, same event trace, same resumed outputs — twice over,
// for three fixed seeds.
func TestFaultScheduleDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		a := faultedRun(t, seed)
		b := faultedRun(t, seed)
		if !reflect.DeepEqual(a.events, b.events) {
			t.Fatalf("seed %d: event traces differ (%d vs %d events)", seed, len(a.events), len(b.events))
		}
		if !reflect.DeepEqual(a.params, b.params) {
			t.Fatalf("seed %d: model bits differ across identical runs", seed)
		}
		if !reflect.DeepEqual(a.curve, b.curve) {
			t.Fatalf("seed %d: loss curves differ", seed)
		}
		if !reflect.DeepEqual(a.totals, b.totals) {
			t.Fatalf("seed %d: attributions differ", seed)
		}
	}
}

// TestCrashResumeMatchesUninterrupted asserts the headline guarantee with
// the estimator in the loop: crash + resume (trainer state via checkpoint,
// estimator state via SetState) is bit-identical to never crashing.
func TestCrashResumeMatchesUninterrupted(t *testing.T) {
	const seed = 2
	rng := tensor.NewRNG(seed)
	full := dataset.MNISTLike(240, seed)
	train, val := full.Split(0.25, rng)
	parts := dataset.PartitionIID(train, 4, rng)
	fcfg := faults.Config{Seed: 77, Dropout: 0.3, CrashEpoch: 8}

	run := func(inj *faults.Injector, every int, resumeFrom *hfl.Checkpoint,
		est *core.HFLEstimator, onCkpt func(*hfl.Checkpoint)) (*hfl.Result, error) {
		tr := &hfl.Trainer{
			Model: nn.NewSoftmaxRegression(train.Dim(), train.Classes),
			Parts: parts,
			Val:   val,
			Cfg:   hfl.Config{Epochs: 12, LR: 0.3, KeepLog: true, Faults: inj, Resume: resumeFrom},
		}
		tr.Observer = func(ep *hfl.Epoch) { est.Observe(ep) }
		if every > 0 {
			tr.Cfg.CheckpointEvery = every
			tr.Cfg.CheckpointFunc = func(ck *hfl.Checkpoint) error {
				cp := *ck
				cp.Log = append([]*hfl.Epoch(nil), ck.Log...)
				onCkpt(&cp)
				return nil
			}
		}
		return tr.RunContext(context.Background())
	}

	p := nn.NewSoftmaxRegression(train.Dim(), train.Classes).NumParams()
	refEst := core.NewHFLEstimator(len(parts), p, core.ResourceSaving, nil)
	want, err := run(faults.MustNew(fcfg).WithoutCrash(), 0, nil, refEst, nil)
	if err != nil {
		t.Fatal(err)
	}

	var lastCk *hfl.Checkpoint
	var lastEst *core.EstimatorState
	crashEst := core.NewHFLEstimator(len(parts), p, core.ResourceSaving, nil)
	_, err = run(faults.MustNew(fcfg), 3, nil, crashEst, func(ck *hfl.Checkpoint) {
		lastCk, lastEst = ck, crashEst.State()
	})
	var ce *faults.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("expected injected crash, got %v", err)
	}

	resEst := core.NewHFLEstimator(len(parts), p, core.ResourceSaving, nil)
	if err := resEst.SetState(lastEst); err != nil {
		t.Fatal(err)
	}
	got, err := run(faults.MustNew(fcfg).WithoutCrash(), 0, lastCk, resEst, nil)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(want.Model.Params(), got.Model.Params()) {
		t.Fatal("resumed model differs from uninterrupted run")
	}
	if !reflect.DeepEqual(want.ValLossCurve, got.ValLossCurve) {
		t.Fatal("resumed loss curve differs")
	}
	wa, ga := refEst.Attribution(), resEst.Attribution()
	if !reflect.DeepEqual(wa.Totals, ga.Totals) {
		t.Fatalf("resumed attribution differs: %v vs %v", wa.Totals, ga.Totals)
	}
	if !reflect.DeepEqual(wa.PerEpoch, ga.PerEpoch) {
		t.Fatal("resumed per-epoch attribution differs")
	}
	if len(want.Log) != len(got.Log) {
		t.Fatalf("log lengths differ: %d vs %d", len(want.Log), len(got.Log))
	}
	for i := range want.Log {
		if !reflect.DeepEqual(want.Log[i], got.Log[i]) {
			t.Fatalf("log epoch %d differs", i+1)
		}
	}
}
