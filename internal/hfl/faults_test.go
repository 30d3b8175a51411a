package hfl

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"digfl/internal/faults"
	"digfl/internal/obs"
)

// sameVec is bit-identity, not tolerance: fault tolerance must not perturb
// a single ULP of a run where nothing fired.
func sameVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameLog(t *testing.T, a, b []*Epoch) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("log lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.T != y.T || x.LR != y.LR || x.ValLoss != y.ValLoss {
			t.Fatalf("epoch %d scalars differ", i)
		}
		if !sameVec(x.Theta, y.Theta) || !sameVec(x.ValGrad, y.ValGrad) || !sameVec(x.Weights, y.Weights) {
			t.Fatalf("epoch %d vectors differ", i)
		}
		if len(x.Deltas) != len(y.Deltas) {
			t.Fatalf("epoch %d delta counts differ: %d vs %d", i, len(x.Deltas), len(y.Deltas))
		}
		for k := range x.Deltas {
			if !sameVec(x.Deltas[k], y.Deltas[k]) {
				t.Fatalf("epoch %d delta %d differs", i, k)
			}
		}
		if !reflect.DeepEqual(x.Reported, y.Reported) {
			t.Fatalf("epoch %d Reported differs: %v vs %v", i, x.Reported, y.Reported)
		}
	}
}

// kindRecorder captures the event stream's deterministic projection
// (kind, epoch, participant, count) — durations vary run to run.
type kindRecorder struct {
	events [][4]int64
}

func (r *kindRecorder) Emit(e obs.Event) {
	r.events = append(r.events, [4]int64{int64(e.Kind), int64(e.T), int64(e.Part), e.N})
}

// An attached injector whose schedule fires nothing must leave every output
// bit-identical to a run with no injector at all — including the absence of
// Reported fields and of any fault-kind events.
func TestZeroFaultsBitIdentical(t *testing.T) {
	base, _ := setup(t, 1)
	plain := base.Run()

	faulty, _ := setup(t, 1)
	faulty.Cfg.Faults = faults.MustNew(faults.Config{Seed: 99}) // all rates zero
	rec := &kindRecorder{}
	faulty.Cfg.Runtime.Sink = rec
	res, err := faulty.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if !sameVec(plain.Model.Params(), res.Model.Params()) {
		t.Fatal("zero-fault injector perturbed the model")
	}
	if !sameVec(plain.ValLossCurve, res.ValLossCurve) {
		t.Fatal("zero-fault injector perturbed the loss curve")
	}
	sameLog(t, plain.Log, res.Log)
	for _, ep := range res.Log {
		if ep.Reported != nil {
			t.Fatal("fault-free epoch must keep Reported nil")
		}
	}
	for _, e := range rec.events {
		switch obs.Kind(e[0]) {
		case obs.KindDropout, obs.KindStraggler, obs.KindCrash, obs.KindRetry, obs.KindResume:
			t.Fatalf("zero-fault run emitted fault event %v", obs.Kind(e[0]))
		}
	}
}

func TestDropoutRenormalizesOverSurvivors(t *testing.T) {
	tr, _ := setup(t, 3)
	tr.Cfg.Epochs = 30
	inj := faults.MustNew(faults.Config{Seed: 8, Dropout: 0.35})
	tr.Cfg.Faults = inj
	res, err := tr.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	degraded := 0
	for _, ep := range res.Log {
		if ep.Reported == nil {
			if len(ep.Deltas) != len(tr.Parts) {
				t.Fatalf("epoch %d: full epoch has %d deltas", ep.T, len(ep.Deltas))
			}
			continue
		}
		degraded++
		if len(ep.Deltas) != len(ep.Reported) {
			t.Fatalf("epoch %d: %d deltas for %d survivors", ep.T, len(ep.Deltas), len(ep.Reported))
		}
		for _, i := range ep.Reported {
			if inj.DropsOut(ep.T, i) {
				t.Fatalf("epoch %d: %d reported but scheduled to drop", ep.T, i)
			}
		}
	}
	if degraded == 0 {
		t.Fatal("35% dropout over 30 epochs fired nothing — schedule broken")
	}
	// The model still trains on the surviving updates.
	if res.FinalLoss >= res.InitLoss {
		t.Fatalf("dropout run failed to train: %v -> %v", res.InitLoss, res.FinalLoss)
	}
}

// Crash at epoch k, resume from the latest checkpoint: the stitched run must
// be bit-identical to an uninterrupted one under the same fault schedule.
func TestCrashResumeBitIdentical(t *testing.T) {
	const crashAt = 11
	cfg := faults.Config{Seed: 5, Dropout: 0.25, CrashEpoch: crashAt}

	// Uninterrupted reference: same schedule, crash disarmed.
	ref, _ := setup(t, 4)
	ref.Cfg.Faults = faults.MustNew(cfg).WithoutCrash()
	want, err := ref.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Crashing run with periodic checkpoints.
	var last *Checkpoint
	crash, _ := setup(t, 4)
	crash.Cfg.Faults = faults.MustNew(cfg)
	crash.Cfg.CheckpointEvery = 3
	crash.Cfg.CheckpointFunc = func(ck *Checkpoint) error {
		// Deep-copy the aliased log like a real serializer would.
		cp := *ck
		cp.Log = append([]*Epoch(nil), ck.Log...)
		last = &cp
		return nil
	}
	_, err = crash.RunContext(context.Background())
	var ce *faults.CrashError
	if !errors.As(err, &ce) || ce.Epoch != crashAt {
		t.Fatalf("expected crash at %d, got %v", crashAt, err)
	}
	if last == nil || last.Epoch != 9 {
		t.Fatalf("latest checkpoint should be epoch 9, got %+v", last)
	}

	// Resume: crash disarmed (the process restarted), schedule unchanged.
	resumed, _ := setup(t, 4)
	resumed.Cfg.Faults = faults.MustNew(cfg).WithoutCrash()
	resumed.Cfg.Resume = last
	got, err := resumed.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if !sameVec(want.Model.Params(), got.Model.Params()) {
		t.Fatal("resumed model differs from uninterrupted run")
	}
	if !sameVec(want.ValLossCurve, got.ValLossCurve) {
		t.Fatal("resumed loss curve differs")
	}
	if want.InitLoss != got.InitLoss || want.FinalLoss != got.FinalLoss {
		t.Fatal("resumed losses differ")
	}
	sameLog(t, want.Log, got.Log)
}

func TestCheckpointCadenceAndResumeEvents(t *testing.T) {
	tr, _ := setup(t, 6)
	tr.Cfg.Epochs = 10
	var epochs []int
	tr.Cfg.CheckpointEvery = 4
	tr.Cfg.CheckpointFunc = func(ck *Checkpoint) error {
		epochs = append(epochs, ck.Epoch)
		if len(ck.Theta) != tr.Model.NumParams() {
			t.Errorf("checkpoint theta has %d params", len(ck.Theta))
		}
		if len(ck.ValLossCurve) != ck.Epoch+1 {
			t.Errorf("checkpoint curve has %d entries for epoch %d", len(ck.ValLossCurve), ck.Epoch)
		}
		return nil
	}
	rec := &kindRecorder{}
	tr.Cfg.Runtime.Sink = rec
	if _, err := tr.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(epochs, []int{4, 8}) {
		t.Fatalf("checkpoints at %v, want [4 8]", epochs)
	}
	ckptEvents := 0
	for _, e := range rec.events {
		if obs.Kind(e[0]) == obs.KindCheckpoint {
			ckptEvents++
		}
	}
	if ckptEvents != 2 {
		t.Fatalf("%d checkpoint events, want 2", ckptEvents)
	}
}

func TestCheckpointErrorAbortsRun(t *testing.T) {
	tr, _ := setup(t, 6)
	tr.Cfg.CheckpointEvery = 2
	tr.Cfg.CheckpointFunc = func(ck *Checkpoint) error { return fmt.Errorf("disk full") }
	if _, err := tr.RunContext(context.Background()); err == nil {
		t.Fatal("checkpoint write failure should abort the run")
	}
}

func TestRunEReturnsConfigErrors(t *testing.T) {
	tr, _ := setup(t, 1)
	tr.Cfg.Epochs = 0
	if _, err := tr.RunContext(context.Background()); err == nil {
		t.Fatal("invalid config should be an error from RunContext")
	}
	tr, _ = setup(t, 1)
	tr.Cfg.Resume = &Checkpoint{Epoch: 99, Theta: nil}
	if _, err := tr.RunContext(context.Background()); err == nil {
		t.Fatal("invalid resume checkpoint should be an error")
	}
}

type badAggregator struct{}

func (badAggregator) Aggregate(ep *Epoch) ([]float64, error) { return []float64{1}, nil }

// fixedReweighter returns a copy of r whatever the epoch.
type fixedReweighter []float64

func (r fixedReweighter) Weights(*Epoch) []float64 { return append([]float64(nil), r...) }

// zeroAggregator returns a zero update, reading nothing of the epoch.
type zeroAggregator struct{}

func (zeroAggregator) Aggregate(ep *Epoch) ([]float64, error) {
	return make([]float64, len(ep.Theta)), nil
}

func TestPluginShapeMismatchesAreErrors(t *testing.T) {
	tr, _ := setup(t, 1)
	tr.Aggregator = badAggregator{}
	if _, err := tr.RunContext(context.Background()); err == nil {
		t.Fatal("aggregator shape mismatch should be an error")
	}
	// A reweighter's output is checked before any aggregation reads it,
	// with or without an Aggregator: three participants report.
	for _, c := range []struct {
		name, want string
		r          fixedReweighter
	}{
		{"short", "returned 2 weights for 3 participants", fixedReweighter{1, 1}},
		{"long", "returned 4 weights for 3 participants", fixedReweighter{1, 1, 1, 1}},
		{"NaN", "at position 1", fixedReweighter{1, math.NaN(), 1}},
		{"negative", "at position 2", fixedReweighter{1, 1, -1}},
		{"+Inf", "at position 0", fixedReweighter{math.Inf(1), 1, 1}},
	} {
		for _, agg := range []Aggregator{nil, zeroAggregator{}} {
			tr, _ := setup(t, 1)
			tr.Reweighter, tr.Aggregator = c.r, agg
			_, err := tr.RunContext(context.Background())
			if err == nil || !strings.Contains(err.Error(), "epoch 1: reweighter") || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s reweighter (Aggregator %T): error %v, want epoch 1 and %q", c.name, agg, err, c.want)
			}
		}
	}
}
