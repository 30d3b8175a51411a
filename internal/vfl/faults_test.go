package vfl

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"digfl/internal/faults"
	"digfl/internal/obs"
)

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

func sameVFLLog(t *testing.T, a, b []*Epoch) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("log lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.T != y.T || x.LR != y.LR || x.ValLoss != y.ValLoss {
			t.Fatalf("epoch %d scalars differ", i)
		}
		if !sameVec(x.Theta, y.Theta) || !sameVec(x.Grad, y.Grad) ||
			!sameVec(x.ValGrad, y.ValGrad) || !sameVec(x.Weights, y.Weights) {
			t.Fatalf("epoch %d vectors differ", i)
		}
		if !reflect.DeepEqual(x.Reported, y.Reported) {
			t.Fatalf("epoch %d Reported differs: %v vs %v", i, x.Reported, y.Reported)
		}
	}
}

func TestVFLZeroFaultsBitIdentical(t *testing.T) {
	cfg := Config{Epochs: 25, LR: 0.05, KeepLog: true}
	plain := (&Trainer{Problem: regProblem(1), Cfg: cfg}).Run()

	cfg.Faults = faults.MustNew(faults.Config{Seed: 31}) // all rates zero
	res, err := (&Trainer{Problem: regProblem(1), Cfg: cfg}).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !sameVec(plain.Model.Params(), res.Model.Params()) {
		t.Fatal("zero-fault injector perturbed the model")
	}
	if !sameVec(plain.ValLossCurve, res.ValLossCurve) {
		t.Fatal("zero-fault injector perturbed the loss curve")
	}
	sameVFLLog(t, plain.Log, res.Log)
	for _, ep := range res.Log {
		if ep.Reported != nil {
			t.Fatal("fault-free epoch must keep Reported nil")
		}
	}
}

func TestVFLDropoutFreezesBlocks(t *testing.T) {
	prob := regProblem(2)
	inj := faults.MustNew(faults.Config{Seed: 12, Dropout: 0.3})
	tr := &Trainer{Problem: prob, Cfg: Config{Epochs: 40, LR: 0.05, KeepLog: true, Faults: inj}}
	res, err := tr.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	degraded := 0
	for _, ep := range res.Log {
		if ep.Reported == nil {
			continue
		}
		degraded++
		reported := make(map[int]bool, len(ep.Reported))
		for _, i := range ep.Reported {
			reported[i] = true
			if inj.DropsOut(ep.T, i) {
				t.Fatalf("epoch %d: party %d reported but scheduled to drop", ep.T, i)
			}
		}
		// A dropped party's block of the update must be frozen at zero.
		for i, b := range prob.Blocks {
			if reported[i] {
				continue
			}
			for j := b.Lo; j < b.Hi; j++ {
				if ep.Grad[j] != 0 {
					t.Fatalf("epoch %d: dropped party %d has nonzero grad at %d", ep.T, i, j)
				}
			}
		}
	}
	if degraded == 0 {
		t.Fatal("30% dropout over 40 epochs fired nothing")
	}
	if res.FinalLoss >= res.InitLoss {
		t.Fatalf("dropout run failed to train: %v -> %v", res.InitLoss, res.FinalLoss)
	}
}

func TestVFLCrashResumeBitIdentical(t *testing.T) {
	const crashAt = 17
	fcfg := faults.Config{Seed: 9, Dropout: 0.2, CrashEpoch: crashAt}
	cfg := Config{Epochs: 30, LR: 0.05, KeepLog: true}

	ref := cfg
	ref.Faults = faults.MustNew(fcfg).WithoutCrash()
	want, err := (&Trainer{Problem: regProblem(3), Cfg: ref}).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var last *Checkpoint
	crash := cfg
	crash.Faults = faults.MustNew(fcfg)
	crash.CheckpointEvery = 5
	crash.CheckpointFunc = func(ck *Checkpoint) error {
		cp := *ck
		cp.Log = append([]*Epoch(nil), ck.Log...)
		last = &cp
		return nil
	}
	_, err = (&Trainer{Problem: regProblem(3), Cfg: crash}).RunContext(context.Background())
	var ce *faults.CrashError
	if !errors.As(err, &ce) || ce.Epoch != crashAt {
		t.Fatalf("expected crash at %d, got %v", crashAt, err)
	}
	if last == nil || last.Epoch != 15 {
		t.Fatalf("latest checkpoint should be epoch 15, got %+v", last)
	}

	resume := cfg
	resume.Faults = faults.MustNew(fcfg).WithoutCrash()
	resume.Resume = last
	got, err := (&Trainer{Problem: regProblem(3), Cfg: resume}).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !sameVec(want.Model.Params(), got.Model.Params()) {
		t.Fatal("resumed model differs from uninterrupted run")
	}
	if !sameVec(want.ValLossCurve, got.ValLossCurve) {
		t.Fatal("resumed loss curve differs")
	}
	sameVFLLog(t, want.Log, got.Log)
}

// retryRecorder counts retry events per epoch.
type retryRecorder struct {
	retries map[int]int
}

func (r *retryRecorder) Emit(e obs.Event) {
	if e.Kind == obs.KindRetry {
		if r.retries == nil {
			r.retries = map[int]int{}
		}
		r.retries[e.T]++
	}
}

// Transient secure-round failures are retried and the eventual result is
// bit-identical to an unfaulted protocol run.
func TestSecureRetryBitIdentical(t *testing.T) {
	prob := twoPartyProblem(4, 40, 4)
	base := SecureConfig{Epochs: 4, LR: 0.05, KeyBits: 256, MaskSeed: 21}
	want, err := RunSecureN(prob, base)
	if err != nil {
		t.Fatal(err)
	}

	rec := &retryRecorder{}
	cfg := base
	cfg.Faults = faults.MustNew(faults.Config{Seed: 2, SecureFailure: 0.4})
	cfg.MaxRetries = 10
	cfg.Runtime.Sink = rec
	got, err := RunSecureN(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.retries) == 0 {
		t.Fatal("40% failure rate over 8 rounds fired no retries")
	}
	if !sameVec(want.Theta, got.Theta) {
		t.Fatal("retried protocol produced a different model")
	}
	if !sameVec(want.Shapley, got.Shapley) {
		t.Fatalf("retried protocol changed contributions: %v vs %v", want.Shapley, got.Shapley)
	}
	if want.CommBytes != got.CommBytes {
		t.Fatalf("successful-round communication must match: %d vs %d", want.CommBytes, got.CommBytes)
	}
}

func TestSecureRetriesExhausted(t *testing.T) {
	prob := twoPartyProblem(4, 40, 4)
	cfg := SecureConfig{Epochs: 4, LR: 0.05, KeyBits: 256, MaskSeed: 21}
	// Near-certain failure with no retry budget exhausts immediately.
	cfg.Faults = faults.MustNew(faults.Config{Seed: 1, SecureFailure: 0.99})
	cfg.MaxRetries = 0
	_, err := RunSecureN(prob, cfg)
	if !errors.Is(err, faults.ErrRetriesExhausted) {
		t.Fatalf("expected ErrRetriesExhausted, got %v", err)
	}
}

func TestVFLRunEReturnsErrors(t *testing.T) {
	tr := &Trainer{Problem: regProblem(1), Cfg: Config{Epochs: 0, LR: 0.1}}
	if _, err := tr.RunContext(context.Background()); err == nil {
		t.Fatal("invalid config should be an error from RunContext")
	}
	tr = &Trainer{Problem: regProblem(1), Cfg: Config{Epochs: 5, LR: 0.1,
		Resume: &Checkpoint{Epoch: 99}}}
	if _, err := tr.RunContext(context.Background()); err == nil {
		t.Fatal("invalid resume checkpoint should be an error")
	}
}
