package vfl

import (
	"context"
	"errors"
	"testing"
)

// TestCancellationPreservesCheckpoint mirrors the horizontal trainer's
// contract: cancellation mid-run leaves the last checkpoint a valid resume
// point, and the resumed run is bit-identical to an uninterrupted one.
func TestCancellationPreservesCheckpoint(t *testing.T) {
	const every, cancelAt = 3, 9
	cfg := Config{Epochs: 24, LR: 0.05, KeepLog: true, CheckpointEvery: every}

	ref := &Trainer{Problem: regProblem(21), Cfg: cfg}
	ref.Cfg.CheckpointFunc = func(*Checkpoint) error { return nil }
	want, err := ref.RunContext(context.Background())
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last *Checkpoint
	interrupted := &Trainer{Problem: regProblem(21), Cfg: cfg}
	interrupted.Cfg.CheckpointFunc = func(ck *Checkpoint) error {
		last = ck
		if ck.Epoch >= cancelAt {
			cancel()
		}
		return nil
	}
	if _, err := interrupted.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if last == nil || last.Epoch != cancelAt {
		t.Fatalf("last checkpoint %+v, want epoch %d", last, cancelAt)
	}
	if len(last.ValLossCurve) != cancelAt+1 {
		t.Fatalf("checkpoint curve has %d points, want %d", len(last.ValLossCurve), cancelAt+1)
	}

	resumed := &Trainer{Problem: regProblem(21), Cfg: cfg}
	resumed.Cfg.CheckpointFunc = func(*Checkpoint) error { return nil }
	resumed.Cfg.Resume = last
	got, err := resumed.RunContext(context.Background())
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}

	for i := range want.Model.Params() {
		if want.Model.Params()[i] != got.Model.Params()[i] {
			t.Fatal("resumed model differs from uninterrupted run")
		}
	}
	for i := range want.ValLossCurve {
		if want.ValLossCurve[i] != got.ValLossCurve[i] {
			t.Fatalf("curve diverges at %d", i)
		}
	}
	if len(got.Log) != len(want.Log) {
		t.Fatalf("resumed log has %d epochs, want %d", len(got.Log), len(want.Log))
	}
}

// TestRunContextPreCanceled checks a canceled context aborts before any
// training side effect.
func TestRunContextPreCanceled(t *testing.T) {
	observed := 0
	tr := &Trainer{Problem: regProblem(22), Cfg: Config{Epochs: 10, LR: 0.05}}
	tr.Observer = func(*Epoch) { observed++ }
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tr.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if observed != 0 {
		t.Fatalf("pre-canceled run observed %d epochs", observed)
	}
}
