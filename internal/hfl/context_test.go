package hfl

import (
	"context"
	"errors"
	"testing"
)

// cancelRun executes a run that cancels itself from the checkpoint hook
// after cancelAt completes, returning the last checkpoint written.
func cancelRun(t *testing.T, seed int64, every, cancelAt int) *Checkpoint {
	t.Helper()
	tr, _ := setup(t, seed)
	tr.Cfg.CheckpointEvery = every
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last *Checkpoint
	tr.Cfg.CheckpointFunc = func(ck *Checkpoint) error {
		last = ck
		if ck.Epoch >= cancelAt {
			cancel()
		}
		return nil
	}
	res, err := tr.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = (%v, %v), want context.Canceled", res, err)
	}
	if last == nil || last.Epoch != cancelAt {
		t.Fatalf("last checkpoint %+v, want epoch %d", last, cancelAt)
	}
	return last
}

// TestCancellationPreservesCheckpoint pins the RunContext contract:
// cancellation aborts at the next epoch boundary, the checkpoints already
// written stay valid resume points, and resuming from the last one is
// bit-identical to an uninterrupted run.
func TestCancellationPreservesCheckpoint(t *testing.T) {
	const seed, every, cancelAt = 4, 2, 8

	ref, _ := setup(t, seed)
	ref.Cfg.CheckpointEvery = every
	ref.Cfg.CheckpointFunc = func(*Checkpoint) error { return nil }
	want, err := ref.RunContext(context.Background())
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	ck := cancelRun(t, seed, every, cancelAt)
	if len(ck.Theta) != ref.Model.NumParams() {
		t.Fatalf("checkpoint theta has %d params", len(ck.Theta))
	}
	if len(ck.ValLossCurve) != cancelAt+1 {
		t.Fatalf("checkpoint curve has %d points, want %d", len(ck.ValLossCurve), cancelAt+1)
	}

	resumed, _ := setup(t, seed)
	resumed.Cfg.CheckpointEvery = every
	resumed.Cfg.CheckpointFunc = func(*Checkpoint) error { return nil }
	resumed.Cfg.Resume = ck
	got, err := resumed.RunContext(context.Background())
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}

	for i := range want.Model.Params() {
		if want.Model.Params()[i] != got.Model.Params()[i] {
			t.Fatal("resumed model differs from uninterrupted run")
		}
	}
	if len(want.ValLossCurve) != len(got.ValLossCurve) {
		t.Fatalf("curve lengths %d vs %d", len(want.ValLossCurve), len(got.ValLossCurve))
	}
	for i := range want.ValLossCurve {
		if want.ValLossCurve[i] != got.ValLossCurve[i] {
			t.Fatalf("curve diverges at %d: %v vs %v", i, want.ValLossCurve[i], got.ValLossCurve[i])
		}
	}
	if len(got.Log) != len(want.Log) {
		t.Fatalf("resumed log has %d epochs, want %d", len(got.Log), len(want.Log))
	}
}

// TestRunContextPreCanceled checks a canceled context aborts before any
// training side effect.
func TestRunContextPreCanceled(t *testing.T) {
	tr, _ := setup(t, 5)
	observed := 0
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
