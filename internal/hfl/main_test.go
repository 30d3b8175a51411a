package hfl

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"digfl/internal/faults"
	"digfl/internal/sampling"
)

// goroutinesSettle waits up to wait for the process to be back at limit
// goroutines and reports whether it got there (fednet's TestMain has the
// same check). A goroutine that is merely finishing — the trainer's cohort
// draw has sent its result and is returning — exits well inside the wait;
// one blocked forever does not.
func goroutinesSettle(limit int, wait time.Duration) bool {
	for deadline := time.Now().Add(wait); runtime.NumGoroutine() > limit; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestMain fails the package if goroutines its tests started outlive them:
// the trainer starts one per sampled epoch and must have collected each by
// the time it returns.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 && !goroutinesSettle(before, 5*time.Second) {
		buf := make([]byte, 1<<20)
		fmt.Fprintf(os.Stderr, "hfl: %d goroutines outlived the tests (%d before them):\n%s\n",
			runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		code = 1
	}
	os.Exit(code)
}

// cancelingSource is a round source whose participants never answer: at
// epoch at it cancels the run and fails the round the way a blocked source
// does — mid-epoch, with the next epoch's cohort draw already in flight.
type cancelingSource struct {
	at     int
	cancel context.CancelFunc
	inner  func(*RoundSpec) *RoundResult
}

func (s *cancelingSource) Round(ctx context.Context, spec *RoundSpec) (*RoundResult, error) {
	if spec.T == s.at {
		s.cancel()
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return s.inner(spec), nil
}

// TestLookaheadGoroutineExits: a run canceled mid-epoch and a run that
// crashes at epoch k both end with a cohort draw in flight for an epoch that
// never comes; the trainer waits for it, so nothing is left behind. The
// population is large enough for the draw to still be scanning when the run
// decides to return.
func TestLookaheadGoroutineExits(t *testing.T) {
	const n, p = 200_000, 4
	mk := func() *Trainer {
		tr := setupWide(t, 3)
		tr.Parts = nil
		tr.Cfg = Config{Epochs: 6, LR: 0.1, Participants: n,
			Sample: sampling.MustNew(sampling.Config{Seed: 5, Size: 4})}
		d := tr.Model.NumParams()
		tr.Rounds = &cancelingSource{inner: func(spec *RoundSpec) *RoundResult {
			deltas := make([][]float64, len(spec.Active))
			for k := range deltas {
				deltas[k] = make([]float64, d)
			}
			return &RoundResult{Deltas: deltas}
		}}
		return tr
	}
	before := runtime.NumGoroutine()

	canceled := mk()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := canceled.Rounds.(*cancelingSource)
	src.at, src.cancel = 3, cancel
	if _, err := canceled.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	if !goroutinesSettle(before, time.Second) {
		t.Fatalf("canceled run left %d goroutines running, %d before it", runtime.NumGoroutine(), before)
	}

	crashing := mk()
	crashing.Cfg.Faults = faults.MustNew(faults.Config{Seed: 1, CrashEpoch: 4})
	var ce *faults.CrashError
	if _, err := crashing.RunContext(context.Background()); !errors.As(err, &ce) || ce.Epoch != 4 {
		t.Fatalf("crashing run returned %v, want a crash at epoch 4", err)
	}
	if !goroutinesSettle(before, time.Second) {
		t.Fatalf("crashed run left %d goroutines running, %d before it", runtime.NumGoroutine(), before)
	}
}
