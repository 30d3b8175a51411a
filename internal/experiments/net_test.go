package experiments

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"digfl/internal/fednet"
	"digfl/internal/hfl"
	"digfl/internal/obs"
)

// netResult summarizes one loopback run of the networked runtime against
// its in-process reference.
type netResult struct {
	participants, epochs int
	// bitIdentical: the loopback run reproduced the local trainer's model,
	// loss curve, and per-participant attribution bit for bit.
	bitIdentical bool
	// Wire traffic observed during the run.
	rounds, requests, timeouts int64
	// totals is the per-participant attribution φ from the networked run.
	totals []float64
}

// netStudy runs the networked coordinator/participant runtime over a
// loopback HTTP listener and verifies the determinism contract end to end:
// same model bits, loss curve, and contributions φ as the in-process
// trainer on the same seed.
func netStudy(t *testing.T, o Opts) *netResult {
	t.Helper()
	o.validate()
	const n = 3
	epochs := o.epochs(10)
	fed := iidFederation(n, o.samples(900), o.Seed)
	cfg := hfl.Config{Epochs: epochs, LR: 0.3, KeepLog: true}

	// In-process reference.
	ref, refEst := fed.observed(fed.trainer(cfg))
	want := ref.Run()

	// Loopback run over real HTTP.
	collector := &obs.Collector{}
	coord := &fednet.Coordinator{
		N: n, Model: fed.model, Val: fed.val, Cfg: cfg, Estimator: fed.estimator(),
	}
	coord.Cfg.Runtime.Sink = collector
	got, perrs, err := fednet.Loopback(context.Background(), coord, func(i int) *fednet.Participant {
		return &fednet.Participant{Index: i, Model: fed.model, Data: fed.parts[i], Retries: 2}
	})
	if err = errors.Join(append(perrs, err)...); err != nil {
		t.Fatalf("net loopback run: %v", err)
	}

	snap := collector.Snapshot()
	totals := coord.Estimator.Attribution().Totals
	return &netResult{
		participants: n,
		epochs:       epochs,
		bitIdentical: sameRun(want, got, refEst.Attribution().Totals, totals),
		rounds:       snap.NetRounds,
		requests:     snap.NetRequests,
		timeouts:     snap.NetTimeouts,
		totals:       append([]float64(nil), totals...),
	}
}

func TestNetExperiment(t *testing.T) {
	r := netStudy(t, QuickOpts())
	if !r.bitIdentical {
		t.Error("loopback run should be bit-identical to the in-process trainer")
	}
	if r.rounds != int64(r.epochs) {
		t.Errorf("closed %d rounds for %d epochs", r.rounds, r.epochs)
	}
	if r.timeouts != 0 {
		t.Errorf("fault-free run recorded %d timeouts", r.timeouts)
	}
	if r.requests == 0 {
		t.Error("no wire requests counted")
	}
	if len(r.totals) != r.participants {
		t.Fatalf("totals for %d participants, want %d", len(r.totals), r.participants)
	}
	if !reflect.DeepEqual(*r, goldenNet) {
		t.Errorf("study differs from its golden:\n%+v\nwant:\n%+v", *r, goldenNet)
	}
}
