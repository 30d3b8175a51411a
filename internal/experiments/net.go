package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"

	"digfl/internal/fednet"
	"digfl/internal/hfl"
	"digfl/internal/obs"
)

// NetResult summarizes one loopback run of the networked runtime against
// its in-process reference.
type NetResult struct {
	Participants int
	Epochs       int
	// BitIdentical: the loopback run reproduced the local trainer's model,
	// loss curve, and per-participant attribution bit for bit.
	BitIdentical bool
	// Wire traffic observed during the run.
	Rounds, Requests, Timeouts int64
	// Totals is the per-participant attribution φ from the networked run.
	Totals []float64
}

// Net runs the networked coordinator/participant runtime over a loopback
// HTTP listener and verifies the determinism contract end to end: same
// model bits, loss curve, and contributions φ as the in-process trainer on
// the same seed.
func Net(o Opts) *NetResult {
	o.validate()
	const n = 3
	epochs := o.epochs(10)
	fed := iidFederation(n, o.samples(900), o.Seed)
	cfg := hfl.Config{Epochs: epochs, LR: 0.3, KeepLog: true}

	// In-process reference.
	ref, refEst := fed.observed(fed.trainer(cfg))
	ref.Cfg.Runtime.Sink = o.Sink
	want := ref.Run()

	// Loopback run over real HTTP.
	collector := &obs.Collector{}
	coord := &fednet.Coordinator{
		N: n, Model: fed.model, Val: fed.val, Cfg: cfg, Estimator: fed.estimator(),
	}
	coord.Cfg.Runtime.Sink = obs.Tee(o.Sink, collector)
	got, perrs, err := fednet.Loopback(context.Background(), coord, func(i int) *fednet.Participant {
		return &fednet.Participant{Index: i, Model: fed.model, Data: fed.parts[i], Retries: 2}
	})
	if err = errors.Join(append(perrs, err)...); err != nil {
		panic(fmt.Sprintf("experiments: net loopback run: %v", err))
	}

	snap := collector.Snapshot()
	totals := coord.Estimator.Attribution().Totals
	return &NetResult{
		Participants: n,
		Epochs:       epochs,
		BitIdentical: sameRun(want, got, refEst.Attribution().Totals, totals),
		Rounds:       snap.NetRounds,
		Requests:     snap.NetRequests,
		Timeouts:     snap.NetTimeouts,
		Totals:       append([]float64(nil), totals...),
	}
}

// Render writes the networked-runtime summary.
func (r *NetResult) Render(w io.Writer) {
	writeHeader(w, "Networked runtime — loopback HTTP vs in-process trainer")
	fmt.Fprintf(w, "%d participants, %d epochs over the wire (%d rounds, %d requests, %d timeouts)\n",
		r.Participants, r.Epochs, r.Rounds, r.Requests, r.Timeouts)
	fmt.Fprintf(w, "bit-identical to local run (model, curve, phi): %v\n", r.BitIdentical)
	fmt.Fprintf(w, "attribution totals: %s\n", fmtVec(r.Totals))
}

// Tables returns the CSV rendering.
func (r *NetResult) Tables() map[string][][]string {
	return metricTable("net", r.Totals,
		"participants", r.Participants, "epochs", r.Epochs,
		"rounds", r.Rounds, "requests", r.Requests, "timeouts", r.Timeouts,
		"bit_identical", r.BitIdentical)
}
