package experiments

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"strconv"

	"digfl/internal/core"
	"digfl/internal/dataset"
	"digfl/internal/fednet"
	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/obs"
	"digfl/internal/tensor"
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

	rng := tensor.NewRNG(o.Seed)
	full := imageData("MNIST", o.samples(900), o.Seed, 0)
	train, val := full.Split(0.1, rng)
	parts := dataset.PartitionIID(train, n, rng)
	model := nn.NewSoftmaxRegression(train.Dim(), train.Classes)
	p := model.NumParams()
	cfg := hfl.Config{Epochs: epochs, LR: 0.3, KeepLog: true}

	// In-process reference.
	refEst := core.NewHFLEstimator(n, p, core.ResourceSaving, nil)
	ref := &hfl.Trainer{
		Model: model, Parts: parts, Val: val, Cfg: cfg,
		Observer: func(ep *hfl.Epoch) { refEst.Observe(ep) },
	}
	ref.Cfg.Runtime.Sink = o.Sink
	want, err := ref.RunContext(context.Background())
	if err != nil {
		panic(fmt.Sprintf("experiments: net reference run: %v", err))
	}

	// Loopback run over real HTTP.
	collector := &obs.Collector{}
	netEst := core.NewHFLEstimator(n, p, core.ResourceSaving, nil)
	coord := &fednet.Coordinator{
		N: n, Model: model, Val: val, Cfg: cfg, Estimator: netEst,
	}
	coord.Cfg.Runtime.Sink = obs.Tee(o.Sink, collector)
	got, perrs, err := fednet.Loopback(context.Background(), coord, func(i int) *fednet.Participant {
		return &fednet.Participant{Index: i, Model: model, Data: parts[i], Retries: 2}
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: net loopback run: %v", err))
	}
	for i, perr := range perrs {
		if perr != nil {
			panic(fmt.Sprintf("experiments: net participant %d: %v", i, perr))
		}
	}

	snap := collector.Snapshot()
	return &NetResult{
		Participants: n,
		Epochs:       epochs,
		BitIdentical: reflect.DeepEqual(want.Model.Params(), got.Model.Params()) &&
			reflect.DeepEqual(want.ValLossCurve, got.ValLossCurve) &&
			reflect.DeepEqual(refEst.Attribution().Totals, netEst.Attribution().Totals),
		Rounds:   snap.NetRounds,
		Requests: snap.NetRequests,
		Timeouts: snap.NetTimeouts,
		Totals:   append([]float64(nil), netEst.Attribution().Totals...),
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
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	rows := [][]string{
		{"metric", "value"},
		{"participants", strconv.Itoa(r.Participants)},
		{"epochs", strconv.Itoa(r.Epochs)},
		{"rounds", strconv.FormatInt(r.Rounds, 10)},
		{"requests", strconv.FormatInt(r.Requests, 10)},
		{"timeouts", strconv.FormatInt(r.Timeouts, 10)},
		{"bit_identical", strconv.FormatBool(r.BitIdentical)},
	}
	for i, v := range r.Totals {
		rows = append(rows, []string{fmt.Sprintf("phi_%d", i), f(v)})
	}
	return map[string][][]string{"net": rows}
}
