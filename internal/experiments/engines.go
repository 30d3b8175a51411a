package experiments

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"digfl/internal/baselines"
	"digfl/internal/hfl"
	"digfl/internal/metrics"
	"digfl/internal/shapley"
)

// EngineMatrixRow is one engine's accuracy-vs-cost cell: rank agreement
// with the exact per-round Shapley value against the utility-evaluation
// and wall-time budget the engine spent earning it.
type EngineMatrixRow struct {
	Engine string
	// KendallTau / Pearson compare the engine's totals against the exact
	// engine's on the same training log.
	KendallTau float64
	Pearson    float64
	// UtilityEvals counts distinct validation-loss evaluations; Wall is
	// the time spent inside Observe.
	UtilityEvals int64
	Wall         time.Duration
}

// EngineMatrixResult is the Table VI/VII extension: every registered
// contribution engine on one training log, scored for rank accuracy
// against exact and for cost.
type EngineMatrixResult struct {
	N, Epochs int
	Rows      []EngineMatrixRow
}

// engineN is the engine runners' federation size: big enough that the
// samplers' budgets separate, small enough that exhaustive 2^n
// enumeration stays cheap.
const engineN = 8

// engineTrainer builds the shared federation the engine runners evaluate:
// engineN participants with graded label corruption on a 0.2 validation
// split.
func engineTrainer(o Opts) (*hfl.Trainer, int) {
	epochs := o.epochs(10)
	return BuildHFL(HFLSetting{Dataset: "MNIST", N: engineN, Corruption: GradedMislabel, ValFrac: 0.2,
		Samples: o.samples(2000), Epochs: epochs, LR: 0.3, Seed: o.Seed, Sink: o.Sink}), epochs
}

// engineValLoss builds the engines' validation-loss oracle over the
// trainer's validation set.
func engineValLoss(tr *hfl.Trainer) shapley.ValLoss {
	return baselines.NewValLoss(tr.Model, tr.Val.X, tr.Val.Y)
}

// feedEngine replays a training log through a fresh engine.
func feedEngine(name string, spec shapley.EngineSpec, log []*hfl.Epoch) *shapley.Report {
	eng, err := shapley.NewEngine(name, spec)
	if err != nil {
		panic(err)
	}
	for _, ep := range log {
		eng.Observe(ep)
	}
	return eng.Finalize()
}

// EngineMatrix trains one federation and replays its log through every
// registered contribution engine, reporting rank correlation against the
// exact engine next to each engine's utility-evaluation and wall cost —
// the accuracy-vs-cost matrix.
func EngineMatrix(o Opts) *EngineMatrixResult {
	o.validate()
	tr, epochs := engineTrainer(o)
	run := tr.Run()
	spec := shapley.EngineSpec{N: engineN, Loss: engineValLoss(tr), Seed: o.Seed}
	exact := feedEngine("exact", spec, run.Log)

	res := &EngineMatrixResult{N: engineN, Epochs: epochs}
	for _, name := range shapley.Engines() {
		rep := feedEngine(name, spec, run.Log)
		res.Rows = append(res.Rows, EngineMatrixRow{
			Engine:       name,
			KendallTau:   metrics.Kendall(exact.Totals, rep.Totals),
			Pearson:      metrics.Pearson(exact.Totals, rep.Totals),
			UtilityEvals: rep.Cost.UtilityEvals,
			Wall:         rep.Cost.Wall,
		})
	}
	return res
}

// Render writes the engine matrix.
func (r *EngineMatrixResult) Render(w io.Writer) {
	writeHeader(w, "Contribution engines — rank accuracy vs cost")
	fmt.Fprintf(w, "n=%d epochs=%d graded corruption (exact = per-round reconstruction Shapley)\n\n",
		r.N, r.Epochs)
	fmt.Fprintf(w, "%-16s %8s %8s %12s %10s\n", "engine", "tau", "pcc", "evals", "wall")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-16s %8.3f %8.3f %12d %10s\n",
			row.Engine, row.KendallTau, row.Pearson, row.UtilityEvals, row.Wall.Round(time.Microsecond))
	}
}

// Tables renders the matrix as CSV.
func (r *EngineMatrixResult) Tables() map[string][][]string {
	rows := [][]string{{"engine", "kendall_tau", "pearson", "utility_evals", "wall_seconds"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Engine, f(row.KendallTau), f(row.Pearson),
			strconv.FormatInt(row.UtilityEvals, 10), f(row.Wall.Seconds()),
		})
	}
	return map[string][][]string{"engines_matrix": rows}
}
