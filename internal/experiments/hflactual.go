package experiments

import (
	"fmt"
	"io"

	"digfl/internal/core"
	"digfl/internal/metrics"
	"digfl/internal/shapley"
)

// HFLActualRow is one Fig. 3 cell: one dataset at one low-quality count m.
type HFLActualRow struct {
	Dataset    string
	Corruption Corruption
	N, M       int
	// Estimated and Actual are the per-participant Shapley values.
	Estimated []float64
	Actual    []float64
}

// HFLActualResult aggregates the Fig. 3 reproduction: estimated-vs-actual
// scatter data with per-dataset PCC, plus the cost comparison of panels
// (c)–(d).
type HFLActualResult struct {
	Rows []HFLActualRow
	// PCC[dataset] is Pearson correlation over all (estimate, actual) pairs.
	PCC map[string]float64
	// CostDIGFL / CostActual are the measured wall-clock + counter costs.
	CostDIGFL  map[string]metrics.Cost
	CostActual map[string]metrics.Cost
}

// fig3Settings returns the Fig. 3 sweep. The paper uses n=10 for MNIST and
// n=5 elsewhere with m ranging over all values; at reduced scale the sweep
// thins m to keep the 2^n retraining budget tractable.
func fig3Settings(o Opts) []HFLSetting {
	var out []HFLSetting
	add := func(name string, n int, corruption Corruption, ms []int) {
		lr := 0.3
		if name == "MOTOR" {
			// The binary task converges within an epoch at 0.3, leaving the
			// per-epoch estimate dominated by round one; a gentler rate
			// keeps the whole window informative.
			lr = 0.1
		}
		for _, m := range ms {
			out = append(out, HFLSetting{
				Dataset: name, N: n, M: m, Corruption: corruption, MislabelFrac: 0.5,
				LocalSteps: 3,
				Samples:    o.samples(2500), Epochs: o.epochs(12), LR: lr,
				Seed: o.Seed + int64(100*m) + int64(n), Sink: o.Sink,
			})
		}
	}
	if o.Scale >= 1 {
		add("MNIST", 10, Mislabeled, []int{0, 3, 6, 9})
		add("CIFAR10", 5, NonIID, []int{0, 1, 2, 3, 4})
		add("MOTOR", 5, Mislabeled, []int{0, 1, 2, 3, 4})
		add("REAL", 5, NonIID, []int{0, 1, 2, 3, 4})
	} else {
		add("MNIST", 6, Mislabeled, []int{0, 3})
		add("CIFAR10", 5, NonIID, []int{2})
		add("MOTOR", 5, Mislabeled, []int{2})
		add("REAL", 5, NonIID, []int{2})
	}
	return out
}

// HFLvsActual reproduces Fig. 3: DIG-FL (Algorithm 2) against the actual
// Shapley value computed by 2^n retrainings, for every dataset and
// low-quality-count m, with cost accounting.
func HFLvsActual(o Opts) *HFLActualResult {
	o.validate()
	res := &HFLActualResult{
		PCC:        map[string]float64{},
		CostDIGFL:  map[string]metrics.Cost{},
		CostActual: map[string]metrics.Cost{},
	}
	scatterEst := map[string][]float64{}
	scatterAct := map[string][]float64{}
	for _, s := range fig3Settings(o) {
		tr := BuildHFL(s)

		sw := metrics.NewStopwatch()
		run := tr.Run()
		attr := core.EstimateHFL(run.Log, s.N, core.ResourceSaving, nil)
		digflCost := metrics.Cost{Wall: sw.Elapsed()}

		sw = metrics.NewStopwatch()
		counter := &shapley.Counter{U: tr.Utility}
		actual := shapley.Exact(s.N, counter.Call)
		actCost := metrics.Cost{Wall: sw.Elapsed(), Retrains: counter.Evals}
		p := tr.Model.NumParams()
		actCost.AddFloats(hflCommFloats(counter.Evals, s.Epochs, s.N, p))

		res.Rows = append(res.Rows, HFLActualRow{
			Dataset: s.Dataset, Corruption: s.Corruption, N: s.N, M: s.M,
			Estimated: attr.Totals, Actual: actual,
		})
		scatterEst[s.Dataset] = append(scatterEst[s.Dataset], attr.Totals...)
		scatterAct[s.Dataset] = append(scatterAct[s.Dataset], actual...)
		c := res.CostDIGFL[s.Dataset]
		c.Add(digflCost)
		res.CostDIGFL[s.Dataset] = c
		c = res.CostActual[s.Dataset]
		c.Add(actCost)
		res.CostActual[s.Dataset] = c
	}
	for name := range scatterEst {
		res.PCC[name] = metrics.Pearson(scatterEst[name], scatterAct[name])
	}
	return res
}

// datasets lists the dataset names in run order — Rows keeps each dataset's
// settings adjacent — the order every rendering walks the per-dataset maps
// in.
func (r *HFLActualResult) datasets() []string {
	var out []string
	for _, row := range r.Rows {
		if len(out) == 0 || out[len(out)-1] != row.Dataset {
			out = append(out, row.Dataset)
		}
	}
	return out
}

// Render writes the Fig. 3 summary.
func (r *HFLActualResult) Render(w io.Writer) {
	writeHeader(w, "Fig. 3 — DIG-FL vs actual Shapley (HFL)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8s %-10s n=%-2d m=%-2d est=%s actual=%s\n",
			row.Dataset, row.Corruption, row.N, row.M,
			fmtVec(row.Estimated), fmtVec(row.Actual))
	}
	fmt.Fprintln(w)
	for _, name := range r.datasets() {
		fmt.Fprintf(w, "%-8s PCC=%.3f  cost(DIG-FL)=%v  cost(actual)=%v\n",
			name, r.PCC[name], r.CostDIGFL[name], r.CostActual[name])
	}
}

func fmtVec(v []float64) string {
	s := "["
	for i, x := range v {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s + "]"
}
