package experiments

import (
	"fmt"
	"io"
	"sort"

	"digfl/internal/baselines"
	"digfl/internal/core"
	"digfl/internal/metrics"
	"digfl/internal/shapley"
	"digfl/internal/tensor"
	"digfl/internal/vfl"
)

// MethodScore is one method's accuracy and cost on one dataset.
type MethodScore struct {
	PCC  float64
	Cost metrics.Cost
}

// ComparisonRow compares every contribution-evaluation method against the
// actual Shapley value on one dataset.
type ComparisonRow struct {
	Dataset string
	N       int
	// Scores maps method name → score. HFL methods: DIG-FL, TMC-shapley,
	// GT-shapley, MR, IM; VFL methods: DIG-FL, TMC-shapley, GT-shapley.
	Scores map[string]MethodScore
}

// ComparisonResult aggregates Fig. 4 + Table IV (HFL) or Fig. 5 + Table V
// (VFL).
type ComparisonResult struct {
	Kind string // "HFL" or "VFL"
	Rows []ComparisonRow
}

// samplingArms are the retraining-based sampling baselines of Tables IV/V,
// each on its paper budget: n²·log n retrainings for TMC-Shapley,
// n·(log n)² sampled coalitions for GT-Shapley.
var samplingArms = []struct {
	name string
	run  func(n int, u shapley.Utility, rng *tensor.RNG) ([]float64, int64)
}{
	{"TMC-shapley", func(n int, u shapley.Utility, rng *tensor.RNG) ([]float64, int64) {
		return shapley.TMC(n, u, shapley.TMCConfig{MaxEvals: shapley.BudgetTMC(n), Tolerance: 0.01, RNG: rng})
	}},
	{"GT-shapley", func(n int, u shapley.Utility, rng *tensor.RNG) ([]float64, int64) {
		return shapley.GT(n, u, shapley.GTConfig{Samples: shapley.BudgetGT(n), RNG: rng})
	}},
}

// runSamplingArms scores every sampling arm on the retraining utility u,
// arm k drawing from rng.Split(k+1), and hands record each estimate with its
// cost: wall time, retrainings, and the traffic commFloats models for them.
func runSamplingArms(n int, u shapley.Utility, rng *tensor.RNG, commFloats func(retrains int64) int64,
	record func(method string, est []float64, c metrics.Cost)) {
	for k, arm := range samplingArms {
		sw := metrics.NewStopwatch()
		est, evals := arm.run(n, u, rng.Split(int64(k+1)))
		cost := metrics.Cost{Wall: sw.Elapsed(), Retrains: evals}
		cost.AddFloats(commFloats(evals))
		record(arm.name, est, cost)
	}
}

// HFLComparison reproduces Fig. 4 and Table IV: DIG-FL against TMC-Shapley,
// GT-Shapley, MR and IM on the four image datasets, scoring each by PCC to
// the actual (2^n retraining) Shapley value and by cost. Like the paper's
// Fig. 4 scatter, each dataset's score pools the (estimate, actual) pairs of
// two settings — a moderate run and a high-learning-rate stress run, where
// direction-projection heuristics (IM) lose track of the validation
// objective while DIG-FL stays anchored to it.
func HFLComparison(o Opts) *ComparisonResult {
	o.validate()
	res := &ComparisonResult{Kind: "HFL"}
	for _, name := range []string{"MNIST", "CIFAR10", "MOTOR", "REAL"} {
		// n = 8 keeps the sampling estimators honest: their paper budgets
		// (n²·log n retrains for TMC, n·(log n)² coalitions for GT) cover
		// only a fraction of the 2^8 coalition space, as in the paper's
		// setting — at n = 5 the TMC budget would enumerate everything.
		const n = 8
		settings := []HFLSetting{
			{Dataset: name, N: n, M: 3, Corruption: Mislabeled, MislabelFrac: 0.5,
				LocalSteps: 3, Samples: o.samples(2500), Epochs: o.epochs(12), LR: 0.3, Seed: o.Seed, Sink: o.Sink},
			{Dataset: name, N: n, M: 4, Corruption: Mislabeled, MislabelFrac: 0.9,
				LocalSteps: 3, Samples: o.samples(2500), Epochs: o.epochs(12), LR: 1.2, Seed: o.Seed + 1, Sink: o.Sink},
		}
		if name == "CIFAR10" || name == "REAL" {
			settings[0].Corruption = NonIID
		}
		row := ComparisonRow{Dataset: name, N: n, Scores: map[string]MethodScore{}}
		pooledEst := map[string][]float64{}
		var pooledAct []float64
		cost := map[string]metrics.Cost{}

		for si, s := range settings {
			tr := BuildHFL(s)
			rng := tensor.NewRNG(o.Seed + 17 + int64(si))
			p := tr.Model.NumParams()

			// The shared training run every log-based method consumes.
			sw := metrics.NewStopwatch()
			run := tr.Run()
			trainTime := sw.Elapsed()

			// Actual Shapley ground truth.
			pooledAct = append(pooledAct, shapley.Exact(n, tr.Utility)...)

			record := func(method string, est []float64, c metrics.Cost) {
				pooledEst[method] = append(pooledEst[method], est...)
				agg := cost[method]
				agg.Add(c)
				cost[method] = agg
			}

			// DIG-FL (Algorithm 2): one training run, no extra communication.
			sw = metrics.NewStopwatch()
			attr := core.EstimateHFL(run.Log, n, core.ResourceSaving, nil)
			record("DIG-FL", attr.Totals, metrics.Cost{Wall: trainTime + sw.Elapsed()})

			runSamplingArms(n, tr.Utility, rng, func(retrains int64) int64 {
				return hflCommFloats(retrains, s.Epochs, n, p)
			}, record)

			// MR: per-round exact reconstruction (2^n evaluations per round).
			sw = metrics.NewStopwatch()
			mr := baselines.MR(run.Log, baselines.NewValLoss(tr.Model, tr.Val.X, tr.Val.Y))
			record("MR", mr.Shapley, metrics.Cost{
				Wall: trainTime + sw.Elapsed(), UtilityEvals: mr.Evals,
			})

			// IM: projection heuristic, essentially free.
			sw = metrics.NewStopwatch()
			im := baselines.IM(run.Log)
			record("IM", im, metrics.Cost{Wall: trainTime + sw.Elapsed()})
		}
		for method, est := range pooledEst {
			row.Scores[method] = MethodScore{
				PCC:  metrics.Pearson(est, pooledAct),
				Cost: cost[method],
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// VFLComparison reproduces Fig. 5 and Table V: DIG-FL against TMC-Shapley
// and GT-Shapley on the ten vertical datasets.
func VFLComparison(o Opts) *ComparisonResult {
	o.validate()
	res := &ComparisonResult{Kind: "VFL"}
	for _, preset := range tableIIIPresets(o) {
		prob, cfg := buildVFL(preset, o)
		tr := &vfl.Trainer{Problem: prob, Cfg: cfg}
		rng := tensor.NewRNG(o.Seed + 31)
		n := preset.Parties
		mTrain := prob.Train.Len()
		row := ComparisonRow{Dataset: preset.Config.Name, N: n, Scores: map[string]MethodScore{}}

		sw := metrics.NewStopwatch()
		run := tr.Run()
		trainTime := sw.Elapsed()

		actual := shapley.Exact(n, tr.Utility)

		sw = metrics.NewStopwatch()
		attr := core.EstimateVFL(run.Log, prob.Blocks, core.ResourceSaving, nil)
		row.Scores["DIG-FL"] = MethodScore{PCC: metrics.Pearson(attr.Totals, actual),
			Cost: metrics.Cost{Wall: trainTime + sw.Elapsed()}}

		runSamplingArms(n, tr.Utility, rng, func(retrains int64) int64 {
			return vflCommFloats(retrains, cfg.Epochs, n, mTrain)
		}, func(method string, est []float64, c metrics.Cost) {
			row.Scores[method] = MethodScore{PCC: metrics.Pearson(est, actual), Cost: c}
		})

		res.Rows = append(res.Rows, row)
	}
	return res
}

// Methods returns the method names present in the result, sorted with
// DIG-FL first.
func (r *ComparisonResult) Methods() []string {
	seen := map[string]bool{}
	for _, row := range r.Rows {
		for m := range row.Scores {
			seen[m] = true
		}
	}
	var out []string
	for m := range seen {
		if m != "DIG-FL" {
			out = append(out, m)
		}
	}
	sort.Strings(out)
	return append([]string{"DIG-FL"}, out...)
}

// MeanPCC returns the across-dataset average PCC of a method.
func (r *ComparisonResult) MeanPCC(method string) float64 {
	var sum float64
	var n int
	for _, row := range r.Rows {
		if s, ok := row.Scores[method]; ok {
			sum += s.PCC
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Render writes the Table IV / Table V comparison and the cost panels.
func (r *ComparisonResult) Render(w io.Writer) {
	title := "Table IV / Fig. 4 — method comparison (HFL)"
	if r.Kind == "VFL" {
		title = "Table V / Fig. 5 — method comparison (VFL)"
	}
	writeHeader(w, title)
	methods := r.Methods()
	fmt.Fprintf(w, "%-14s %3s", "Dataset", "n")
	for _, m := range methods {
		fmt.Fprintf(w, " %12s", m)
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-14s %3d", row.Dataset, row.N)
		for _, m := range methods {
			fmt.Fprintf(w, " %12.3f", row.Scores[m].PCC)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-14s %3s", "mean", "")
	for _, m := range methods {
		fmt.Fprintf(w, " %12.3f", r.MeanPCC(m))
	}
	fmt.Fprintln(w)
	writeHeader(w, "cost (per dataset)")
	for _, row := range r.Rows {
		for _, m := range methods {
			fmt.Fprintf(w, "%-14s %-12s %v\n", row.Dataset, m, row.Scores[m].Cost)
		}
	}
}
