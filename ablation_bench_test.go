package digfl_test

// Ablation benchmarks for the design choices DESIGN.md calls out: local
// training depth (client drift vs estimate quality), TMC truncation, the
// GT sampling budget, the exact HVP's cost, and Paillier key size. These are not paper artifacts; they justify the defaults the
// reproduction uses. The robust-aggregation ablation keeps its two
// classical rules (coordinate-wise median, trimmed mean) here, unexported:
// nothing else aggregates with them.

import (
	"math"
	"sort"
	"testing"

	"digfl/internal/core"
	"digfl/internal/dataset"
	"digfl/internal/experiments"
	"digfl/internal/hfl"
	"digfl/internal/metrics"
	"digfl/internal/nn"
	"digfl/internal/shapley"
	"digfl/internal/tensor"
	"digfl/internal/vfl"
)

// BenchmarkAblationLocalSteps measures how the DIG-FL-vs-actual correlation
// on a non-IID federation depends on the local training depth. With one
// local step, non-IID gradients still average into a useful global gradient
// and removal-based ground truth diverges from per-epoch alignment; deeper
// local training surfaces the drift and the correlation recovers.
func BenchmarkAblationLocalSteps(b *testing.B) {
	for _, steps := range []int{1, 3, 5} {
		b.Run(benchName("steps", steps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := experiments.HFLSetting{
					Dataset: "CIFAR10", N: 5, M: 2, Corruption: experiments.NonIID,
					LocalSteps: steps, Samples: 800, Epochs: 6, LR: 0.3, Seed: 42,
				}
				tr := experiments.BuildHFL(s)
				run := tr.Run()
				attr := core.EstimateHFL(run.Log, 5, core.ResourceSaving, nil)
				actual := shapley.Exact(5, func(sub []int) float64 { return tr.Utility(sub) })
				b.ReportMetric(metrics.Pearson(attr.Totals, actual), "PCC")
			}
		})
	}
}

// BenchmarkAblationTMCTruncation compares untruncated Monte Carlo with the
// truncated variant at the same retraining budget.
func BenchmarkAblationTMCTruncation(b *testing.B) {
	s := experiments.HFLSetting{
		Dataset: "MNIST", N: 8, M: 3, Corruption: experiments.Mislabeled, MislabelFrac: 0.7,
		LocalSteps: 3, Samples: 800, Epochs: 6, LR: 0.3, Seed: 42,
	}
	tr := experiments.BuildHFL(s)
	actual := shapley.Exact(8, func(sub []int) float64 { return tr.Utility(sub) })
	for _, tol := range []float64{0, 0.01, 0.05} {
		b.Run(benchName("tol%", int(tol*100)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				est, evals := shapley.TMC(8, tr.Utility, shapley.TMCConfig{
					MaxEvals: shapley.BudgetTMC(8), Tolerance: tol, RNG: tensor.NewRNG(7),
				})
				b.ReportMetric(metrics.Pearson(est, actual), "PCC")
				b.ReportMetric(float64(evals), "retrains")
			}
		})
	}
}

// BenchmarkAblationGTBudget sweeps the GT-Shapley coalition budget.
func BenchmarkAblationGTBudget(b *testing.B) {
	s := experiments.HFLSetting{
		Dataset: "MNIST", N: 8, M: 3, Corruption: experiments.Mislabeled, MislabelFrac: 0.7,
		LocalSteps: 3, Samples: 800, Epochs: 6, LR: 0.3, Seed: 43,
	}
	tr := experiments.BuildHFL(s)
	actual := shapley.Exact(8, func(sub []int) float64 { return tr.Utility(sub) })
	base := shapley.BudgetGT(8)
	for _, mult := range []int{1, 4, 16} {
		b.Run(benchName("budget-x", mult), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				est, _ := shapley.GT(8, tr.Utility, shapley.GTConfig{
					Samples: base * mult, RNG: tensor.NewRNG(9),
				})
				b.ReportMetric(metrics.Pearson(est, actual), "PCC")
			}
		})
	}
}

// BenchmarkAblationHVP times the exact logistic-regression HVP. Every model's
// product is exact; internal/nn's BenchmarkHVP times each against the
// finite-difference oracle its tests keep.
func BenchmarkAblationHVP(b *testing.B) {
	rng := tensor.NewRNG(3)
	full := dataset.SynthTabular(dataset.TabularConfig{
		Name: "hvp", N: 2000, D: 50, Task: dataset.Classification,
		Informative: 30, Noise: 0.3, Seed: 3,
	})
	model := nn.NewLogisticRegression(50, true)
	rng.Normal(model.Params(), 0, 0.3)
	v := rng.NormalVec(model.NumParams(), 0, 1)
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			model.HVP(full.X, full.Y, v)
		}
	})
}

// BenchmarkAblationPaillierKeyBits times one secure training epoch at
// different key sizes (the paper uses 1024-bit keys).
func BenchmarkAblationPaillierKeyBits(b *testing.B) {
	full := dataset.SynthTabular(dataset.TabularConfig{
		Name: "sec", N: 50, D: 4, Task: dataset.Regression,
		Informative: 3, Noise: 0.2, Seed: 5,
	})
	train, val := full.Split(0.2, tensor.NewRNG(5))
	prob := &vfl.Problem{
		Train: train, Val: val,
		Blocks: dataset.VerticalBlocks(4, 2), Kind: vfl.LinReg,
	}
	for _, bits := range []int{256, 512, 1024} {
		b.Run(benchName("bits", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := vfl.RunSecureN(prob, vfl.SecureConfig{
					Epochs: 1, LR: 0.05, KeyBits: bits, MaskSeed: 11,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.CommBytes), "commBytes")
			}
		})
	}
}

// medianRule aggregates local updates by coordinate-wise median, the
// classical Byzantine-robust rule with breakdown point 1/2.
type medianRule struct{}

func (medianRule) Aggregate(ep *hfl.Epoch) ([]float64, error) {
	return coordinatewise(ep, func(vals []float64) float64 {
		sort.Float64s(vals)
		n := len(vals)
		if n%2 == 1 {
			return vals[n/2]
		}
		return (vals[n/2-1] + vals[n/2]) / 2
	}), nil
}

// trimmedMean aggregates by coordinate-wise mean after discarding the trim
// largest and trim smallest values; 2·trim must be below the participant
// count.
type trimmedMean struct{ trim int }

func (t trimmedMean) Aggregate(ep *hfl.Epoch) ([]float64, error) {
	return coordinatewise(ep, func(vals []float64) float64 {
		sort.Float64s(vals)
		kept := vals[t.trim : len(vals)-t.trim]
		var s float64
		for _, v := range kept {
			s += v
		}
		return s / float64(len(kept))
	}), nil
}

// coordinatewise applies a per-coordinate statistic over the epoch's
// updates; the statistic receives a scratch slice it may reorder.
func coordinatewise(ep *hfl.Epoch, stat func([]float64) float64) []float64 {
	out := make([]float64, len(ep.Deltas[0]))
	scratch := make([]float64, len(ep.Deltas))
	for j := range out {
		for k, d := range ep.Deltas {
			scratch[k] = d[j]
		}
		out[j] = stat(scratch)
	}
	return out
}

// corruptedFederation builds an n-participant task where the last bad of
// them hold 90% mislabeled data.
func corruptedFederation(seed int64, n, bad int) (parts []dataset.Dataset, train, val dataset.Dataset) {
	rng := tensor.NewRNG(seed)
	full := dataset.SynthImages(dataset.ImageConfig{
		Name: "rob", N: 1500, Side: 8, Classes: 10, Noise: 1.6, Seed: seed,
	})
	train, val = full.Split(0.2, rng)
	parts = dataset.PartitionIID(train, n, rng)
	for i := n - bad; i < n; i++ {
		parts[i] = dataset.Mislabel(parts[i], 0.9, rng.Split(int64(i)))
	}
	return parts, train, val
}

// accuracyWith trains a softmax model over parts for 20 epochs with the
// given aggregation rule and reweighter (nil: plain averaging) and returns
// its validation accuracy.
func accuracyWith(parts []dataset.Dataset, train, val dataset.Dataset, agg hfl.Aggregator, rw hfl.Reweighter) float64 {
	tr := &hfl.Trainer{
		Model:      nn.NewSoftmaxRegression(train.Dim(), train.Classes),
		Parts:      parts,
		Val:        val,
		Cfg:        hfl.Config{Epochs: 20, LR: 0.3},
		Aggregator: agg,
		Reweighter: rw,
	}
	return hfl.Accuracy(tr.Run().Model, val)
}

func TestMedianHandComputed(t *testing.T) {
	got, _ := medianRule{}.Aggregate(&hfl.Epoch{Deltas: [][]float64{{1, 10}, {2, 20}, {100, 30}}})
	if got[0] != 2 || got[1] != 20 {
		t.Fatalf("median = %v", got)
	}
	// Even count: average of middle two.
	got, _ = medianRule{}.Aggregate(&hfl.Epoch{Deltas: [][]float64{{1}, {2}, {3}, {100}}})
	if got[0] != 2.5 {
		t.Fatalf("even median = %v", got)
	}
}

func TestTrimmedMeanHandComputed(t *testing.T) {
	got, _ := trimmedMean{trim: 1}.Aggregate(&hfl.Epoch{Deltas: [][]float64{{1}, {2}, {3}, {4}, {1000}}})
	if got[0] != 3 { // mean of {2,3,4}
		t.Fatalf("trimmed mean = %v", got)
	}
}

func TestTrimmedMeanResistsOutlier(t *testing.T) {
	got, _ := trimmedMean{trim: 1}.Aggregate(&hfl.Epoch{Deltas: [][]float64{{1, 1}, {1, 1}, {1, 1}, {1e9, -1e9}}})
	if math.Abs(got[0]-1) > 1e-12 || math.Abs(got[1]-1) > 1e-12 {
		t.Fatalf("outlier leaked through trimmed mean: %v", got)
	}
}

// With a corrupted minority, the robust rules and DIG-FL reweighting all
// beat plain averaging.
func TestRobustRulesHelpAgainstMinorityCorruption(t *testing.T) {
	parts, train, val := corruptedFederation(5, 5, 2)
	plain := accuracyWith(parts, train, val, nil, nil)
	median := accuracyWith(parts, train, val, medianRule{}, nil)
	trimmed := accuracyWith(parts, train, val, trimmedMean{trim: 1}, nil)
	digfl := accuracyWith(parts, train, val, nil, &core.HFLReweighter{})
	for name, acc := range map[string]float64{"median": median, "trimmed": trimmed, "DIG-FL": digfl} {
		if acc < plain-0.02 {
			t.Errorf("%s (%.3f) should not trail plain averaging (%.3f)", name, acc, plain)
		}
	}
}

// Past the 1/2 breakdown point (4 of 5 corrupted) the median follows the
// corrupted majority while DIG-FL's validation anchor keeps working — the
// extension result motivating the reweight mechanism.
func TestDIGFLSurvivesMajorityCorruptionWhereMedianFails(t *testing.T) {
	parts, train, val := corruptedFederation(6, 5, 4)
	median := accuracyWith(parts, train, val, medianRule{}, nil)
	digfl := accuracyWith(parts, train, val, nil, &core.HFLReweighter{})
	if digfl < median+0.1 {
		t.Fatalf("DIG-FL (%.3f) should clearly beat median (%.3f) beyond the breakdown point",
			digfl, median)
	}
}

// BenchmarkAblationRobustAggregation contrasts the DIG-FL reweight
// mechanism with classical Byzantine-robust rules under majority corruption
// (4 of 5 participants with 90% mislabeled data): median and trimmed mean
// assume an honest majority and follow the corrupted crowd, while DIG-FL's
// validation anchor keeps working — the Fig. 7 regime.
func BenchmarkAblationRobustAggregation(b *testing.B) {
	parts, train, val := corruptedFederation(5, 5, 4)
	cases := []struct {
		name string
		agg  hfl.Aggregator
		rw   hfl.Reweighter
	}{
		{"plain", nil, nil},
		{"median", medianRule{}, nil},
		{"trimmed", trimmedMean{trim: 1}, nil},
		{"digfl", nil, &core.HFLReweighter{}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.ReportMetric(accuracyWith(parts, train, val, c.agg, c.rw), "accuracy")
			}
		})
	}
}

// BenchmarkAblationVFLReweight exercises the vertical reweight mechanism
// (Sec. IV-D / Lemma 5): one party's features are scrambled (marginals
// preserved, signal destroyed); per-epoch block reweighting suppresses its
// updates and reaches a lower validation loss at the same epoch budget.
func BenchmarkAblationVFLReweight(b *testing.B) {
	full := dataset.SynthTabular(dataset.TabularConfig{
		Name: "vrw", N: 600, D: 9, Task: dataset.Regression,
		Informative: 9, Noise: 0.3, Seed: 8,
	})
	// Scramble the last block's columns: worthless but plausible features.
	full = dataset.ScrambleFeatures(full, []int{6, 7, 8}, tensor.NewRNG(9))
	train, val := full.Split(0.2, tensor.NewRNG(8))
	prob := &vfl.Problem{
		Train: train, Val: val,
		Blocks: dataset.VerticalBlocks(9, 3), Kind: vfl.LinReg,
	}
	run := func(rw vfl.Reweighter, lr float64) float64 {
		tr := &vfl.Trainer{Problem: prob, Cfg: vfl.Config{Epochs: 30, LR: lr}, Reweighter: rw}
		return tr.Run().FinalLoss
	}
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(run(nil, 0.05), "finalValLoss")
		}
	})
	// Eq. 31 normalizes the block weights to Σω = 1, shrinking the total
	// step mass by ~1/n versus plain training (every block at weight 1); the
	// reweighted arm therefore runs at n·α so the comparison isolates the
	// *allocation* across blocks rather than the step size.
	b.Run("digfl-reweight", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(run(&core.VFLReweighter{Blocks: prob.Blocks}, 0.15), "finalValLoss")
		}
	})
}

// BenchmarkAblationEstimatorThroughput measures the raw cost of one DIG-FL
// Observe call — the per-epoch overhead a production server would pay.
func BenchmarkAblationEstimatorThroughput(b *testing.B) {
	const n, p = 100, 10000
	rng := tensor.NewRNG(1)
	ep := &hfl.Epoch{T: 1, LR: 0.1, ValGrad: rng.NormalVec(p, 0, 1)}
	for i := 0; i < n; i++ {
		ep.Deltas = append(ep.Deltas, rng.NormalVec(p, 0, 1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est := core.NewHFLEstimator(n, p, core.ResourceSaving, nil)
		ep.T = 1
		est.Observe(ep)
	}
	b.ReportMetric(float64(n*p), "floats/epoch")
}

func benchName(prefix string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return prefix + "=0"
	}
	var buf []byte
	for v > 0 {
		buf = append([]byte{digits[v%10]}, buf...)
		v /= 10
	}
	return prefix + "=" + string(buf)
}
