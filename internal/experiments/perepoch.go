package experiments

import (
	"fmt"
	"io"

	"digfl/internal/baselines"
	"digfl/internal/core"
	"digfl/internal/metrics"
)

// ParticipantKind labels Fig. 6's three participant types.
type ParticipantKind string

const (
	// HighQuality participants hold clean IID data.
	HighQuality ParticipantKind = "high-quality"
	// MislabeledKind participants hold label-corrupted data.
	MislabeledKind ParticipantKind = "mislabeled"
	// NonIIDKind participants hold class-restricted data.
	NonIIDKind ParticipantKind = "non-IID"
)

// PerEpochSeries is one participant's Fig. 6 curve pair.
type PerEpochSeries struct {
	Kind      ParticipantKind
	Estimated []float64
	Actual    []float64
}

// PerEpochResult aggregates the Fig. 6 reproduction: for each dataset, the
// per-epoch estimated and actual Shapley values of every participant, plus
// the overall correlation across all (epoch, participant) pairs.
type PerEpochResult struct {
	// Series[dataset][i] is participant i's curve pair.
	Series map[string][]PerEpochSeries
	// PCC[dataset] correlates estimated vs actual across all pairs.
	PCC map[string]float64
	// order lists the datasets in run order, the order every rendering
	// walks the maps in.
	order []string
}

// PerEpoch reproduces Fig. 6: per-epoch DIG-FL estimates against the
// per-epoch actual Shapley value, whose round-t utility is the model
// improvement caused by aggregating each gradient subset (exactly the MR
// reconstruction utility, Sec. V-C3). Five participants per dataset: three
// clean, one mislabeled, one non-IID.
func PerEpoch(o Opts) *PerEpochResult {
	o.validate()
	res := &PerEpochResult{
		Series: map[string][]PerEpochSeries{},
		PCC:    map[string]float64{},
	}
	for _, name := range []string{"MNIST", "CIFAR10", "MOTOR", "REAL"} {
		// Build the mixed population: PartitionNonIID makes the last
		// participant non-IID, then we mislabel the one before it.
		// The gentle learning rate keeps training in the pre-convergence
		// regime for the whole window, where per-round contributions remain
		// informative (Fig. 6 compares epoch-by-epoch curves).
		s := HFLSetting{
			Dataset: name, N: 5, M: 1, Corruption: NonIID, LocalSteps: 1,
			Samples: o.samples(2500), Epochs: o.epochs(12), LR: 0.05, Seed: o.Seed,
			Sink: o.Sink,
		}
		tr := BuildHFL(s)
		tr.Parts[3] = mislabelPart(tr.Parts[3], 0.5, o.Seed+3)
		run := tr.Run()

		attr := core.EstimateHFL(run.Log, s.N, core.ResourceSaving, nil)
		mr := baselines.MR(run.Log, baselines.NewValLoss(tr.Model, tr.Val.X, tr.Val.Y))

		kinds := []ParticipantKind{HighQuality, HighQuality, HighQuality, MislabeledKind, NonIIDKind}
		series := make([]PerEpochSeries, s.N)
		var allEst, allAct []float64
		for i := 0; i < s.N; i++ {
			series[i].Kind = kinds[i]
			for t := 0; t < s.Epochs; t++ {
				est := attr.PerEpoch[t][i]
				act := mr.PerRound[t][i]
				series[i].Estimated = append(series[i].Estimated, est)
				series[i].Actual = append(series[i].Actual, act)
				allEst = append(allEst, est)
				allAct = append(allAct, act)
			}
		}
		res.Series[name] = series
		res.order = append(res.order, name)
		res.PCC[name] = metrics.Pearson(allEst, allAct)
	}
	return res
}

// Render writes a compact Fig. 6 summary: cumulative per-type curves and
// per-dataset correlations.
func (r *PerEpochResult) Render(w io.Writer) {
	writeHeader(w, "Fig. 6 — per-epoch estimated vs actual Shapley (HFL)")
	for _, name := range r.order {
		series := r.Series[name]
		fmt.Fprintf(w, "%s (PCC across all epoch/participant pairs: %.3f)\n", name, r.PCC[name])
		for i, s := range series {
			fmt.Fprintf(w, "  p%-2d %-13s est: ", i, s.Kind)
			for _, v := range s.Estimated {
				fmt.Fprintf(w, "%8.4f", v)
			}
			fmt.Fprintf(w, "\n  %-17s act: ", "")
			for _, v := range s.Actual {
				fmt.Fprintf(w, "%8.4f", v)
			}
			fmt.Fprintln(w)
		}
	}
}
