package robust

import (
	"context"
	"math"
	"testing"

	"digfl/internal/dataset"
	"digfl/internal/faults"
	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/tensor"
)

func TestNewTrimmedMeanValidation(t *testing.T) {
	if _, err := NewTrimmedMean(-1); err == nil {
		t.Fatal("negative trim should be rejected at construction")
	}
	tm, err := NewTrimmedMean(2)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Trim != 2 {
		t.Fatalf("Trim = %d, want 2", tm.Trim)
	}
}

// A trim that is valid for the full federation must degrade gracefully —
// not panic — on a survivor-subset epoch too small for it.
func TestTrimmedMeanDegradesOnSurvivorEpochs(t *testing.T) {
	tm := TrimmedMean{Trim: 1} // fine for 5 parties, oversized for 2 survivors
	ep := &hfl.Epoch{T: 3,
		Deltas:   [][]float64{{2}, {6}},
		Reported: []int{0, 3},
	}
	got := mustAgg(t, tm, ep)
	if got[0] != 4 { // plain mean: effective trim clamped to 0
		t.Fatalf("degraded trimmed mean = %v, want 4", got)
	}
	// Three survivors admit trim 1 again.
	ep = &hfl.Epoch{T: 4,
		Deltas:   [][]float64{{1}, {2}, {1000}},
		Reported: []int{0, 2, 4},
	}
	if got := mustAgg(t, tm, ep); got[0] != 2 {
		t.Fatalf("survivor-epoch trimmed mean = %v, want 2", got)
	}
}

func TestMedianOnSurvivorEpochs(t *testing.T) {
	ep := &hfl.Epoch{T: 2,
		Deltas:   [][]float64{{1, 10}, {5, 20}},
		Reported: []int{1, 4},
	}
	got := mustAgg(t, Median{}, ep)
	if got[0] != 3 || got[1] != 15 {
		t.Fatalf("survivor-epoch median = %v", got)
	}
}

// An end-to-end run: robust aggregation under injected dropout still trains
// and never panics, even when dropouts shrink some epochs below 2·Trim+1.
func TestRobustAggregatorsUnderDropout(t *testing.T) {
	rng := tensor.NewRNG(11)
	full := dataset.MNISTLike(300, 11)
	train, val := full.Split(0.2, rng)
	parts := dataset.PartitionIID(train, 5, rng)

	for name, agg := range map[string]hfl.Aggregator{
		"median":  Median{},
		"trimmed": TrimmedMean{Trim: 1},
	} {
		inj := faults.MustNew(faults.Config{Seed: 42, Dropout: 0.4})
		tr := &hfl.Trainer{
			Model:      nn.NewSoftmaxRegression(train.Dim(), train.Classes),
			Parts:      parts,
			Val:        val,
			Cfg:        hfl.Config{Epochs: 15, LR: 0.3, KeepLog: true, Faults: inj},
			Aggregator: agg,
		}
		res, err := tr.RunContext(context.Background())
		if err != nil {
			t.Fatalf("%s under dropout: %v", name, err)
		}
		degraded := 0
		for _, ep := range res.Log {
			if ep.Reported != nil {
				degraded++
			}
		}
		if degraded == 0 {
			t.Fatalf("%s: 40%% dropout over 15 epochs fired nothing", name)
		}
		last := res.ValLossCurve[len(res.ValLossCurve)-1]
		if math.IsNaN(last) || last >= res.ValLossCurve[0] {
			t.Fatalf("%s failed to train under dropout: %v -> %v",
				name, res.ValLossCurve[0], last)
		}
	}
}
