package core

import (
	"math"
	"testing"

	"digfl/internal/dataset"
	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/tensor"
	"digfl/internal/vfl"
)

// The interactive estimator can drive the reweighter too (Algorithm 1 +
// Sec. II-F combined): weights must stay on the simplex and training must
// still learn.
func TestInteractiveReweightingEndToEnd(t *testing.T) {
	rng := tensor.NewRNG(41)
	full := dataset.MNISTLike(600, 41)
	train, val := full.Split(0.2, rng)
	parts := dataset.PartitionIID(train, 4, rng)
	parts[1] = dataset.Mislabel(parts[1], 0.8, rng)

	model := nn.NewSoftmaxRegression(train.Dim(), train.Classes)
	est := NewHFLEstimator(4, model.NumParams(), Interactive, LocalHVP(model, parts))
	tr := &hfl.Trainer{
		Model:      model,
		Parts:      parts,
		Val:        val,
		Cfg:        hfl.Config{Epochs: 10, LR: 0.2, KeepLog: true},
		Reweighter: &HFLReweighter{Estimator: est},
	}
	res := tr.Run()
	if res.FinalLoss >= res.InitLoss {
		t.Fatal("interactive reweighted training did not learn")
	}
	for _, ep := range res.Log {
		var sum float64
		for _, w := range ep.Weights {
			if w < 0 {
				t.Fatal("negative weight")
			}
			sum += w
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("weights sum %v", sum)
		}
	}
	// Corrupted participant ends with the lowest interactive total.
	totals := est.Attribution().Totals
	for i := 0; i < 4; i++ {
		if i != 1 && totals[1] >= totals[i] {
			t.Fatalf("mislabeled participant should rank last: %v", totals)
		}
	}
}

// VFL interactive mode collapses to resource-saving at epoch 1 (ΣΔG = 0),
// mirroring Eq. 11.
func TestVFLInteractiveFirstEpochMatchesResourceSaving(t *testing.T) {
	prob := vflSetup(42, vfl.LinReg)
	tr := &vfl.Trainer{Problem: prob, Cfg: vfl.Config{Epochs: 1, LR: 0.05, KeepLog: true}}
	res := tr.Run()
	rs := EstimateVFL(res.Log, prob.Blocks, ResourceSaving, nil)
	model := nn.NewLinearRegression(prob.Train.Dim(), false)
	in := EstimateVFL(res.Log, prob.Blocks, Interactive, TrainHVP(model, prob.Train))
	for i := range rs.Totals {
		if math.Abs(rs.Totals[i]-in.Totals[i]) > 1e-12 {
			t.Fatalf("epoch-1 equivalence broken: %v vs %v", rs.Totals, in.Totals)
		}
	}
}

// The VFL retraining utility must be safe for concurrent use: callers may
// evaluate coalitions from several goroutines.
func TestVFLUtilityConcurrencySafe(t *testing.T) {
	prob := vflSetup(43, vfl.LinReg)
	tr := &vfl.Trainer{Problem: prob, Cfg: vfl.Config{Epochs: 8, LR: 0.05}}
	want := tr.Utility([]int{0, 2})
	results := make(chan float64, 8)
	for g := 0; g < 8; g++ {
		go func() { results <- tr.Utility([]int{0, 2}) }()
	}
	for g := 0; g < 8; g++ {
		if got := <-results; got != want {
			t.Fatalf("concurrent utility %v != %v", got, want)
		}
	}
}

// Attribution bookkeeping: per-epoch rows accumulate into totals exactly.
func TestAttributionAccumulation(t *testing.T) {
	a := newAttribution(3)
	a.record([]float64{1, 2, 3}, nil)
	a.record([]float64{-1, 0.5, 0}, nil)
	if len(a.PerEpoch) != 2 {
		t.Fatalf("PerEpoch rows = %d", len(a.PerEpoch))
	}
	want := []float64{0, 2.5, 3}
	for i := range want {
		if math.Abs(a.Totals[i]-want[i]) > 1e-15 {
			t.Fatalf("Totals = %v", a.Totals)
		}
	}
}

func TestWeightsSingleParticipant(t *testing.T) {
	if w := Weights([]float64{5}); w[0] != 1 {
		t.Fatalf("singleton weights = %v", w)
	}
	if w := Weights([]float64{-5}); w[0] != 1 {
		t.Fatalf("singleton fallback = %v", w)
	}
}
