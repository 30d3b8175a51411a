package hfl

import (
	"testing"

	"digfl/internal/dataset"
	"digfl/internal/nn"
	"digfl/internal/obs"
	"digfl/internal/tensor"
)

// Parallel local updates must be bit-identical to the serial path, for any
// worker budget: each participant writes only its own δ slot and the
// aggregation order is fixed.
func TestParallelRunMatchesSerial(t *testing.T) {
	rng := tensor.NewRNG(61)
	full := dataset.MNISTLike(600, 61)
	train, val := full.Split(0.2, rng)
	parts := dataset.PartitionIID(train, 6, rng)
	for _, steps := range []int{1, 3} {
		run := func(workers int) []float64 {
			tr := &Trainer{
				Model: nn.NewSoftmaxRegression(train.Dim(), train.Classes),
				Parts: parts,
				Val:   val,
				Cfg: Config{Epochs: 5, LR: 0.3, LocalSteps: steps,
					Runtime: obs.Runtime{Workers: workers}},
			}
			return tr.Run().Model.Params()
		}
		serial := run(0)
		for _, workers := range []int{-1, 1, 2, 8} {
			parallel := run(workers)
			for i := range serial {
				if serial[i] != parallel[i] {
					t.Fatalf("steps=%d workers=%d: parallel run diverged at param %d", steps, workers, i)
				}
			}
		}
	}
}

// The retraining utility must be safe for concurrent use: callers may
// evaluate coalitions from several goroutines.
func TestUtilityIsConcurrencySafe(t *testing.T) {
	rng := tensor.NewRNG(62)
	full := dataset.MNISTLike(400, 62)
	train, val := full.Split(0.2, rng)
	parts := dataset.PartitionIID(train, 4, rng)
	tr := &Trainer{
		Model: nn.NewSoftmaxRegression(train.Dim(), train.Classes),
		Parts: parts,
		Val:   val,
		Cfg:   Config{Epochs: 4, LR: 0.3},
	}
	want := tr.Utility([]int{0, 1})
	results := make(chan float64, 8)
	for g := 0; g < 8; g++ {
		go func() { results <- tr.Utility([]int{0, 1}) }()
	}
	for g := 0; g < 8; g++ {
		if got := <-results; got != want {
			t.Fatalf("concurrent utility %v != %v", got, want)
		}
	}
}
