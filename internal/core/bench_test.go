package core

import (
	"testing"

	"digfl/internal/dataset"
	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/tensor"
)

// benchLog captures a training log heavy enough that the interactive HVP
// loop dominates estimator time: 8 participants, a CNN whose HVP is a
// forward and a backward R-operator pass per row.
func benchLog(b *testing.B) ([]*hfl.Epoch, []dataset.Dataset, nn.Model) {
	b.Helper()
	rng := tensor.NewRNG(95)
	full := dataset.MNISTLike(1200, 95)
	train, val := full.Split(0.1, rng)
	parts := dataset.PartitionIID(train, 8, rng)
	model := nn.NewCNN(8, 3, 4, train.Classes, tensor.NewRNG(95))
	tr := &hfl.Trainer{
		Model: model, Parts: parts, Val: val,
		Cfg: hfl.Config{Epochs: 3, LR: 0.1, KeepLog: true},
	}
	return tr.Run().Log, parts, model
}

// BenchmarkInteractiveObserve replays the same log through the interactive
// estimator serially and on the bounded pool. Parallel totals are asserted
// bit-identical to serial before timing.
func BenchmarkInteractiveObserve(b *testing.B) {
	log, parts, model := benchLog(b)
	replay := func(workers int) []float64 {
		e := NewHFLEstimator(8, model.NumParams(), Interactive, LocalHVP(model, parts))
		e.Runtime.Workers = workers
		for _, ep := range log {
			e.Observe(ep)
		}
		return e.Attribution().Totals
	}
	serial := replay(1)
	for _, cfg := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel2", 2},
		{"parallel8", 8},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			got := replay(cfg.workers)
			for i := range serial {
				if got[i] != serial[i] {
					b.Fatalf("workers=%d diverged from serial at participant %d", cfg.workers, i)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				replay(cfg.workers)
			}
		})
	}
}
