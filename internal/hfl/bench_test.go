package hfl

import (
	"fmt"
	"testing"

	"digfl/internal/dataset"
	"digfl/internal/nn"
	"digfl/internal/obs"
	"digfl/internal/tensor"
)

// benchTrainer builds a moderately heavy local-update workload: multi-step
// local training on a CNN, where per-participant gradient computation
// dominates the round and the bounded pool can actually help.
func benchTrainer(workers int) *Trainer {
	rng := tensor.NewRNG(91)
	full := dataset.MNISTLike(1600, 91)
	train, val := full.Split(0.1, rng)
	return &Trainer{
		Model: nn.NewCNN(8, 3, 4, train.Classes, tensor.NewRNG(91)),
		Parts: dataset.PartitionIID(train, 8, rng),
		Val:   val,
		Cfg: Config{
			Epochs: 2, LR: 0.1, LocalSteps: 4,
			Runtime: obs.Runtime{Workers: workers},
		},
	}
}

// BenchmarkLocalUpdates measures one full training run's worth of
// per-participant local updates, serial vs. the bounded pool. The parallel
// variants first assert bit-identical final parameters against the serial
// run, so a determinism regression fails the benchmark rather than skewing
// it.
func BenchmarkLocalUpdates(b *testing.B) {
	serial := benchTrainer(0).Run().Model.Params()
	for _, cfg := range []struct {
		name    string
		workers int
	}{
		{"serial", 0},
		{"parallel2", 2},
		{"parallel8", 8},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			got := benchTrainer(cfg.workers).Run().Model.Params()
			for i := range serial {
				if got[i] != serial[i] {
					b.Fatalf("%s diverged from serial at param %d", cfg.name, i)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchTrainer(cfg.workers).Run()
			}
		})
	}
}

// BenchmarkLocalUpdatesScaling fans the same workload across participant
// counts, the axis the ROADMAP's production-scale goal cares about: the
// bounded pool must keep goroutine count fixed while work grows.
func BenchmarkLocalUpdatesScaling(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("parts%d", n), func(b *testing.B) {
			rng := tensor.NewRNG(92)
			full := dataset.MNISTLike(40*n, 92)
			train, val := full.Split(0.1, rng)
			tr := &Trainer{
				Model: nn.NewSoftmaxRegression(train.Dim(), train.Classes),
				Parts: dataset.PartitionIID(train, n, rng),
				Val:   val,
				Cfg:   Config{Epochs: 1, LR: 0.1, LocalSteps: 2, Runtime: obs.Runtime{Workers: 8}},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Run()
			}
		})
	}
}

// BenchmarkMeanFold64x2000 is the streamed round's fold at the reference
// cell's shape: 64 deltas of d=2000 added in slot order to a MeanStream{}
// fold with a validation gradient, then closed. The first fold is checked
// against a term-by-term sum and dots.
func BenchmarkMeanFold64x2000(b *testing.B) {
	const k, p = 64, 2000
	deltas := foldDeltas(k, p, 11)
	vg := foldDeltas(1, p, 12)[0]
	wantSum, wantDots := make([]float64, p), make([]float64, k)
	for s, d := range deltas {
		for j, v := range d {
			wantSum[j] += v
			wantDots[s] += float64(vg[j] * v)
		}
	}
	for j := range wantSum {
		wantSum[j] *= 1.0 / k
	}
	fold := func() *FoldResult {
		f := MeanStream{}.NewFold(p, k, vg)
		for s, d := range deltas {
			if err := f.Add(s, d); err != nil {
				b.Fatal(err)
			}
		}
		fr, err := f.Close()
		if err != nil {
			b.Fatal(err)
		}
		return fr
	}
	if fr := fold(); !sameVec(fr.Sum, wantSum) || !sameVec(fr.Dots, wantDots) {
		b.Fatal("fold differs from the term-by-term reference")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fold()
	}
}
