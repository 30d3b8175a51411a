package hfl

import (
	"context"
	"runtime"
	"testing"

	"digfl/internal/dataset"
	"digfl/internal/nn"
	"digfl/internal/sampling"
)

// synthStreamSource is a RoundSource standing in for 100k networked
// participants: it computes a cheap deterministic delta per active
// participant and folds each one on arrival, so its own memory is bounded
// by one delta plus the fold accumulators — never the population.
type synthStreamSource struct {
	p    int
	fail func(t int) error
}

func (s *synthStreamSource) Round(_ context.Context, spec *RoundSpec) (*RoundResult, error) {
	if s.fail != nil {
		if err := s.fail(spec.T); err != nil {
			return nil, err
		}
	}
	fold := MeanStream{}.NewFold(s.p, len(spec.Active), spec.ValGrad)
	for k, gi := range spec.Active {
		d := make([]float64, s.p)
		for j := range d {
			d[j] = float64((gi+j)%7-3) * 1e-4
		}
		if err := fold.Add(k, d); err != nil {
			return nil, err
		}
	}
	fr, err := fold.Close()
	if err != nil {
		return nil, err
	}
	return &RoundResult{Agg: fr.Sum, Dots: fr.Dots}, nil
}

// scale100kTrainer assembles the full large-population stack: 100k declared
// participants, a 64-participant sampled cohort per round, fold-on-arrival
// aggregation, and released epoch records.
func scale100kTrainer(tb testing.TB, d int) *Trainer {
	tb.Helper()
	val := dataset.SynthTabular(dataset.TabularConfig{
		Name: "scaleval", N: 24, D: d, Task: dataset.Regression,
		Informative: 8, Noise: 0.3, Seed: 12,
	})
	return &Trainer{
		Model: nn.NewLinearRegression(d, false),
		Val:   val,
		Cfg: Config{
			Epochs:       3,
			LR:           0.05,
			KeepLog:      true,
			Participants: 100_000,
			Sample:       sampling.MustNew(sampling.Config{Seed: 9, Size: 64}),
			RetainDeltas: ReleaseAfterObserve,
		},
		Rounds: &synthStreamSource{p: d},
		Stream: MeanStream{},
	}
}

// TestScale100kBoundedMemory is the scale gate: a simulated round over a
// 100k-participant population must allocate memory bounded by the cohort
// (tens of MB at most), not the population — the naive per-round buffer
// alone would be 100k×2000×8 B ≈ 1.6 GB per epoch.
func TestScale100kBoundedMemory(t *testing.T) {
	const d = 2000
	tr := scale100kTrainer(t, d)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := tr.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	allocMB := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("100k-participant run allocated %.1f MB total", allocMB)
	if allocMB > 64 {
		t.Fatalf("100k-participant run allocated %.1f MB; population-scale state is leaking into the round path", allocMB)
	}
	for _, ep := range res.Log {
		if len(ep.Reported) != 64 {
			t.Fatalf("epoch %d ran cohort of %d, want 64", ep.T, len(ep.Reported))
		}
		if ep.Deltas != nil {
			t.Fatalf("epoch %d retained population deltas", ep.T)
		}
		if len(ep.DeltaDots) != 64 {
			t.Fatalf("epoch %d has %d dots", ep.T, len(ep.DeltaDots))
		}
	}
	if res.FinalLoss >= res.InitLoss {
		t.Fatalf("100k run failed to train: %v -> %v", res.InitLoss, res.FinalLoss)
	}
}

// The 100k path must stay bit-identical across reruns — sampling, streaming,
// and release change memory behavior, never results.
func TestScale100kDeterministic(t *testing.T) {
	const d = 256
	a, err := scale100kTrainer(t, d).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := scale100kTrainer(t, d).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !sameVec(a.Model.Params(), b.Model.Params()) || !sameVec(a.ValLossCurve, b.ValLossCurve) {
		t.Fatal("two 100k sampled+streamed runs differ")
	}
	for i := range a.Log {
		x, y := a.Log[i], b.Log[i]
		if !sameVec(x.DeltaDots, y.DeltaDots) {
			t.Fatalf("epoch %d dots differ between reruns", x.T)
		}
		for k := range x.Reported {
			if x.Reported[k] != y.Reported[k] {
				t.Fatalf("epoch %d cohorts differ", x.T)
			}
		}
	}
}
