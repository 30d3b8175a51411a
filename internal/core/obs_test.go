package core

import (
	"testing"

	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/obs"
	"digfl/internal/tensor"
	"digfl/internal/vfl"
)

// The acceptance contract: attributions must be bit-identical with and
// without a sink, in both modes, and the sink must see one EstimatorRound
// per epoch with N = participants.
func TestHFLEstimatorSinkDoesNotPerturb(t *testing.T) {
	tr, parts := hflSetup(51, 8)
	res := tr.Run()
	p := len(res.Log[0].ValGrad)
	for _, mode := range []Mode{ResourceSaving, Interactive} {
		hvp := HVPProvider(nil)
		if mode == Interactive {
			hvp = LocalHVP(tr.Model, parts)
		}
		plain := EstimateHFL(res.Log, 5, mode, hvp)

		c := &obs.Collector{}
		e := NewHFLEstimator(5, p, mode, hvp)
		e.Runtime = obs.Runtime{Sink: c}
		for _, ep := range res.Log {
			e.Observe(ep)
		}
		observed := e.Attribution()

		for i := range plain.Totals {
			if plain.Totals[i] != observed.Totals[i] {
				t.Fatalf("mode %v: sink perturbed Totals[%d]: %v vs %v",
					mode, i, plain.Totals[i], observed.Totals[i])
			}
		}
		for ti := range plain.PerEpoch {
			for i := range plain.PerEpoch[ti] {
				if plain.PerEpoch[ti][i] != observed.PerEpoch[ti][i] {
					t.Fatalf("mode %v: sink perturbed PerEpoch[%d][%d]", mode, ti, i)
				}
			}
		}
		snap := c.Snapshot()
		if snap.EstimatorRounds != int64(len(res.Log)) {
			t.Fatalf("mode %v: EstimatorRounds = %d, want %d", mode, snap.EstimatorRounds, len(res.Log))
		}
		// One pool task per participant in Interactive mode; resource-saving
		// dots go four reporters to a task, ⌈5/4⌉ = 2.
		tasks := int64(5 * len(res.Log))
		if mode == ResourceSaving {
			tasks = int64(2 * len(res.Log))
		}
		if snap.PoolTasks != tasks {
			t.Fatalf("mode %v: PoolTasks = %d, want %d", mode, snap.PoolTasks, tasks)
		}
	}
}

// Runtime.Workers alone sizes the estimator pool (and a parallel
// interactive replay must stay bit-identical to serial — LocalHVP and
// TrainHVP are concurrency-safe).
func TestHFLEstimatorRuntimeWorkers(t *testing.T) {
	e := &HFLEstimator{Runtime: obs.Runtime{Workers: 1}}
	if got := e.Runtime.Resolve(); got != 1 {
		t.Errorf("Runtime.Workers=1: resolved %d, want 1", got)
	}
	e = &HFLEstimator{Runtime: obs.Runtime{Workers: 4}}
	if got := e.Runtime.Resolve(); got != 4 {
		t.Errorf("Runtime.Workers=4: resolved %d, want 4", got)
	}
	if got := (&HFLEstimator{}).Runtime.Resolve(); got != 1 {
		t.Errorf("zero config resolved %d workers, want serial", got)
	}

	tr, parts := hflSetup(52, 6)
	res := tr.Run()
	p := len(res.Log[0].ValGrad)
	hvp := LocalHVP(tr.Model, parts)
	serial := EstimateHFL(res.Log, 5, Interactive, hvp)
	par := NewHFLEstimator(5, p, Interactive, hvp)
	par.Runtime = obs.Runtime{Workers: 4}
	for _, ep := range res.Log {
		par.Observe(ep)
	}
	for i := range serial.Totals {
		if serial.Totals[i] != par.Attribution().Totals[i] {
			t.Fatalf("parallel runtime replay diverged at participant %d", i)
		}
	}

	// Resource-saving dots go four reporters to a pool task: every worker
	// count and every group/tail split of the reporters returns the bits of
	// the per-reporter (1/|S|)·Dot(∇loss^v, δ), on buffered and streamed
	// epochs alike.
	const n, dim = 64, 37
	rng := tensor.NewRNG(53)
	for _, reporters := range []int{0, 1, 3, 4, 5, 64} {
		var epochs []*hfl.Epoch
		var wants [][]float64
		for ti := 1; ti <= 3; ti++ {
			ep := &hfl.Epoch{T: ti, ValGrad: rng.NormalVec(dim, 0, 1), Reported: rng.Perm(n)[:reporters]}
			if reporters == n && ti == 1 {
				ep.Reported = nil // a dense epoch
			}
			want := make([]float64, n)
			for k := 0; k < reporters; k++ {
				delta := rng.NormalVec(dim, 0, 1)
				ep.Deltas = append(ep.Deltas, delta)
				want[mapped(ep.Reported, k)] = (1 / float64(reporters)) * refDot(ep.ValGrad, delta)
			}
			if ti == 3 {
				// The fold's dots stand in for the deltas it released.
				ep.DeltaDots = make([]float64, reporters)
				for k, delta := range ep.Deltas {
					ep.DeltaDots[k] = refDot(ep.ValGrad, delta)
				}
				ep.Deltas = nil
			}
			epochs, wants = append(epochs, ep), append(wants, want)
		}
		for _, workers := range []int{1, 2, 4} {
			e := NewHFLEstimator(n, dim, ResourceSaving, nil)
			e.Runtime = obs.Runtime{Workers: workers}
			for ti, ep := range epochs {
				if got := e.Observe(ep); !bitsEqual(got, wants[ti]) {
					t.Errorf("%d reporters, %d workers, epoch %d: φ differs from the per-reporter dots", reporters, workers, ep.T)
				}
			}
		}
	}
}

func refDot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}

// The VFL estimator: bit-identical with a sink and a parallel block loop,
// exact EstimatorRound counters.
func TestVFLEstimatorSinkDoesNotPerturb(t *testing.T) {
	prob := vflSetup(53, vfl.LinReg)
	run := (&vfl.Trainer{Problem: prob, Cfg: vfl.Config{Epochs: 10, LR: 0.05, KeepLog: true}}).Run()
	hvp := TrainHVP(nn.NewLinearRegression(prob.Train.Dim(), false), prob.Train)
	for _, mode := range []Mode{ResourceSaving, Interactive} {
		h := FullHVP(nil)
		if mode == Interactive {
			h = hvp
		}
		plain := EstimateVFL(run.Log, prob.Blocks, mode, h)

		c := &obs.Collector{}
		e := NewVFLEstimator(prob.Blocks, len(run.Log[0].ValGrad), mode, h)
		e.Runtime = obs.Runtime{Workers: 4, Sink: c}
		for _, ep := range run.Log {
			e.Observe(ep)
		}
		observed := e.Attribution()
		for i := range plain.Totals {
			if plain.Totals[i] != observed.Totals[i] {
				t.Fatalf("mode %v: sink/parallel replay perturbed Totals[%d]", mode, i)
			}
		}
		snap := c.Snapshot()
		if snap.EstimatorRounds != int64(len(run.Log)) {
			t.Fatalf("mode %v: EstimatorRounds = %d, want %d", mode, snap.EstimatorRounds, len(run.Log))
		}
	}
}
