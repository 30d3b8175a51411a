package core

import (
	"fmt"
	"sync"

	"digfl/internal/dataset"
	"digfl/internal/nn"
	"digfl/internal/obs"
	"digfl/internal/parallel"
	"digfl/internal/tensor"
	"digfl/internal/vfl"
)

// FullHVP supplies H(θ_{t-1})·v for the full vertical model, used only by
// the Interactive VFL estimator (the paper's Eq. 26 ablation; production VFL
// uses the resource-saving form because encrypted training cannot expose the
// Hessian — Sec. II-E).
type FullHVP func(theta []float64, v []float64) []float64

// TrainHVP builds a FullHVP from a model prototype and the (plaintext)
// training data, using the model's exact Hessian-vector product (Model.HVP).
// The provider is safe for concurrent use: each in-flight call sets θ on its
// own clone of the prototype (recycled through a pool), mirroring LocalHVP,
// so the VFL estimator's parallel block loop can share it.
func TrainHVP(model nn.Model, train dataset.Dataset) FullHVP {
	pool := sync.Pool{New: func() any { return model.Clone() }}
	return func(theta []float64, v []float64) []float64 {
		m := pool.Get().(nn.Model)
		defer pool.Put(m)
		m.SetParams(theta)
		return m.HVP(train.X, train.Y, v)
	}
}

// VFLEstimator implements DIG-FL for vertical FL (Sec. IV-A). In
// ResourceSaving mode the per-epoch contribution is Eq. 27,
// φ̂_{t,i} = ∇loss^v(θ_{t-1})·(E−diag(v̄_i))·G_t — the inner product of the
// validation gradient and the global gradient restricted to participant i's
// coordinate block. Interactive mode adds the Hessian correction of Eq. 26.
type VFLEstimator struct {
	blocks    []dataset.Block
	p         int
	mode      Mode
	hvp       FullHVP
	deltaGSum [][]float64
	attr      *Attribution
	lastEpoch int

	// Runtime is the unified worker-budget-plus-observability surface.
	// Runtime.Workers sets the per-epoch concurrency of the block loop
	// (0 or 1 serial, > 1 bounded pool, negative GOMAXPROCS); anything
	// beyond serial requires a FullHVP that is safe for concurrent use
	// (TrainHVP is). Results are bit-identical to the serial path: each
	// block's φ and ΔG-sum recursion touch only its own slots.
	// Runtime.Sink receives one EstimatorRound event per observed epoch.
	Runtime obs.Runtime
}

// NewVFLEstimator creates an estimator over the given per-participant
// feature blocks for a p-parameter model.
func NewVFLEstimator(blocks []dataset.Block, p int, mode Mode, hvp FullHVP) *VFLEstimator {
	if len(blocks) == 0 || p <= 0 {
		panic(fmt.Sprintf("core: invalid VFL estimator shape n=%d p=%d", len(blocks), p))
	}
	for _, b := range blocks {
		if b.Lo < 0 || b.Hi > p || b.Lo >= b.Hi {
			panic(fmt.Sprintf("core: block [%d,%d) invalid for %d params", b.Lo, b.Hi, p))
		}
	}
	if mode == Interactive && hvp == nil {
		panic("core: Interactive VFL mode requires a FullHVP")
	}
	e := &VFLEstimator{blocks: blocks, p: p, mode: mode, hvp: hvp, attr: newAttribution(len(blocks))}
	if mode == Interactive {
		e.deltaGSum = make([][]float64, len(blocks))
		for i := range e.deltaGSum {
			e.deltaGSum[i] = make([]float64, p)
		}
	}
	return e
}

// Observe ingests one VFL training epoch and returns φ_{t,i} per party.
//
// Degraded (partial-participation) epochs carry a non-nil Reported list; a
// party absent from it gets a zero contribution for the epoch (its block
// of the update was frozen at zero — Lemma 3 additivity over the reporting
// parties) and, in Interactive mode, a frozen ΔG-sum recursion until it
// rejoins.
func (e *VFLEstimator) Observe(ep *vfl.Epoch) []float64 {
	if ep.T != e.lastEpoch+1 {
		panic(fmt.Sprintf("core: epoch %d observed after %d", ep.T, e.lastEpoch))
	}
	e.lastEpoch = ep.T
	checkDim("grad", len(ep.Grad), e.p)
	checkDim("valGrad", len(ep.ValGrad), e.p)

	var reported []bool
	if ep.Reported != nil {
		reported = make([]bool, len(e.blocks))
		for _, i := range ep.Reported {
			if i < 0 || i >= len(e.blocks) {
				panic(fmt.Sprintf("core: reported party %d out of range [0,%d)", i, len(e.blocks)))
			}
			reported[i] = true
		}
	}
	sink := e.Runtime.Sink
	roundStart := obs.Start(sink)
	phi := make([]float64, len(e.blocks))
	parallel.ForObs(len(e.blocks), e.Runtime.Resolve(), sink, func(i int) {
		if reported != nil && !reported[i] {
			return
		}
		b := e.blocks[i]
		// (E − diag(v̄_i))·G_t keeps exactly block i of the global gradient.
		phi[i] = dotBlock(ep.ValGrad, ep.Grad, b.Lo, b.Hi)
		if e.mode != Interactive {
			return
		}
		// Ω_t^{-i} = diag(v̄_i)·H(θ_{t-1})·Σ_{j<t}ΔG_j^{-i}: the Hessian
		// product with block i masked out.
		omega := tensor.Clone(e.hvp(ep.Theta, e.deltaGSum[i]))
		checkDim("hvp result", len(omega), e.p)
		for j := b.Lo; j < b.Hi; j++ {
			omega[j] = 0
		}
		phi[i] += float64(ep.LR * tensor.Dot(ep.ValGrad, omega))
		// ΔG_t^{-i} = −(E−diag(v̄_i))·G_t − α_t·Ω_t^{-i}.
		for j := b.Lo; j < b.Hi; j++ {
			e.deltaGSum[i][j] -= ep.Grad[j]
		}
		tensor.AXPY(-ep.LR, omega, e.deltaGSum[i])
	})
	obs.Emit(sink, obs.Event{Kind: obs.KindEstimatorRound, T: ep.T,
		N: int64(len(e.blocks)), Dur: obs.Since(sink, roundStart)})
	e.attr.record(phi, nil)
	return phi
}

// Attribution returns the accumulated estimate (live).
func (e *VFLEstimator) Attribution() *Attribution { return e.attr }

// EstimateVFL replays a retained VFL training log offline.
func EstimateVFL(log []*vfl.Epoch, blocks []dataset.Block, mode Mode, hvp FullHVP) *Attribution {
	if len(log) == 0 {
		panic("core: empty training log")
	}
	e := NewVFLEstimator(blocks, len(log[0].ValGrad), mode, hvp)
	for _, ep := range log {
		e.Observe(ep)
	}
	return e.Attribution()
}

// VFLReweighter plugs per-epoch DIG-FL contributions into the vfl trainer's
// block weighting (Eq. 31 / Sec. IV-D).
type VFLReweighter struct {
	Blocks []dataset.Block
	// Estimator, when non-nil, also accumulates the attribution.
	Estimator *VFLEstimator
}

// Weights implements vfl.Reweighter.
func (r *VFLReweighter) Weights(ep *vfl.Epoch) []float64 {
	var phi []float64
	if r.Estimator != nil {
		phi = r.Estimator.Observe(ep)
	} else {
		phi = make([]float64, len(r.Blocks))
		for i, b := range r.Blocks {
			phi[i] = dotBlock(ep.ValGrad, ep.Grad, b.Lo, b.Hi)
		}
	}
	return Weights(phi)
}
