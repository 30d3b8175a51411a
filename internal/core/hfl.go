package core

import (
	"fmt"
	"sync"

	"digfl/internal/dataset"
	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/obs"
	"digfl/internal/parallel"
	"digfl/internal/tensor"
)

// HVPProvider supplies the Hessian-vector products Algorithm 1 needs: given
// the broadcast model θ_{t-1}, a participant index, and a vector v, it
// returns Ĥ_i(θ_{t-1})·v computed on that participant's local data — the
// per-participant estimator whose mean is unbiased for H̄·v (Sec. III-A).
type HVPProvider func(theta []float64, participant int, v []float64) []float64

// LocalHVP builds an HVPProvider from a model prototype and the
// participants' datasets, using the model's exact Hessian-vector product
// (Model.HVP). The provider is safe for concurrent use: each in-flight call
// sets θ on its own clone of the prototype (recycled through a pool), and
// the product only reads it.
func LocalHVP(model nn.Model, parts []dataset.Dataset) HVPProvider {
	pool := sync.Pool{New: func() any { return model.Clone() }}
	return func(theta []float64, participant int, v []float64) []float64 {
		m := pool.Get().(nn.Model)
		defer pool.Put(m)
		m.SetParams(theta)
		p := parts[participant]
		return m.HVP(p.X, p.Y, v)
	}
}

// HFLEstimator implements DIG-FL for horizontal FL: Algorithm 1
// (Interactive) or Algorithm 2 (ResourceSaving). Feed it every training
// epoch through Observe (or ObserveMapped for coalition runs), in order;
// read the result from Attribution.
type HFLEstimator struct {
	n, p int
	mode Mode
	hvp  HVPProvider
	// deltaGSum[i] = Σ_{j≤t} ΔG_j^{-i} (Interactive mode only).
	deltaGSum [][]float64
	attr      *Attribution
	lastEpoch int

	// Runtime is the unified worker-budget-plus-observability surface.
	// Runtime.Workers sets the per-epoch concurrency of the participant
	// loop (0 or 1 keeps the serial path, > 1 sets the bounded-pool size,
	// negative selects GOMAXPROCS); anything beyond serial requires an
	// HVPProvider that is safe for concurrent use (LocalHVP is). Results
	// are bit-identical to the serial path: each participant's φ and
	// ΔG-sum recursion touch only its own slots. Runtime.Sink receives
	// one EstimatorRound event per observed epoch, timing the whole
	// participant loop — in Interactive mode, the per-round
	// Hessian-vector-product cost.
	Runtime obs.Runtime

	// TotalsOnly drops the per-epoch φ matrix and accumulates only the
	// running Totals — the Shapley estimate itself (Eq. 15). Set it for
	// large-population runs where retaining epochs×n floats is the dominant
	// estimator memory; Attribution.PerEpoch stays nil and
	// Attribution.Epochs counts the rounds. Set it before the first
	// Observe.
	TotalsOnly bool

	// Scratch for epochs that name their reporters (a mapping or
	// Epoch.Reported), so that observing one costs O(reporters) rather than
	// O(n) — Lemma 3 scores everyone else exactly 0. stamp[i] holds the last
	// epoch that mapped participant i (the duplicate check); under
	// TotalsOnly, row is the φ row such an epoch is scored into, re-zeroed at
	// the previous epoch's reporters before reuse. last, reporters and dense
	// are what LastRow hands out: the row the latest observation returned
	// and a copy of the mapping it ran under (dense: none, everyone
	// reported). All are set on use and dropped by SetState.
	stamp     []int
	row       []float64
	last      []float64
	reporters []int
	dense     bool
}

// NewHFLEstimator creates an estimator for n participants and p model
// parameters. Interactive mode requires an HVPProvider.
func NewHFLEstimator(n, p int, mode Mode, hvp HVPProvider) *HFLEstimator {
	if n <= 0 || p <= 0 {
		panic(fmt.Sprintf("core: invalid estimator shape n=%d p=%d", n, p))
	}
	if mode == Interactive && hvp == nil {
		panic("core: Interactive mode requires an HVPProvider")
	}
	e := &HFLEstimator{n: n, p: p, mode: mode, hvp: hvp, attr: newAttribution(n)}
	if mode == Interactive {
		e.deltaGSum = make([][]float64, n)
		for i := range e.deltaGSum {
			e.deltaGSum[i] = make([]float64, p)
		}
	}
	return e
}

// Observe ingests one training epoch and returns the per-epoch contributions
// φ_{t,i}. Epochs must arrive in order starting at 1, and must carry one
// delta per participant unless the epoch is a degraded
// (partial-participation) record carrying its own Reported mapping — for
// coalition (RunSubset) epochs with fewer deltas and no Reported, use
// ObserveMapped with the subset instead.
func (e *HFLEstimator) Observe(ep *hfl.Epoch) []float64 {
	if ep.Reported == nil && epochUpdates(ep) != e.n {
		panic(fmt.Sprintf("core: epoch carries %d updates for %d participants; coalition runs need ObserveMapped", epochUpdates(ep), e.n))
	}
	return e.ObserveMapped(ep, nil)
}

// epochUpdates counts an epoch's per-participant updates: the raw deltas of
// a buffered epoch, or the retained dot products of a streamed one.
func epochUpdates(ep *hfl.Epoch) int {
	if ep.DeltaDots != nil {
		return len(ep.DeltaDots)
	}
	return len(ep.Deltas)
}

// ObserveMapped ingests one training epoch from a coalition run: idx[k]
// names the global participant that produced ep.Deltas[k], exactly the
// subset slice handed to hfl.Trainer.RunSubset. A nil idx is the identity
// mapping (a full run, requiring one delta per participant). The returned
// φ_{t,·} always has length n; participants absent from the epoch get 0 and
// — in Interactive mode — their ΔG-sum recursion is left frozen until they
// rejoin. The first-term weight is 1/|S|, matching the trainer's uniform
// coalition average.
//
// Under TotalsOnly an epoch that names its reporters returns an
// estimator-owned row, valid until the next Observe or ObserveMapped call:
// still indexable by global participant index, zero outside the reporters,
// but reused — copy it to keep it. Every other observation returns a fresh
// row (the one retained in Attribution.PerEpoch, when that is kept).
//
// Degraded epochs carry their own mapping: when ep.Reported is non-nil it
// names exactly the survivors that produced ep.Deltas and overrides idx
// (the per-epoch record is more precise than the run-level subset). A
// missing participant's δ is treated as a zero contribution for the epoch
// — justified by Lemma 3, which makes per-epoch contributions additive
// over reporting participants — instead of a shape panic. An all-dropped
// epoch (empty Reported) records a zero φ row for every participant.
func (e *HFLEstimator) ObserveMapped(ep *hfl.Epoch, idx []int) []float64 {
	if ep.T != e.lastEpoch+1 {
		panic(fmt.Sprintf("core: epoch %d observed after %d", ep.T, e.lastEpoch))
	}
	streamed := ep.DeltaDots != nil
	if streamed && e.mode == Interactive {
		// The second-order correction needs each raw δ for the ΔG-sum
		// recursion; a streamed epoch released them. Interactive runs must
		// keep the buffered path (no Trainer.Stream).
		panic("core: Interactive mode needs raw deltas; streamed epochs (DeltaDots) support ResourceSaving only")
	}
	m := epochUpdates(ep)
	if ep.Reported != nil {
		idx = ep.Reported
	}
	if idx == nil {
		checkDim("updates", m, e.n)
	} else {
		checkDim("participant mapping", len(idx), m)
		e.stampReporters(idx, ep.T)
	}
	e.lastEpoch = ep.T
	checkDim("valGrad", len(ep.ValGrad), e.p)

	sink := e.Runtime.Sink
	roundStart := obs.Start(sink)
	e.attr.totalsOnly = e.TotalsOnly
	phi := e.phiRow(idx)
	inv := 1 / float64(m)
	if e.mode == Interactive {
		parallel.ForObs(m, e.Runtime.Resolve(), sink, func(k int) {
			i, delta := mapped(idx, k), ep.Deltas[k]
			checkDim("delta", len(delta), e.p)
			// First term of Eq. 19: (1/|S|)·∇loss^v(θ_{t-1})·δ_{t,i}.
			phi[i] = inv * tensor.Dot(ep.ValGrad, delta)
			// Second-order correction: Ω_t^{-i} = Ĥ_i(θ_{t-1})·Σ_{j<t}ΔG_j^{-i}.
			omega := e.hvp(ep.Theta, i, e.deltaGSum[i])
			checkDim("hvp result", len(omega), e.p)
			phi[i] += float64(ep.LR * tensor.Dot(ep.ValGrad, omega))
			// Advance the recursion: ΔG_t^{-i} = −(1/|S|)·δ_{t,i} − α_t·Ω_t^{-i}.
			tensor.AXPY(-inv, delta, e.deltaGSum[i])
			tensor.AXPY(-ep.LR, omega, e.deltaGSum[i])
		})
	} else {
		// Resource-saving φ is the first term alone, and four reporters share
		// one pass over ∇loss^v(θ_{t-1}) (DotRows panics on a delta of the
		// wrong length); a streamed epoch's fold already took those dots
		// before releasing the deltas.
		parallel.ForObs((m+3)/4, e.Runtime.Resolve(), sink, func(g int) {
			lo, hi := 4*g, min(4*g+4, m)
			var dots [4]float64
			if streamed {
				copy(dots[:], ep.DeltaDots[lo:hi])
			} else {
				tensor.DotRows(dots[:hi-lo], ep.ValGrad, ep.Deltas[lo:hi])
			}
			for k := lo; k < hi; k++ {
				phi[mapped(idx, k)] = inv * dots[k-lo]
			}
		})
	}
	obs.Emit(sink, obs.Event{Kind: obs.KindEstimatorRound, T: ep.T,
		N: int64(m), Dur: obs.Since(sink, roundStart)})
	e.attr.record(phi, idx)
	e.last = phi
	return phi
}

// mapped is the global participant behind an epoch's k-th update under the
// mapping idx (nil: the identity).
func mapped(idx []int, k int) int {
	if idx == nil {
		return k
	}
	return idx[k]
}

// LastRow is the close path's O(reporters) view of the latest observation:
// epoch t's φ row (length n, indexable by global participant), and the
// reporters outside which it is exactly zero — or dense, when the epoch
// carried no mapping and everyone reported. Before the first observation t
// is 0 and phi nil. Read-only, and valid until the next Observe or
// ObserveMapped call, like the row a TotalsOnly observation returns.
func (e *HFLEstimator) LastRow() (t int, phi []float64, reporters []int, dense bool) {
	return e.lastEpoch, e.last, e.reporters, e.dense
}

// DeltaGSum is the live Interactive-mode recursion state, one length-p row
// per participant (nil in ResourceSaving mode), under LastRow's contract:
// read-only, valid until the next observation.
func (e *HFLEstimator) DeltaGSum() [][]float64 { return e.deltaGSum }

// stampReporters panics unless idx names distinct participants in [0, n).
// Epochs arrive in increasing order from 1, so a stamp equal to t can only
// have been written by this call: the check costs O(len(idx)), with no
// per-epoch clearing.
func (e *HFLEstimator) stampReporters(idx []int, t int) {
	if e.stamp == nil {
		e.stamp = make([]int, e.n)
	}
	for k, i := range idx {
		var msg string
		switch {
		case i < 0 || i >= e.n:
			msg = fmt.Sprintf("core: mapped participant %d out of range [0,%d)", i, e.n)
		case e.stamp[i] == t:
			msg = fmt.Sprintf("core: participant %d mapped twice", i)
		default:
			e.stamp[i] = t
			continue
		}
		// A rejected mapping leaves no trace: epoch t was not observed, and
		// a caller that recovers may observe it again.
		for _, j := range idx[:k] {
			e.stamp[j] = 0
		}
		panic(msg)
	}
}

// phiRow returns the zeroed length-n row the epoch's φ is written into: a
// fresh one when it is retained in PerEpoch or every participant reports,
// the estimator's own — with the previous epoch's reporters re-zeroed —
// when a TotalsOnly epoch names its reporters idx. Either way it notes the
// mapping for LastRow.
func (e *HFLEstimator) phiRow(idx []int) []float64 {
	if e.row != nil {
		for _, i := range e.reporters {
			e.row[i] = 0
		}
	}
	e.reporters, e.dense = append(e.reporters[:0], idx...), idx == nil
	if !e.TotalsOnly || idx == nil {
		return make([]float64, e.n)
	}
	if e.row == nil {
		e.row = make([]float64, e.n)
	}
	return e.row
}

// Attribution returns the accumulated estimate. The returned value is live;
// it reflects all epochs observed so far.
func (e *HFLEstimator) Attribution() *Attribution { return e.attr }

// EstimateHFL replays a retained training log through a fresh estimator —
// the offline path when the log was captured with Config.KeepLog.
func EstimateHFL(log []*hfl.Epoch, n int, mode Mode, hvp HVPProvider) *Attribution {
	if len(log) == 0 {
		panic("core: empty training log")
	}
	e := NewHFLEstimator(n, len(log[0].ValGrad), mode, hvp)
	for _, ep := range log {
		e.Observe(ep)
	}
	return e.Attribution()
}

// EstimateHFLSubset replays a coalition run's training log: subset is the
// slice handed to hfl.Trainer.RunSubset, mapping each epoch's deltas back to
// global participant indices.
func EstimateHFLSubset(log []*hfl.Epoch, n int, subset []int, mode Mode, hvp HVPProvider) *Attribution {
	if len(log) == 0 {
		panic("core: empty training log")
	}
	e := NewHFLEstimator(n, len(log[0].ValGrad), mode, hvp)
	for _, ep := range log {
		e.ObserveMapped(ep, subset)
	}
	return e.Attribution()
}

// HFLReweighter plugs DIG-FL's per-epoch contributions into the hfl
// trainer's aggregation (Sec. III-C): each round it computes the
// resource-saving contributions from the round's log record and rectifies
// them into Eq. 17's numerators; the trainer divides by their sum.
type HFLReweighter struct {
	// Estimator, when non-nil, also accumulates the per-epoch contributions
	// so a single pass yields both the reweighted model and the attribution.
	Estimator *HFLEstimator
}

var _ hfl.Admitter = (*HFLReweighter)(nil)

// Weights implements hfl.Reweighter: Rectify over the epoch's φ.
func (r *HFLReweighter) Weights(ep *hfl.Epoch) []float64 {
	return Rectify(AlignedPhi(r.Estimator, ep))
}

// Admit implements hfl.Admitter: every participant folds on arrival, unless
// the estimator is Interactive and r carries its second-order term.
func (r *HFLReweighter) Admit(active []int, class []hfl.Admission) bool {
	clear(class) // hfl.AdmitFold
	return r.Estimator == nil || r.Estimator.mode != Interactive
}

// Excluded implements hfl.Admitter: nobody is.
func (*HFLReweighter) Excluded(int) bool { return false }

// AlignedPhi is the epoch's φ aligned with ep.Deltas: est's φ vector
// (observing the epoch) compacted to the reporting survivors of a degraded
// epoch, or the FirstOrder projection when est is nil.
func AlignedPhi(est *HFLEstimator, ep *hfl.Epoch) []float64 {
	if est == nil {
		return FirstOrder(ep)
	}
	phi := est.Observe(ep)
	if ep.Reported == nil {
		return phi
	}
	survivors := make([]float64, len(ep.Reported))
	for k, i := range ep.Reported {
		survivors[k] = phi[i]
	}
	return survivors
}

// FirstOrder is the resource-saving projection of an epoch without an
// estimator: φ̂_k = (1/|S|)·∇loss^v(θ_{t-1})·δ_k, aligned with the epoch's
// updates — four deltas to a pass on a buffered epoch, the fold's dots
// (ep.DeltaDots) on a streamed one, whose Deltas are nil.
func FirstOrder(ep *hfl.Epoch) []float64 {
	phi := make([]float64, epochUpdates(ep))
	if ep.DeltaDots != nil {
		copy(phi, ep.DeltaDots)
	} else {
		tensor.DotRows(phi, ep.ValGrad, ep.Deltas)
	}
	tensor.Scale(1/float64(len(phi)), phi)
	return phi
}
