package hfl

import (
	"fmt"
	"sort"

	"digfl/internal/tensor"
)

// Fold is one round's streaming accumulator: local updates are folded in as
// they arrive and released, instead of being slotted into a population- (or
// even cohort-) sized buffer. Implementations commit updates in slot order
// regardless of arrival order, so the reduction order — and therefore the
// aggregate's float bits — never depends on network timing. An update that
// arrives out of order is parked until its predecessors commit (worst case
// the fold briefly holds the cohort, never the population).
//
// Folds are not safe for concurrent use; callers serialize Add (the
// coordinator folds under its lock, the trainer folds serially).
type Fold interface {
	// Add folds the update at slot — its position in the round's active
	// order. Each slot may be added at most once; a wrong-length delta or an
	// out-of-range slot is an error. The fold never retains delta beyond the
	// commit that consumes it.
	Add(slot int, delta []float64) error
	// Close finalizes the round over the slots that actually arrived
	// (committing any still-parked updates in slot order) and returns the
	// aggregate. Close may be called once.
	Close() (*FoldResult, error)
}

// FoldResult is a closed fold's output.
type FoldResult struct {
	// Sum is the aggregated global update G_t over the arrived updates —
	// for MeanStream, their uniform mean. Nil when nothing arrived.
	Sum []float64
	// Slots lists the arrived slots in slot order.
	Slots []int
	// Dots[j] = ∇loss^v(θ_{t-1})·δ for the update at Slots[j] — the
	// resource-saving estimator's per-participant first term, computed at
	// fold time so contribution evaluation survives the deltas' release.
	// Nil when the fold was opened without a validation gradient.
	Dots []float64
}

// StreamAggregator supplies per-round Folds — the streaming aggregation
// seam. An Aggregator (coordinate median, trimmed mean, the Krum family)
// consumes the materialized round buffer instead, so it runs on buffered
// rounds only; the trainer refuses it beside Stream.
type StreamAggregator interface {
	// NewFold opens one round's accumulator for k active slots of dimension
	// p. valGrad, when non-nil, is ∇loss^v(θ_{t-1}); the fold then reports
	// per-update dot products alongside the aggregate.
	NewFold(p, k int, valGrad []float64) Fold
}

// MeanStream is the streaming uniform-mean aggregation rule: G_t =
// (1/m)·Σ δ over the m arrived updates, folded on arrival. The canonical
// reduction order is segmented: slots are partitioned into contiguous
// segments of width Seg, each segment is summed in slot order from a zero
// accumulator, non-empty segment partials are merged in segment order, and
// the merged total is scaled once by 1/m. A two-level cohort tree whose
// edge sub-aggregators each own Seg slots performs exactly these operations
// in exactly this order, so tree, flat-streamed, and in-process streamed
// runs are bit-identical (see fednet.Loopback with Edges set, and
// TestTreeLoopbackBitIdenticalToFlatAndLocal).
//
// Seg ≤ 0 means one segment spanning the whole round — the flat streaming
// order, and the order of the buffered trainer's mean, so MeanStream{} runs
// are bit-identical to buffered runs.
type MeanStream struct {
	// Seg is the segment width of the canonical reduction order; match it
	// to the edge width of a cohort tree to make flat and tree runs
	// bit-identical. 0 folds the round as a single segment.
	Seg int
}

// NewFold implements StreamAggregator.
func (m MeanStream) NewFold(p, k int, valGrad []float64) Fold {
	seg := m.Seg
	if seg <= 0 {
		seg = k
	}
	if seg < 1 {
		seg = 1
	}
	return &meanFold{p: p, k: k, seg: seg, valGrad: valGrad}
}

// SegmentFold is the accumulator of one segment of the canonical reduction
// order: the unscaled sum of the updates added at the segment's positions
// and, given a validation gradient, their dot products, committed in
// position order whatever the arrival order. An update that arrives ahead
// of a predecessor parks until the predecessors commit or Close drains the
// gaps, so the sum's float bits never depend on network timing. MeanStream
// folds compose one per segment; a cohort tree's edge aggregator is one, and
// so is the root's reconstruction of a dead edge's segment — which is why
// tree, flat-streamed and in-process streamed runs agree bit for bit.
//
// Callers guarantee what Fold.Add checks: each position at most once, none
// below the lo the fold was opened at, every delta as long as the
// accumulator. Not safe for concurrent use.
type SegmentFold struct {
	// Release, when non-nil, is handed each delta once its commit consumed
	// it (the networked tiers return it to the tensor pool); nil leaves
	// consumed deltas to the caller.
	Release func([]float64)

	valGrad []float64
	sum     []float64
	next    int // smallest position not yet committed (assuming no gaps)
	pos     []int
	dots    []float64
	pending map[int][]float64
}

// NewSegmentFold opens a segment whose positions start at lo (a lower
// bound is enough: positions commit on arrival only while they continue the
// run from lo, the rest at Close). acc is the zeroed accumulator, one
// coordinate per model parameter; valGrad may be nil (no dots).
func NewSegmentFold(lo int, acc, valGrad []float64) *SegmentFold {
	return &SegmentFold{valGrad: valGrad, sum: acc, next: lo}
}

// Add folds the update at pos, or parks it behind a missing predecessor.
func (s *SegmentFold) Add(pos int, delta []float64) {
	if pos != s.next {
		if s.pending == nil {
			s.pending = make(map[int][]float64)
		}
		s.pending[pos] = delta
		return
	}
	s.commit(pos, delta)
	for {
		d, ok := s.pending[s.next]
		if !ok {
			return
		}
		delete(s.pending, s.next)
		s.commit(s.next, d)
	}
}

// commit folds one update; callers guarantee position order.
func (s *SegmentFold) commit(pos int, delta []float64) {
	if s.valGrad != nil {
		s.dots = append(s.dots, tensor.DotAdd(s.valGrad, delta, s.sum))
	} else {
		tensor.AXPY(1, delta, s.sum)
	}
	s.pos = append(s.pos, pos)
	s.next = pos + 1
	if s.Release != nil {
		s.Release(delta)
	}
}

// Pending reports how many updates are parked awaiting predecessors.
func (s *SegmentFold) Pending() int { return len(s.pending) }

// Close commits the updates still parked behind permanent gaps (stragglers
// that never reported), in position order, and returns the unscaled sum,
// the committed positions ascending, and the dot products aligned with them
// (nil without a validation gradient).
func (s *SegmentFold) Close() (sum []float64, pos []int, dots []float64) {
	if len(s.pending) > 0 {
		rest := make([]int, 0, len(s.pending))
		for p := range s.pending {
			rest = append(rest, p)
		}
		sort.Ints(rest)
		for _, p := range rest {
			s.commit(p, s.pending[p])
		}
		s.pending = nil
	}
	return s.sum, s.pos, s.dots
}

// meanFold is MeanStream's per-round accumulator: one SegmentFold per
// segment, opened by the segment's first arrival and merged in segment
// order at Close.
type meanFold struct {
	p, k, seg int
	valGrad   []float64
	segs      []*SegmentFold
	seen      []bool
	closed    bool
}

func (f *meanFold) Add(slot int, delta []float64) error {
	if f.closed {
		return fmt.Errorf("hfl: fold already closed")
	}
	if slot < 0 || slot >= f.k {
		return fmt.Errorf("hfl: fold slot %d outside [0,%d)", slot, f.k)
	}
	if len(delta) != f.p {
		return fmt.Errorf("hfl: fold slot %d delta has %d params, want %d", slot, len(delta), f.p)
	}
	if f.seen == nil {
		f.seen = make([]bool, f.k)
		f.segs = make([]*SegmentFold, (f.k+f.seg-1)/f.seg)
	}
	if f.seen[slot] {
		return fmt.Errorf("hfl: fold slot %d added twice", slot)
	}
	f.seen[slot] = true
	s := slot / f.seg
	if f.segs[s] == nil {
		f.segs[s] = NewSegmentFold(s*f.seg, make([]float64, f.p), f.valGrad)
	}
	f.segs[s].Add(slot, delta)
	return nil
}

func (f *meanFold) Close() (*FoldResult, error) {
	if f.closed {
		return nil, fmt.Errorf("hfl: fold closed twice")
	}
	f.closed = true
	res := &FoldResult{}
	var acc []float64
	for _, sf := range f.segs {
		if sf == nil {
			continue
		}
		// Merge the segment partials in segment order into a zero total —
		// the operation a tree's root performs on its edges' partials.
		sum, slots, dots := sf.Close()
		if acc == nil {
			acc = make([]float64, f.p)
		}
		tensor.AXPY(1, sum, acc)
		res.Slots = append(res.Slots, slots...)
		res.Dots = append(res.Dots, dots...)
	}
	if len(res.Slots) > 0 {
		tensor.Scale(1/float64(len(res.Slots)), acc)
		res.Sum = acc
	}
	return res, nil
}

// Pending reports how many updates are parked awaiting predecessors — a
// diagnostic for the out-of-order worst case, and how a caller that
// recycles buffers tells a consumed delta from a parked one.
func (f *meanFold) Pending() int {
	n := 0
	for _, sf := range f.segs {
		if sf != nil {
			n += sf.Pending()
		}
	}
	return n
}
