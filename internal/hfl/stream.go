package hfl

import (
	"fmt"

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
	// out-of-range slot is an error. The fold may hold delta — read it later
	// — until Pending() (when the fold has it) reads 0 or Close returns, so
	// the caller must leave it untouched until then.
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
// (1/m)·Σ δ over the m arrived updates, folded on arrival by one
// SegmentFold — summed in slot order from a zero accumulator — and scaled
// once by 1/m. That is the buffered trainer's order, so MeanStream{} runs
// are bit-identical to buffered runs.
type MeanStream struct{}

// NewFold implements StreamAggregator.
func (MeanStream) NewFold(p, k int, valGrad []float64) Fold {
	return &meanFold{p: p, k: k, valGrad: valGrad}
}

// SegmentFold is the accumulator of one segment — a contiguous run of
// positions: the unscaled sum of the updates added at the segment's positions
// and, given a validation gradient, their dot products, committed in
// position order whatever the arrival order. An update that arrives ahead
// of a predecessor parks until the predecessors commit or Close drains the
// gaps, so the sum's float bits never depend on network timing. Updates in
// position order stage up to three at a time and the fourth folds all four
// in one tensor.DotAdd4 pass (AXPY4 without a validation gradient); Close
// folds a staged tail of one to three one by one. Either way each update's
// dot and each coordinate's sum have the bits of one DotAdd per update in
// position order. MeanStream's fold is one over the whole round; a cohort
// tree's edge aggregator is one over its edge's segment, and so is the
// root's reconstruction of a dead edge's segment. The root merges the
// partials in edge order into a zero total and scales once, so a tree run
// is bit-identical to any streamed run that folds its segments the same
// way (TestTreeLoopbackBitIdenticalToFlatAndLocal).
//
// Callers guarantee what Fold.Add checks: each position at most once, none
// below the lo the fold was opened at, every delta as long as the
// accumulator. Not safe for concurrent use.
type SegmentFold struct {
	// Release, when non-nil, is handed each delta once it is folded, in
	// position order (the networked tiers return it to the tensor pool); nil
	// leaves folded deltas to the caller.
	Release func([]float64)

	valGrad []float64
	sum     []float64
	next    int   // smallest position not yet staged (assuming no gaps)
	pos     []int // staged or folded positions, ascending
	dots    []float64
	staged  [4][]float64 // the updates at pos's last nstaged positions
	nstaged int
	lo      int         // the position parked[0] stands for
	parked  [][]float64 // out-of-order updates by position − lo; nil where none
	nparked int
}

// NewSegmentFold opens a segment whose positions start at lo (a lower
// bound is enough: positions commit on arrival only while they continue the
// run from lo, the rest at Close). acc is the zeroed accumulator, one
// coordinate per model parameter; valGrad may be nil (no dots).
func NewSegmentFold(lo int, acc, valGrad []float64) *SegmentFold {
	return &SegmentFold{valGrad: valGrad, sum: acc, next: lo, lo: lo}
}

// Add folds the update at pos, or parks it behind a missing predecessor.
func (s *SegmentFold) Add(pos int, delta []float64) {
	if pos != s.next {
		if n := pos - s.lo + 1; n > len(s.parked) {
			s.parked = append(s.parked, make([][]float64, n-len(s.parked))...)
		}
		s.parked[pos-s.lo] = delta
		s.nparked++
		return
	}
	s.stage(pos, delta)
	for s.next-s.lo < len(s.parked) && s.parked[s.next-s.lo] != nil {
		d := s.parked[s.next-s.lo]
		s.parked[s.next-s.lo] = nil
		s.nparked--
		s.stage(s.next, d)
	}
}

// stage queues one update behind the staged ones and folds all four in one
// pass once there are four; callers guarantee position order.
func (s *SegmentFold) stage(pos int, delta []float64) {
	s.pos = append(s.pos, pos)
	s.next = pos + 1
	s.staged[s.nstaged] = delta
	if s.nstaged++; s.nstaged < len(s.staged) {
		return
	}
	x := &s.staged
	if s.valGrad != nil {
		d0, d1, d2, d3 := tensor.DotAdd4(s.valGrad, x[0], x[1], x[2], x[3], s.sum)
		s.dots = append(s.dots, d0, d1, d2, d3)
	} else {
		tensor.AXPY4(1, 1, 1, 1, x[0], x[1], x[2], x[3], s.sum)
	}
	s.release()
}

// flush folds the one to three staged updates one at a time.
func (s *SegmentFold) flush() {
	for _, d := range s.staged[:s.nstaged] {
		if s.valGrad != nil {
			s.dots = append(s.dots, tensor.DotAdd(s.valGrad, d, s.sum))
		} else {
			tensor.AXPY(1, d, s.sum)
		}
	}
	s.release()
}

// release hands the just-folded staged updates to Release in position order
// and empties the stage.
func (s *SegmentFold) release() {
	for k, d := range s.staged[:s.nstaged] {
		if s.Release != nil {
			s.Release(d)
		}
		s.staged[k] = nil
	}
	s.nstaged = 0
}

// Pending reports how many updates the fold holds and has not folded yet:
// parked awaiting predecessors, or staged awaiting a four-wide pass.
func (s *SegmentFold) Pending() int { return s.nparked + s.nstaged }

// Close folds the updates still parked behind permanent gaps (stragglers
// that never reported) in position order, then the staged tail, and returns
// the unscaled sum, the folded positions ascending, and the dot products
// aligned with them (nil without a validation gradient).
func (s *SegmentFold) Close() (sum []float64, pos []int, dots []float64) {
	for k, d := range s.parked {
		if d != nil {
			s.stage(s.lo+k, d)
		}
	}
	s.parked, s.nparked = nil, 0
	s.flush()
	return s.sum, s.pos, s.dots
}

// meanFold is MeanStream's per-round accumulator: slot validation around
// one SegmentFold over the round's k slots, opened by the first arrival.
type meanFold struct {
	p, k    int
	valGrad []float64
	sf      *SegmentFold
	seen    []bool
	closed  bool
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
		f.sf = NewSegmentFold(0, make([]float64, f.p), f.valGrad)
	}
	if f.seen[slot] {
		return fmt.Errorf("hfl: fold slot %d added twice", slot)
	}
	f.seen[slot] = true
	if f.sf.Add(slot, delta); f.sf.next == f.k {
		f.sf.flush() // every slot is in: nothing can join the stage
	}
	return nil
}

func (f *meanFold) Close() (*FoldResult, error) {
	if f.closed {
		return nil, fmt.Errorf("hfl: fold closed twice")
	}
	f.closed = true
	if f.sf == nil {
		return &FoldResult{}, nil
	}
	sum, slots, dots := f.sf.Close()
	tensor.Scale(1/float64(len(slots)), sum)
	return &FoldResult{Sum: sum, Slots: slots, Dots: dots}, nil
}

// Pending reports how many updates the fold holds unfolded, parked or
// staged — a diagnostic for the out-of-order worst case, and how a caller
// that recycles buffers knows when every delta it added has been read: when
// Pending reads 0.
func (f *meanFold) Pending() int {
	if f.sf == nil {
		return 0
	}
	return f.sf.Pending()
}
