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
// seam. A rule that cannot stream (coordinate median, trimmed mean, the
// Krum family: they need every update of the round materialized at once)
// does not implement this interface and instead declares itself through
// BufferedRule; such rules keep the buffered Aggregator path.
type StreamAggregator interface {
	// NewFold opens one round's accumulator for k active slots of dimension
	// p. valGrad, when non-nil, is ∇loss^v(θ_{t-1}); the fold then reports
	// per-update dot products alongside the aggregate.
	NewFold(p, k int, valGrad []float64) Fold
}

// BufferedRule is implemented by aggregation rules that cannot fold updates
// on arrival: they need the round's full update buffer (coordinate median,
// trimmed mean, Krum/Multi-Krum). Callers consult it to refuse a streaming
// configuration explicitly instead of silently buffering.
type BufferedRule interface {
	// NeedsBuffer reports whether the rule requires every update of a round
	// materialized simultaneously.
	NeedsBuffer() bool
}

// MeanStream is the streaming uniform-mean aggregation rule: G_t =
// (1/m)·Σ δ over the m arrived updates, folded on arrival. The canonical
// reduction order is segmented: slots are partitioned into contiguous
// segments of width Seg, each segment is summed in slot order from a zero
// accumulator, non-empty segment partials are merged in segment order, and
// the merged total is scaled once by 1/m. A two-level cohort tree whose
// edge sub-aggregators each own Seg slots performs exactly these operations
// in exactly this order, so tree, flat-streamed, and in-process streamed
// runs are bit-identical (see fednet.TreeSource).
//
// Seg ≤ 0 means one segment spanning the whole round — the flat streaming
// order. Note the streamed aggregate differs from the buffered trainer path
// in the last ulp (the buffered path scales each delta before summing);
// streamed runs are bit-identical to each other, not to buffered runs.
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
	return &meanFold{p: p, k: k, seg: seg, curSeg: -1, valGrad: valGrad}
}

// meanFold is MeanStream's per-round accumulator with in-order commit.
type meanFold struct {
	p, k, seg int
	valGrad   []float64

	next     int // smallest slot not yet committed (assuming no gaps)
	curSeg   int
	count    int // committed updates
	segCount int // committed updates in the current segment
	acc      []float64
	segAcc   []float64
	pending  map[int][]float64
	seen     []bool
	slots    []int
	dots     []float64
	closed   bool
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
	}
	if f.seen[slot] {
		return fmt.Errorf("hfl: fold slot %d added twice", slot)
	}
	f.seen[slot] = true
	if slot != f.next {
		// Out-of-order arrival: park until the predecessors commit (or the
		// round closes with those slots missing).
		if f.pending == nil {
			f.pending = make(map[int][]float64)
		}
		f.pending[slot] = delta
		return nil
	}
	f.commit(slot, delta)
	for {
		d, ok := f.pending[f.next]
		if !ok {
			return nil
		}
		delete(f.pending, f.next)
		f.commit(f.next, d)
	}
}

// commit folds one update at its slot position; callers guarantee slot
// order. It advances next past the committed slot.
func (f *meanFold) commit(slot int, delta []float64) {
	if s := slot / f.seg; s != f.curSeg {
		f.flush()
		f.curSeg = s
	}
	if f.segAcc == nil {
		f.segAcc = make([]float64, f.p)
	}
	if f.valGrad != nil {
		f.dots = append(f.dots, tensor.DotAdd(f.valGrad, delta, f.segAcc))
	} else {
		tensor.AXPY(1, delta, f.segAcc)
	}
	f.segCount++
	f.count++
	f.slots = append(f.slots, slot)
	f.next = slot + 1
}

// flush merges a non-empty segment partial into the running total.
func (f *meanFold) flush() {
	if f.segCount == 0 {
		return
	}
	if f.acc == nil {
		f.acc = make([]float64, f.p)
	}
	tensor.AXPY(1, f.segAcc, f.acc)
	for j := range f.segAcc {
		f.segAcc[j] = 0
	}
	f.segCount = 0
}

func (f *meanFold) Close() (*FoldResult, error) {
	if f.closed {
		return nil, fmt.Errorf("hfl: fold closed twice")
	}
	f.closed = true
	// Slots parked behind permanent gaps (stragglers that never reported)
	// commit now, in slot order.
	if len(f.pending) > 0 {
		rest := make([]int, 0, len(f.pending))
		for s := range f.pending {
			rest = append(rest, s)
		}
		sort.Ints(rest)
		for _, s := range rest {
			f.commit(s, f.pending[s])
		}
		f.pending = nil
	}
	f.flush()
	res := &FoldResult{Slots: f.slots, Dots: f.dots}
	if f.count > 0 {
		tensor.Scale(1/float64(f.count), f.acc)
		res.Sum = f.acc
	}
	return res, nil
}

// Pending reports how many updates are parked awaiting predecessors — a
// diagnostic for the out-of-order worst case.
func (f *meanFold) Pending() int { return len(f.pending) }
