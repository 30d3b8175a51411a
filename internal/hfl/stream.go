package hfl

import (
	"fmt"
	"math"
	"slices"

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
	// Reweighted, for a fold NewReweightedFold opened, holds the round's
	// weighted sums until the epoch's close decides its held slots; Sum is
	// then nil. Nil when nothing arrived.
	Reweighted *Reweighted
}

// StreamAggregator supplies per-round Folds — the streaming aggregation
// seam. An Aggregator (a coordinate-wise median, say) consumes the
// materialized round buffer instead, so it runs on buffered rounds only;
// the trainer refuses it beside Stream.
type StreamAggregator interface {
	// NewFold opens one round's accumulator for k active slots of dimension
	// p. valGrad, when non-nil, is ∇loss^v(θ_{t-1}); the fold then reports
	// per-update dot products alongside the aggregate.
	NewFold(p, k int, valGrad []float64) Fold
}

// MeanStream is the streaming uniform-mean aggregation rule: G_t =
// (1/m)·Σ δ over the m arrived updates, folded on arrival by one
// segmentFold — summed in slot order from a zero accumulator — and scaled
// once by 1/m. That is the buffered trainer's order, so MeanStream{} runs
// are bit-identical to buffered runs.
type MeanStream struct{}

// NewFold implements StreamAggregator.
func (MeanStream) NewFold(p, k int, valGrad []float64) Fold {
	return &meanFold{p: p, k: k, valGrad: valGrad}
}

// Admission is a slot's class in a reweighted round: what the fold may do
// with the slot's update when it arrives. An Admitter assigns them.
type Admission uint8

const (
	// AdmitFold commits the update on arrival: its weight and its delta
	// are final, because this epoch's close cannot exclude it.
	AdmitFold Admission = iota
	// AdmitHeld takes the update's dot on arrival but keeps its delta
	// until the close, which may exclude it: a survivor is summed after
	// every folded update, an excluded one not at all.
	AdmitHeld
	// AdmitDotOnly takes the update's dot and never sums its delta: the
	// participant was excluded before the epoch began.
	AdmitDotOnly
)

// NewReweightedFold opens the fold of a reweighted round over len(class)
// slots, slot k admitted as class[k]. Each update's dot w = valGrad·δ is
// taken as it commits, four updates to a pass, and a folded update adds
// w⁺·δ (w⁺ = max(w, 0)) to a weighted sum in the pass right after; the
// plain sum the uniform fallback needs rides the dot pass until a folded
// weight is positive, and is dropped from then on. Its
// Close returns the round's dots and a Reweighted, not a Sum: the aggregate
// waits for the epoch's close to say which held slots survive. valGrad must
// be non-nil. The fold reads a held update's delta until Aggregate returns,
// past Close and past Pending reading 0.
func NewReweightedFold(p int, valGrad []float64, class []Admission) Fold {
	if valGrad == nil {
		panic("hfl: a reweighted fold needs the validation gradient")
	}
	return &meanFold{p: p, k: len(class), valGrad: valGrad, class: class}
}

// segmentFold is the accumulator of a round's slots: the unscaled sum of
// the updates added and, given a validation gradient, their dot products,
// committed in slot order whatever the arrival order. An update that arrives
// ahead of a predecessor parks until the predecessors commit or close drains
// the gaps, so the sum's float bits never depend on network timing. Updates
// in slot order stage up to three at a time and the fourth folds all four in
// one tensor.DotAdd4 pass (AXPY4 without a validation gradient); close folds
// a staged tail of one to three one by one. Either way each update's dot and
// each coordinate's sum have the bits of one DotAdd per update in slot order.
//
// Callers guarantee what Fold.Add checks: each slot at most once, every
// delta as long as the accumulator. Not safe for concurrent use.
type segmentFold struct {
	valGrad []float64
	sum     []float64
	next    int   // smallest slot not yet staged (assuming no gaps)
	pos     []int // staged or folded slots, ascending
	dots    []float64
	staged  [4][]float64 // the updates at pos's last nstaged slots
	nstaged int
	parked  [][]float64 // out-of-order updates by slot; nil where none
	nparked int

	// A reweighted fold's admissions, by slot (nil: every slot folds), and
	// what its folded updates add: Σ w⁺·δ into wsum and Σ w⁺ into wtot, in
	// slot order, over nfold updates. held lists the AdmitHeld updates,
	// unsummed.
	class []Admission
	wsum  []float64
	wtot  float64
	nfold int
	held  []heldUpdate
}

// heldUpdate is an AdmitHeld update: its slot, its dot and its delta, and
// whether the close excluded it.
type heldUpdate struct {
	slot  int
	w     float64
	delta []float64
	out   bool
}

// add folds the update at pos, or parks it behind a missing predecessor.
func (s *segmentFold) add(pos int, delta []float64) {
	if pos != s.next {
		if n := pos + 1; n > len(s.parked) {
			s.parked = append(s.parked, make([][]float64, n-len(s.parked))...)
		}
		s.parked[pos] = delta
		s.nparked++
		return
	}
	s.stage(pos, delta)
	for s.next < len(s.parked) && s.parked[s.next] != nil {
		d := s.parked[s.next]
		s.parked[s.next] = nil
		s.nparked--
		s.stage(s.next, d)
	}
}

// stage queues one update behind the staged ones and folds all four in one
// pass once there are four; callers guarantee slot order.
func (s *segmentFold) stage(pos int, delta []float64) {
	s.pos = append(s.pos, pos)
	s.next = pos + 1
	s.staged[s.nstaged] = delta
	if s.nstaged++; s.nstaged < len(s.staged) {
		return
	}
	x := &s.staged
	switch {
	case s.class != nil:
		s.weigh()
	case s.valGrad != nil:
		d0, d1, d2, d3 := tensor.DotAdd4(s.valGrad, x[0], x[1], x[2], x[3], s.sum)
		s.dots = append(s.dots, d0, d1, d2, d3)
	default:
		tensor.AXPY4(1, 1, 1, 1, x[0], x[1], x[2], x[3], s.sum)
	}
	s.unstage()
}

// flush folds the one to three staged updates one at a time.
func (s *segmentFold) flush() {
	if s.class != nil {
		s.weigh()
	} else {
		for _, d := range s.staged[:s.nstaged] {
			if s.valGrad != nil {
				s.dots = append(s.dots, tensor.DotAdd(s.valGrad, d, s.sum))
			} else {
				tensor.AXPY(1, d, s.sum)
			}
		}
	}
	s.unstage()
}

// weigh folds a reweighted fold's staged updates, whatever their classes:
// their dots w (Dot's bits), then wsum += w⁺·δ and wtot += w⁺ over the
// AdmitFold ones in slot order — held and dot-only ones weigh 0 — and
// the held ones onto the held list. The plain sum of the AdmitFold ones is
// kept only while no folded weight is positive: from then on P cannot be
// empty, and the uniform fallback that reads it cannot happen. Four updates
// take a DotAdd4 (or DotRows) pass and an AXPY4 pass; a lane weighing 0
// joins the AXPY4 when every dot is finite, which makes its delta finite
// and its 0·δ term add nothing to a sum that starts at +0.
func (s *segmentFold) weigh() {
	n, first := s.nstaged, len(s.pos)-s.nstaged
	x := s.staged[:n]
	var class [4]Admission
	var one, c [4]float64
	folded := 0
	for k := range x {
		if class[k] = s.class[s.pos[first+k]]; class[k] == AdmitFold {
			one[k] = 1
			folded++
		}
	}
	d := len(s.dots)
	s.dots = slices.Grow(s.dots, n)[:d+n]
	w := s.dots[d:]
	switch {
	case s.wtot == 0 && folded == 4:
		w[0], w[1], w[2], w[3] = tensor.DotAdd4(s.valGrad, x[0], x[1], x[2], x[3], s.sum)
	case s.wtot == 0:
		tensor.DotRows(w, s.valGrad, x)
		tensor.AXPYRows(one[:n], x, s.sum)
	default:
		tensor.DotRows(w, s.valGrad, x)
	}
	finite := true
	for k, v := range w {
		if one[k] == 1 && v > 0 { // a NaN dot weighs nothing, like a negative one
			c[k] = v
			s.wtot += v
		}
		finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
		if class[k] == AdmitHeld {
			s.held = append(s.held, heldUpdate{slot: s.pos[first+k], w: v, delta: x[k]})
		}
	}
	if n == 4 && finite {
		tensor.AXPY4(c[0], c[1], c[2], c[3], x[0], x[1], x[2], x[3], s.wsum)
	} else {
		tensor.AXPYRows(c[:n], x, s.wsum)
	}
	s.nfold += folded
}

// unstage empties the stage of the updates just folded (or, for a held
// one, just listed).
func (s *segmentFold) unstage() {
	for k := range s.staged[:s.nstaged] {
		s.staged[k] = nil
	}
	s.nstaged = 0
}

// pending reports how many updates the fold holds and has not folded yet:
// parked awaiting predecessors, or staged awaiting a four-wide pass.
func (s *segmentFold) pending() int { return s.nparked + s.nstaged }

// has reports whether the update at pos was added. Before close the staged
// and folded slots are exactly those below next, and every later one is
// parked.
func (s *segmentFold) has(pos int) bool {
	return pos < s.next || pos < len(s.parked) && s.parked[pos] != nil
}

// close folds the updates still parked behind permanent gaps (stragglers
// that never reported) in slot order, then the staged tail, and returns the
// unscaled sum, the folded slots ascending, and the dot products aligned
// with them (nil without a validation gradient).
func (s *segmentFold) close() (sum []float64, pos []int, dots []float64) {
	for k, d := range s.parked {
		if d != nil {
			s.stage(k, d)
		}
	}
	s.parked, s.nparked = nil, 0
	s.flush()
	return s.sum, s.pos, s.dots
}

// meanFold is MeanStream's per-round accumulator: slot validation around
// one segmentFold over the round's k slots, opened by the first arrival —
// and NewReweightedFold's, with the slots' admissions. The segment and
// both results live inside it: a round allocates one fold.
type meanFold struct {
	p, k    int
	valGrad []float64
	class   []Admission
	sf      segmentFold // opened (sum non-nil) by the first arrival
	closed  bool
	res     FoldResult
	rw      Reweighted
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
	if f.sf.sum == nil {
		f.open()
	}
	if f.sf.has(slot) {
		return fmt.Errorf("hfl: fold slot %d added twice", slot)
	}
	if f.sf.add(slot, delta); f.sf.next == f.k {
		f.sf.flush() // every slot is in: nothing can join the stage
	}
	return nil
}

// open starts the segment at the first arrival, its position and dot lists
// sized for the k slots. A reweighted fold takes its two accumulators from
// the tensor pool: Aggregate hands back the one it does not return.
func (f *meanFold) open() {
	f.sf = segmentFold{valGrad: f.valGrad, pos: make([]int, 0, f.k)}
	if f.valGrad != nil {
		f.sf.dots = make([]float64, 0, f.k)
	}
	if f.class == nil {
		f.sf.sum = make([]float64, f.p)
		return
	}
	f.sf.sum, f.sf.wsum = tensor.GetVec(f.p), tensor.GetVec(f.p)
	clear(f.sf.sum)
	clear(f.sf.wsum)
	f.sf.class = f.class
}

func (f *meanFold) Close() (*FoldResult, error) {
	if f.closed {
		return nil, fmt.Errorf("hfl: fold closed twice")
	}
	f.closed = true
	if f.sf.sum == nil {
		return &f.res, nil
	}
	sum, slots, dots := f.sf.close()
	f.res = FoldResult{Slots: slots, Dots: dots}
	if f.class != nil {
		sf := &f.sf
		f.rw = Reweighted{sum: sum, wsum: sf.wsum, wtot: sf.wtot, n: sf.nfold, held: sf.held}
		f.res.Reweighted = &f.rw
		return &f.res, nil
	}
	tensor.Scale(1/float64(len(slots)), sum)
	f.res.Sum = sum
	return &f.res, nil
}

// Reweighted is a closed reweighted fold's sums, waiting for the epoch's
// close to say which held slots survive. Aggregate then finishes G_t.
type Reweighted struct {
	// Release, when non-nil, is handed each held delta once Aggregate has
	// read it (the coordinator returns them to the tensor pool).
	Release func([]float64)

	// Σ δ and Σ w⁺·δ over the folded updates, in slot order; sum stops
	// once a folded weight is positive (then only wsum can be G_t).
	sum, wsum []float64
	wtot      float64 // Σ w⁺ over them, in slot order
	n         int     // how many updates folded
	held      []heldUpdate
}

// Aggregate returns the round's G_t, the one canonical form of the
// reweighted aggregate (Eq. 17–18 with the 1/|S| of φ̂ cancelled):
//
//	G_t = (Σ_{k∈P} w_k·δ_k)·(1/Σ_{k∈P} w_k),
//
// w_k = ∇loss^v(θ_{t−1})·δ_k, P the slots excluded does not name with
// w_k > 0. Each sum starts from zero and takes the folded slots first, then
// the surviving held ones, both in slot order. With P empty G_t is the
// uniform mean over the slots excluded does not name, in the same order;
// nil (θ stays) when it names every slot. excluded is asked only about
// held slots: a folded slot cannot be excluded and a dot-only one always
// is. G_t comes from the tensor pool and is the caller's: tensor.PutVec it
// once read. Call Aggregate once.
func (r *Reweighted) Aggregate(excluded func(slot int) bool) []float64 {
	n, g, tot := r.n, r.wsum, r.wtot
	for k := range r.held {
		h := &r.held[k]
		if h.out = excluded(h.slot); !h.out {
			n++
			if h.w > 0 {
				tensor.AXPY(h.w, h.delta, g)
				tot += h.w
			}
		}
	}
	spare := r.sum
	switch {
	case tot > 0:
		tensor.Scale(1/tot, g)
	case n > 0:
		g, spare = r.sum, g
		for _, h := range r.held {
			if !h.out {
				tensor.AXPY(1, h.delta, g)
			}
		}
		tensor.Scale(1/float64(n), g)
	default:
		tensor.PutVec(g)
		g = nil
	}
	tensor.PutVec(spare)
	if r.Release != nil {
		for _, h := range r.held {
			r.Release(h.delta)
		}
	}
	return g
}

// Pending reports how many updates the fold holds unfolded, parked or
// staged — a diagnostic for the out-of-order worst case, and how a caller
// that recycles buffers knows when every delta it added has been read: when
// Pending reads 0.
func (f *meanFold) Pending() int { return f.sf.pending() }
