package fednet

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"digfl/internal/hfl"
	"digfl/internal/obs"
	"digfl/internal/tensor"
)

// openRound is the coordinator's mutable view of the in-flight round: what
// every round has, whichever way it collects its cohort's updates. The
// collecting itself is the mode's.
type openRound struct {
	t       int
	lr      float64
	theta   []float64
	valGrad []float64 // ∇loss^v(θ_{t-1}) on a streaming run (served to edges via ?vg=1), else nil
	// deadline closes the round with whoever reported; resolicitAt arms the
	// root's failover re-solicitation (FailoverGrace). Zero = none.
	deadline    time.Time
	resolicitAt time.Time
	// order lists the participants expected to post, slots inverts it, and
	// have[k] records that slot k's update is committed (by its own post, an
	// edge's partial, or a journal graft); got counts the true entries.
	order  []int
	slots  map[int]int
	have   []bool
	got    int
	closed bool

	// bcast is the round's digfl-fednet/2 broadcast frame (theta, no
	// validation gradient, zero deadline), encoded by the first poll that
	// wants it and shared, immutable, by every later one. A poll may
	// still be writing it after the round closed, so it is never recycled.
	bcast []byte

	mode roundMode
	// held lists the deltas a streamed round handed its fold since the fold
	// last held none — the coordinator's streamHeld, reused round to round.
	// A fold may read a delta until its Pending reads 0 or Close returns
	// (hfl.Fold.Add); then recycle returns them all to the tensor pool. A
	// round dropped unclosed leaves its own to the next one's recycle: its
	// fold reads nothing more.
	held *[][]float64
}

// recycle returns every held delta to the tensor pool.
func (r *openRound) recycle() {
	held := *r.held
	for k, d := range held {
		tensor.PutVec(d)
		held[k] = nil
	}
	*r.held = held[:0]
}

// roundMode is the part of a round that differs between the four ways of
// collecting a cohort's updates — buffered, streamed, tree, async. The
// coordinator picks one when the round opens (newRoundLocked) and from then on
// only calls it: live ingest hands commit each update after decodeDelta and the
// journal append, Recover's graft hands it the journaled ones, and because
// every mode's outcome is a function of the committed set, not of the order
// commits arrive in, the two need not agree on order.
//
// All methods run under the coordinator's lock.
type roundMode interface {
	// commit takes ownership of slot's delta. The mode either retains it
	// until close (buffered: the epoch keeps raw deltas; async: the planner
	// folds or buffers it, and recycles it when done) or folds it and
	// returns the buffer to the tensor pool once consumed (streamed, tree);
	// the caller never touches delta again. An error means the delta was not
	// committed.
	commit(r *openRound, slot int, delta []float64) error
	// ack is the reply an accepted (or idempotently retried) update from
	// participant index draws: a status and the encoded updateReply.
	ack(index int) (status int, reply []byte)
	// close turns the committed set into the round's result (everything but
	// Reported, unless the mode decides it itself) and the number of updates
	// aggregated. It may clear have entries it could not aggregate.
	close(r *openRound) (res *hfl.RoundResult, nAgg int, err error)
}

// synchronous is the acknowledgement of the three modes whose accepted
// update is a commit candidate of its own round.
type synchronous struct{}

func (synchronous) ack(int) (int, []byte) { return http.StatusOK, ackAccepted }

// bufferedMode keeps the raw deltas, which the epoch carries to the
// consumers that need them — an Archive and an Interactive estimator — and
// to the Observer of a run that nothing streams.
type bufferedMode struct {
	synchronous
	deltas [][]float64
}

func (m *bufferedMode) commit(_ *openRound, slot int, delta []float64) error {
	m.deltas[slot] = delta
	return nil
}

func (m *bufferedMode) close(r *openRound) (*hfl.RoundResult, int, error) {
	deltas := m.deltas
	if r.got < len(deltas) {
		deltas = make([][]float64, 0, r.got)
		for _, d := range m.deltas {
			if d != nil {
				deltas = append(deltas, d)
			}
		}
	}
	return &hfl.RoundResult{Deltas: deltas}, r.got, nil
}

// streamedMode folds on arrival: round memory is O(d + cohort). On a
// reweighted round (admit non-nil) a held slot's delta stays with the fold
// until the trainer's Aggregate hands it to the pool.
type streamedMode struct {
	synchronous
	fold  hfl.Fold
	admit []hfl.Admission
}

func (m *streamedMode) commit(r *openRound, slot int, delta []float64) error {
	if err := m.fold.Add(slot, delta); err != nil {
		return err
	}
	if m.admit == nil || m.admit[slot] != hfl.AdmitHeld {
		*r.held = append(*r.held, delta)
	}
	if pend, ok := m.fold.(interface{ Pending() int }); ok && pend.Pending() == 0 {
		r.recycle()
	}
	return nil
}

func (m *streamedMode) close(r *openRound) (*hfl.RoundResult, int, error) {
	fr, err := m.fold.Close()
	if err != nil {
		return nil, 0, fmt.Errorf("fednet: round %d: closing fold: %w", r.t, err)
	}
	r.recycle()
	if fr.Reweighted != nil {
		fr.Reweighted.Release = tensor.PutVec
	}
	return &hfl.RoundResult{Agg: fr.Sum, Dots: fr.Dots, Reweighted: fr.Reweighted}, len(fr.Slots), nil
}

// treeMode merges edge sub-aggregators' partials. A member whose edge died
// posts to the root directly; those posts fold into the partial the edge
// would have sent.
type treeMode struct {
	synchronous
	width   int                // global index i belongs to edge i/width
	parts   []edgePartial      // by edge
	direct  []*hfl.SegmentFold // by edge: the members' direct posts
	viaRoot []bool             // by slot: committed by a direct post
	sink    obs.Sink
}

// edgePartial is one edge's accepted partial: the slots it covers (non-nil
// once the edge reported, even if empty), their unscaled sum and their
// validation dot products.
type edgePartial struct {
	slots     []int
	sum, dots []float64
}

func (m *treeMode) commit(r *openRound, slot int, delta []float64) error {
	e := min(r.order[slot]/m.width, len(m.parts)-1)
	if m.direct[e] == nil {
		// Opened at 0, a lower bound on any slot: the segment's first slot is
		// not known here, and a dead edge's members are few.
		m.direct[e] = hfl.NewSegmentFold(0, make([]float64, len(r.theta)), r.valGrad)
		m.direct[e].Release = tensor.PutVec
	}
	m.direct[e].Add(slot, delta)
	m.viaRoot[slot] = true
	obs.Emit(m.sink, obs.Event{Kind: obs.KindEdgeFailover, T: r.t, Part: r.order[slot]})
	return nil
}

// claimPartial validates an edge partial's header against the round before
// its vectors decode: the round a tree round (the one mode that ingests
// partials), the edge in range and not yet reported (again = true is the
// idempotent retry of a partial whose ack was lost), every index an active
// slot nobody committed, in strictly increasing slot order (edge cohorts are
// contiguous slot ranges).
func (r *openRound) claimPartial(edge int, indices []int) (m *treeMode, slots []int, again bool, refused *WireError) {
	bad := func(format string, args ...any) (*treeMode, []int, bool, *WireError) {
		return nil, nil, false, &WireError{Status: http.StatusBadRequest, Msg: fmt.Sprintf(format, args...)}
	}
	m, ok := r.mode.(*treeMode)
	if !ok {
		return bad("round %d does not ingest edge partials", r.t)
	}
	if edge < 0 || edge >= len(m.parts) {
		return bad("edge %d outside [0,%d)", edge, len(m.parts))
	}
	if m.parts[edge].slots != nil {
		return m, nil, true, nil
	}
	slots = make([]int, len(indices))
	for j, i := range indices {
		k, active := r.slots[i]
		switch {
		case !active:
			return bad("edge %d claims inactive participant %d", edge, i)
		case r.have[k] && m.viaRoot[k]:
			// The member failed over and reported directly while the edge was
			// presumed dead; the partial as a whole is superseded. Benign for
			// a recovering edge.
			return nil, nil, false, &WireError{Status: http.StatusConflict, Code: CodeStaleRound,
				Msg: fmt.Sprintf("participant %d already reported directly to the root", i)}
		case r.have[k]:
			return bad("edge %d re-claims participant %d", edge, i)
		case j > 0 && k <= slots[j-1]:
			return bad("edge %d indices out of slot order", edge)
		}
		slots[j] = k
	}
	return m, slots, false, nil
}

// commitPartial is commit for an edge's claimed partial; it retains sum and
// dots until close merges them.
func (m *treeMode) commitPartial(r *openRound, edge int, slots []int, sum, dots []float64) {
	if len(slots) == 0 {
		tensor.PutVec(sum)
		tensor.PutVec(dots)
		sum, dots = nil, nil
	}
	m.parts[edge] = edgePartial{slots: slots, sum: sum, dots: dots}
	for _, k := range slots {
		r.have[k] = true
	}
}

// close merges the partials in edge order into a zero total and applies the
// single 1/m scale.
func (m *treeMode) close(r *openRound) (*hfl.RoundResult, int, error) {
	res := &hfl.RoundResult{}
	var acc []float64
	nAgg, last := 0, -1
	for e, p := range m.parts {
		if d := m.direct[e]; d != nil {
			sum, slots, dots := d.Close()
			if len(p.slots) == 0 {
				// The edge died: its members' direct posts, folded in slot
				// order from zero, are the partial it would have sent.
				p = edgePartial{slots: slots, sum: sum, dots: dots}
			} else {
				// The edge lived and its partial stands; a member that gave
				// up on it early is not in it, and missed the round.
				for _, k := range slots {
					r.have[k] = false
				}
				r.got -= len(slots)
			}
		}
		if len(p.slots) == 0 {
			continue
		}
		if p.slots[0] <= last {
			return nil, 0, fmt.Errorf("fednet: round %d: edge %d slots overlap an earlier edge", r.t, e)
		}
		last = p.slots[len(p.slots)-1]
		if acc == nil {
			acc = make([]float64, len(r.theta))
		}
		tensor.AXPY(1, p.sum, acc)
		res.Dots = append(res.Dots, p.dots...)
		nAgg += len(p.slots)
		// The merge copied everything out; the partial's vectors go back to
		// the pool for the next round's ingest.
		tensor.PutVec(p.sum)
		tensor.PutVec(p.dots)
		m.parts[e] = edgePartial{}
	}
	if nAgg > 0 {
		tensor.Scale(1/float64(nAgg), acc)
		res.Agg = acc
	}
	return res, nAgg, nil
}

// asyncMode buffers the epoch's fresh cohort like a buffered round; the
// quorum cut and the staleness-discounted fold happen at close, in the
// planner. The round's order covers only the schedule's fresh members.
type asyncMode struct {
	plan   *hfl.AsyncPlanner
	stream hfl.StreamAggregator
	sched  *hfl.AsyncSchedule
	deltas [][]float64
}

func (m *asyncMode) commit(_ *openRound, slot int, delta []float64) error {
	m.deltas[slot] = delta
	return nil
}

// ack answers 202 buffered when the schedule lags the participant's update
// into a later epoch.
func (m *asyncMode) ack(index int) (int, []byte) {
	if m.sched.Lag[index] > 0 {
		return http.StatusAccepted, ackBuffered
	}
	return synchronous{}.ack(index)
}

// close hands the physical arrivals to the planner, which cuts the quorum
// over them plus the due buffered entries, folds the commit set at its
// staleness discounts, and re-buffers (or rejects) the rest. A fresh member
// missing an arrival is possible only when a real deadline fired.
func (m *asyncMode) close(r *openRound) (*hfl.RoundResult, int, error) {
	arrivals := make(map[int][]float64, r.got)
	for k, i := range r.order {
		if m.deltas[k] != nil {
			arrivals[i] = m.deltas[k]
		}
	}
	ac, err := m.plan.Commit(r.t, len(r.theta), m.stream, r.valGrad, m.sched, arrivals)
	if err != nil {
		return nil, 0, fmt.Errorf("fednet: round %d: async commit: %w", r.t, err)
	}
	return &hfl.RoundResult{Reported: ac.Reported, Agg: ac.Agg, Dots: ac.Dots}, len(ac.Reported), nil
}

// reclaimLocked returns the previous buffered round's deltas to the tensor
// pool as the next round opens, so it decodes into recycled memory as a
// streamed one does — under hfl.ReleaseAfterObserve only, the policy that
// says nobody reads an epoch's Deltas past the trainer's observers,
// which all ran before it asked for this round. Callers hold mu.
func (c *Coordinator) reclaimLocked() {
	if c.round == nil || c.Cfg.RetainDeltas != hfl.ReleaseAfterObserve {
		return
	}
	if m, ok := c.round.mode.(*bufferedMode); ok {
		for _, d := range m.deltas {
			tensor.PutVec(d)
		}
		m.deltas = nil
	}
}

// newRound opens round spec.T over order in mode m — the one constructor.
func newRound(spec *hfl.RoundSpec, order []int, m roundMode) *openRound {
	r := &openRound{
		t: spec.T, lr: spec.LR, theta: spec.Theta, valGrad: spec.ValGrad,
		order: order, slots: make(map[int]int, len(order)), have: make([]bool, len(order)),
		mode: m,
	}
	for k, i := range order {
		r.slots[i] = k
	}
	return r
}

// newRoundLocked picks the round's mode from the configuration — the only
// place that does. Callers hold mu (the async schedule reads the planner's
// carry-over buffer).
func (c *Coordinator) newRoundLocked(spec *hfl.RoundSpec) *openRound {
	k, p := len(spec.Active), len(spec.Theta)
	switch {
	case c.asyncPlan != nil:
		// Schedule is a pure read of (buffer, seed), so a grafted round
		// re-derives the exact pre-crash plan — the journaled epoch_open
		// carries the full active set, and the carry-over buffer was
		// reinstalled before Run's first Round call.
		sched := c.asyncPlan.Schedule(spec.T, spec.Active)
		return newRound(spec, sched.Fresh, &asyncMode{plan: c.asyncPlan, stream: c.fold(),
			sched: sched, deltas: make([][]float64, len(sched.Fresh))})
	case !c.streamed():
		return newRound(spec, spec.Active, &bufferedMode{deltas: make([][]float64, k)})
	case c.Edges > 0:
		// The fold is per-edge on the edge aggregators; the root only merges
		// the partial sums.
		return newRound(spec, spec.Active, &treeMode{width: (c.N + c.Edges - 1) / c.Edges,
			parts: make([]edgePartial, c.Edges), direct: make([]*hfl.SegmentFold, c.Edges),
			viaRoot: make([]bool, k), sink: c.Cfg.Runtime.Sink})
	default:
		m := &streamedMode{admit: spec.Admit}
		if spec.Admit != nil {
			m.fold = hfl.NewReweightedFold(p, spec.ValGrad, spec.Admit)
		} else {
			m.fold = c.fold().NewFold(p, k, spec.ValGrad)
		}
		r := newRound(spec, spec.Active, m)
		r.held = &c.streamHeld
		return r
	}
}

// commitLocked installs slot's delta through the round's mode and counts the
// arrival. Callers hold mu.
func (c *Coordinator) commitLocked(r *openRound, slot int, delta []float64) error {
	if err := r.mode.commit(r, slot, delta); err != nil {
		return err
	}
	r.have[slot] = true
	c.arrivedLocked(r, 1)
	return nil
}

// graftLocked replays a journal's open-round commits into the freshly opened
// round through the same commits live ingest uses: the restarted coordinator
// resumes mid-round with every acknowledged update already committed, so
// clients that saw an ack never recompute and the closed round is
// bit-identical to an uninterrupted one. The journal's records are disjoint
// (a slot an edge's partial covers takes no direct update, and the reverse)
// and no mode's outcome depends on commit order, so the replay maps are
// walked as they come. An async round's late admits re-enter the planner's
// buffer here, after newRoundLocked's Schedule — which must see the
// pre-admit buffer the epoch opened with. Callers hold mu.
func (c *Coordinator) graftLocked(r *openRound, rec *walReplay) {
	for e, p := range rec.partials {
		if tm, slots, again, refused := r.claimPartial(e, p.indices); refused == nil && !again {
			tm.commitPartial(r, e, slots, p.sum, p.dots)
			c.arrivedLocked(r, len(slots))
		}
	}
	if c.asyncPlan != nil {
		for i, la := range rec.lateAdmits {
			c.asyncPlan.Admit(i, la.origin, r.t, la.delta)
		}
	}
	for i, delta := range rec.updates {
		if k, active := r.slots[i]; active && !r.have[k] {
			// The journaled commits folded once already; a replay failure
			// means the journal and the fold disagree on shape, which
			// Recover's validation precludes.
			_ = c.commitLocked(r, k, delta)
		}
	}
}

// arrivedLocked counts n more of round r's slots as reported and wakes the
// round loop if that completes the round. Round acts on no other arrival —
// it re-checks only r.got == len(r.order) — so waking it per update would buy
// one goroutine switch each and nothing else; deadline expiry, cancellation
// and a poisoned journal reach it through their own channels and broadcasts.
// Callers hold mu.
func (c *Coordinator) arrivedLocked(r *openRound, n int) {
	r.got += n
	if r.got == len(r.order) {
		c.bcastLocked()
	}
}

// Round implements hfl.RoundSource: it broadcasts the round to the polling
// participants, waits until every active participant has reported or the
// round deadline expires, and returns the collected deltas in active
// order. A deadline expiry degrades the epoch to the survivors.
func (c *Coordinator) Round(ctx context.Context, spec *hfl.RoundSpec) (*hfl.RoundResult, error) {
	sink := c.Cfg.Runtime.Sink
	var deadlineCh <-chan time.Time
	var deadline time.Time
	if c.RoundDeadline > 0 {
		deadline = time.Now().Add(c.RoundDeadline)
		timer := time.NewTimer(c.RoundDeadline)
		defer timer.Stop()
		deadlineCh = timer.C
	}

	c.mu.Lock()
	c.initLocked()
	c.reclaimLocked()
	r := c.newRoundLocked(spec)
	r.deadline = deadline
	if c.FailoverGrace > 0 && c.Edges > 0 {
		r.resolicitAt = time.Now().Add(c.FailoverGrace)
	}
	// WAL: a fresh round journals its open before it is visible to any
	// client; a recovered round (the previous incarnation already journaled
	// this open and some commits) grafts the replayed commits instead.
	rec := c.rec
	c.rec = nil
	if rec != nil && rec.openT == spec.T {
		c.graftLocked(r, rec)
	} else if c.wal != nil {
		if err := c.wal.appendJSON(walRecord{Kind: walKindEpochOpen,
			T: spec.T, Active: spec.Active}); err != nil {
			c.recovering = false
			c.mu.Unlock()
			return nil, err
		}
	}
	// Recovery complete: the rejoin barrier refilled and the round is
	// republishing, so stop 503ing round traffic.
	c.recovering = false
	c.round = r
	c.bcastLocked()
	c.mu.Unlock()
	obs.Emit(sink, obs.Event{Kind: obs.KindNetRoundStart, T: spec.T, N: int64(len(spec.Active))})
	start := obs.Start(sink)

	// abort closes the round without a result: cancellation, or a poisoned
	// journal.
	abort := func(err error) (*hfl.RoundResult, error) {
		c.mu.Lock()
		r.closed = true
		c.bcastLocked()
		c.mu.Unlock()
		return nil, err
	}
	timedOut := false
	for !timedOut {
		c.mu.Lock()
		got := r.got
		ch := c.changed
		var walErr error
		if c.wal != nil {
			walErr = c.wal.Err()
		}
		c.mu.Unlock()
		if walErr != nil {
			// An update the coordinator cannot replay was refused its ack
			// (the ingest dropped the connection), and accepting more would
			// fork the journaled history from the applied one.
			return abort(walErr)
		}
		if got == len(r.order) {
			break
		}
		select {
		case <-ch:
		case <-deadlineCh:
			timedOut = true
		case <-ctx.Done():
			return abort(ctx.Err())
		}
	}

	c.mu.Lock()
	r.closed = true
	res, nAgg, err := r.mode.close(r)
	var missed []int
	if err == nil && r.got < len(r.order) {
		// Survivors only: the epoch degrades to whoever is committed, with
		// the Epoch.Reported semantics of injected dropout.
		reported := make([]int, 0, r.got)
		for k, i := range r.order {
			if r.have[k] {
				reported = append(reported, i)
			} else {
				missed = append(missed, i)
			}
		}
		if res.Reported == nil {
			res.Reported = reported
		}
	}
	c.bcastLocked()
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	for _, i := range missed {
		obs.Emit(sink, obs.Event{Kind: obs.KindNetTimeout, T: spec.T, Part: i})
	}
	obs.Emit(sink, obs.Event{Kind: obs.KindNetRoundEnd, T: spec.T,
		N: int64(nAgg), Dur: obs.Since(sink, start)})
	return res, nil
}
