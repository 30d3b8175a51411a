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
	valGrad []float64 // ∇loss^v(θ_{t-1}) on a streaming run, else nil
	// deadline closes the round with whoever reported. Zero = none.
	deadline time.Time
	// order lists the participants expected to post, slots inverts it, and
	// have[k] records that slot k's update is committed (by its own post or
	// a journal graft); got counts the true entries.
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

// roundMode is the part of a round that differs between the three ways of
// collecting a cohort's updates — buffered, streamed, async. The
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
	// returns the buffer to the tensor pool once consumed (streamed);
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

// synchronous is the acknowledgement of the two modes whose accepted update
// is a commit candidate of its own round.
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
// bit-identical to an uninterrupted one. No mode's outcome depends on commit
// order, so the replay maps are walked as they come. An async round's late
// admits re-enter the planner's buffer here, after newRoundLocked's Schedule
// — which must see the pre-admit buffer the epoch opened with. Callers hold
// mu.
func (c *Coordinator) graftLocked(r *openRound, rec *walReplay) {
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
