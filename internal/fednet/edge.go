package fednet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"digfl/internal/hfl"
	"digfl/internal/obs"
	"digfl/internal/tensor"
)

// EdgeAggregator is the middle tier of a two-level cohort tree: it owns a
// contiguous block of the participant population, ingests those members'
// updates over the same /v1/update wire the root speaks, folds them into an
// unscaled partial sum in member order, and submits one /v1/partial to the
// root per round. The root (Coordinator with Edges set) merges
// the partials in edge order and applies the single 1/m scale, so a tree
// run is bit-identical to a flat streamed run of the same segment geometry
// (one hfl.SegmentFold per edge-width segment, merged in segment order).
//
// Members must be assigned in global index order, with every member of edge
// e smaller than every member of edge e+1 — the root rejects partials whose
// slot ranges interleave. Per-round memory on the edge is O(d + members):
// member updates are folded as they arrive, four to a pass, and released.
//
// The edge learns each round from the root (?vg=1 supplies the validation
// gradient it needs to record per-update dot products before releasing the
// deltas) and discovers which members are in the round's cohort through
// cheap header-only ?i= polls, so cohort sampling composes with trees. When
// the root has a RoundDeadline, the edge closes each round edgeCloseMargin
// before it and submits the members that reported: a member that never posts
// costs the round itself, not its edge's whole block.
type EdgeAggregator struct {
	// Root is the root coordinator's base URL.
	Root string
	// Edge is this sub-aggregator's index in [0, Coordinator.Edges).
	Edge int
	// Members lists the global participant indices this edge owns, in
	// ascending order.
	Members []int
	// Client is the HTTP client for root requests; nil uses
	// http.DefaultClient.
	Client *http.Client
	// Retries bounds the retry attempts per root request beyond the first;
	// 0 means no retries. Request bodies are encoded once and re-sent
	// verbatim across backoff attempts.
	Retries int
	// Base and Cap shape the capped exponential backoff between retries;
	// zero values use 10ms / 1s.
	Base, Cap time.Duration
	// Sink receives a KindNetRequest per attempted root request and a
	// KindRetry per retried one.
	Sink obs.Sink

	mu        sync.Mutex
	changed   chan struct{}
	memberSet map[int]bool
	cur       *edgeRound
	nextRound int
	// parked holds updates that arrived before the edge learned their
	// round (a member can beat the edge to the root's broadcast); keyed by
	// round then member.
	parked map[int]map[int][]float64
	p      int // model dimension, learned at the first round
}

// edgeRound is the edge's in-flight round state. The partial is one segment
// of the canonical reduction order (hfl.SegmentFold over the active members'
// positions), so its float bits never depend on arrival order and equal the
// flat fold's over the same segment.
type edgeRound struct {
	t      int
	active []int       // active members in member (= slot) order
	pos    map[int]int // member index -> position in active
	fold   *hfl.SegmentFold
	folded []bool
	got    int
}

// add folds one member update at its position. Callers hold mu.
func (r *edgeRound) add(pos int, delta []float64) {
	r.folded[pos] = true
	r.got++
	r.fold.Add(pos, delta)
}

func (e *EdgeAggregator) initLocked() {
	if e.changed == nil {
		e.changed = make(chan struct{})
		e.memberSet = make(map[int]bool, len(e.Members))
		for _, m := range e.Members {
			e.memberSet[m] = true
		}
		e.parked = make(map[int]map[int][]float64)
		e.nextRound = 1
	}
}

func (e *EdgeAggregator) bcastLocked() {
	close(e.changed)
	e.changed = make(chan struct{})
}

// Handler returns the edge's member-facing handler: the /v1/update endpoint
// of the tree's middle tier.
func (e *EdgeAggregator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/update", e.handleUpdate)
	return mux
}

func (e *EdgeAggregator) handleUpdate(w http.ResponseWriter, req *http.Request) {
	rec, ok := readFrame(w, req)
	if !ok {
		return
	}
	defer tensor.PutBytes(rec)
	body := rec[walHdrLen:] // an edge keeps no journal; the headroom goes unused
	t, index, d, err := decodeUpdateHeader(body)
	if err != nil {
		writeCodedError(w, http.StatusUnprocessableEntity, CodeBadFrame, "%v", err)
		return
	}
	e.ingestUpdate(w, body, t, index, d)
}

// ingestUpdate runs the member-update pipeline for one update frame whose
// header already decoded — the same two-phase discipline as the root: slot
// and duplicate checks from the header alone, the delta decode and vet only
// once the update is wanted, then the in-order fold (or the park, for an
// update that beat the edge to the root's broadcast — parked updates are
// cohort-bounded).
func (e *EdgeAggregator) ingestUpdate(w http.ResponseWriter, body []byte, t, index, d int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.initLocked()
	if !e.memberSet[index] {
		writeJSON(w, http.StatusOK, updateReply{Reason: "not-active"})
		return
	}
	if t < e.nextRound {
		writeCodedError(w, http.StatusConflict, CodeStaleRound,
			"edge %d already closed round %d", e.Edge, t)
		return
	}
	r, pos := e.cur, 0
	if r != nil && r.t != t {
		r = nil // a round the edge has not learned yet: the update parks
	}
	if r != nil {
		var active bool
		if pos, active = r.pos[index]; !active {
			writeJSON(w, http.StatusOK, updateReply{Reason: "not-active"})
			return
		}
		if r.folded[pos] {
			// Idempotent retry of an update whose ack was lost.
			writeJSON(w, http.StatusOK, updateReply{Accepted: true})
			return
		}
	}
	// Until the first round teaches the edge the model dimension, the frame's
	// own d is all there is to check against.
	want := e.p
	if want == 0 {
		want = d
	}
	delta, ok := decodeDelta(w, nil, t, index, body, d, want)
	if !ok {
		return
	}
	if r != nil {
		r.add(pos, delta)
		e.bcastLocked()
	} else {
		if e.parked[t] == nil {
			e.parked[t] = make(map[int][]float64)
		}
		e.parked[t][index] = delta
	}
	writeJSON(w, http.StatusOK, updateReply{Accepted: true})
}

// Run serves rounds against the root until the run completes. Like the
// participant, a nil return means a normal shutdown (StateDone).
func (e *EdgeAggregator) Run(ctx context.Context) error {
	e.mu.Lock()
	e.initLocked()
	e.mu.Unlock()
	rc := &retrier{client: e.Client, base: e.Base, cap: e.Cap, sink: e.Sink}
	next := 1
	for {
		// Learn the next round (long-poll). ?vg=1 asks for the validation
		// gradient the dot products need and ?h=1 skips the theta download the
		// edge never uses (the model dimension comes from the gradient).
		var round roundReply
		if err := rc.get(ctx, next, e.Retries, fmt.Sprintf("%s/v1/round?t=%d&vg=1&h=1", e.Root, next), &round); err != nil {
			return fmt.Errorf("fednet: edge %d round %d: %w", e.Edge, next, err)
		}
		closeAt := edgeCloseAt(round.DeadlineMS)
		switch round.State {
		case StateDone:
			return nil
		case StatePending:
			continue
		case StateOpen:
		default:
			return fmt.Errorf("fednet: edge %d: unknown round state %q", e.Edge, round.State)
		}
		if round.T < next {
			continue
		}
		if round.ValGrad == nil {
			return fmt.Errorf("fednet: edge %d round %d: root is not streaming (its Coordinator has no Edges)", e.Edge, round.T)
		}

		// Discover which members are in the round's cohort (header-only
		// polls: no theta download).
		active := make([]int, 0, len(e.Members))
		for _, m := range e.Members {
			var mr roundReply
			if err := rc.get(ctx, round.T, e.Retries, fmt.Sprintf("%s/v1/round?t=%d&i=%d&h=1", e.Root, round.T, m), &mr); err != nil {
				return fmt.Errorf("fednet: edge %d member %d poll: %w", e.Edge, m, err)
			}
			if mr.State == StateDone {
				return nil
			}
			if mr.State != StateOpen || mr.T != round.T {
				// The round closed (or moved on) mid-discovery; skip it.
				active = nil
				break
			}
			if !mr.Excluded {
				active = append(active, m)
			}
		}
		if active == nil {
			tensor.PutVec(round.ValGrad)
			next = round.T + 1
			continue
		}

		e.mu.Lock()
		if e.p == 0 {
			// The validation gradient has the model's dimension; theta is
			// never downloaded (h=1).
			e.p = len(round.ValGrad)
		}
		sum := tensor.GetVec(e.p)
		for i := range sum {
			sum[i] = 0
		}
		r := &edgeRound{
			t:      round.T,
			active: active,
			pos:    make(map[int]int, len(active)),
			fold:   hfl.NewSegmentFold(0, sum, round.ValGrad),
			folded: make([]bool, len(active)),
		}
		// A folded delta is consumed (sum and dot are all the round keeps);
		// its buffer goes back to the pool for a later arrival.
		r.fold.Release = tensor.PutVec
		for k, m := range active {
			r.pos[m] = k
		}
		e.cur = r
		// Drain updates that arrived before the round was known, in member
		// order; parked entries from inactive members (or rounds that never
		// opened) are dropped.
		if park := e.parked[round.T]; park != nil {
			for k, m := range active {
				if d, ok := park[m]; ok && !r.folded[k] && (e.p == 0 || len(d) == e.p) {
					r.add(k, d)
				}
			}
			delete(e.parked, round.T)
		}
		for t := range e.parked {
			if t < round.T {
				delete(e.parked, t)
			}
		}
		e.bcastLocked()
		e.mu.Unlock()

		if err := e.waitRound(ctx, r, closeAt); err != nil {
			return err
		}

		// Submit the partial; a stale-round rejection means the root closed
		// the round without us — benign, the epoch degraded to survivors.
		e.mu.Lock()
		sum, folded, dots := r.fold.Close()
		indices := r.active
		if len(folded) < len(r.active) {
			// Survivors only.
			indices = make([]int, len(folded))
			for j, k := range folded {
				indices[j] = r.active[k]
			}
		}
		e.cur = nil
		e.nextRound = round.T + 1
		e.bcastLocked()
		e.mu.Unlock()

		// Encode once and re-send the same bytes across retries; every
		// buffer the round owned is recycled once the partial is on the wire.
		body, err := CodecV2.EncodePartial(round.T, e.Edge, indices, sum, dots)
		if err != nil {
			return fmt.Errorf("fednet: edge %d partial %d: %w", e.Edge, round.T, err)
		}
		var ack updateReply
		err = rc.post(ctx, round.T, e.Retries, e.Root+"/v1/partial", contentTypeBinary, body, &ack)
		tensor.PutBytes(body)
		tensor.PutVec(sum)
		tensor.PutVec(dots)
		tensor.PutVec(round.ValGrad)
		if err != nil {
			var we *WireError
			if !(errors.As(err, &we) && we.Code == CodeStaleRound) {
				return fmt.Errorf("fednet: edge %d partial %d: %w", e.Edge, round.T, err)
			}
		}
		next = round.T + 1
	}
}

// edgeCloseMargin is how long before the root's round deadline an edge
// closes its round, leaving its partial the time to reach the root.
const edgeCloseMargin = 100 * time.Millisecond

// edgeCloseAt is when an edge closes a round whose root deadline is
// deadlineMS away (0: no deadline, and no close time): edgeCloseMargin
// before it, or halfway there when the deadline is nearer than twice the
// margin.
func edgeCloseAt(deadlineMS int64) time.Time {
	if deadlineMS <= 0 {
		return time.Time{}
	}
	rem := time.Duration(deadlineMS) * time.Millisecond
	return time.Now().Add(max(rem-edgeCloseMargin, rem/2))
}

// waitRound blocks until every active member folded, closeAt passes (when
// set) or ctx is done. A member that misses the close — a straggler, or one
// that died mid-round — is left out of the partial, and the survivors reach
// the root before its RoundDeadline.
func (e *EdgeAggregator) waitRound(ctx context.Context, r *edgeRound, closeAt time.Time) error {
	var expired <-chan time.Time
	if !closeAt.IsZero() {
		timer := time.NewTimer(time.Until(closeAt))
		defer timer.Stop()
		expired = timer.C
	}
	for {
		e.mu.Lock()
		got := r.got
		ch := e.changed
		e.mu.Unlock()
		if got == len(r.active) {
			return nil
		}
		select {
		case <-ch:
		case <-expired:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
