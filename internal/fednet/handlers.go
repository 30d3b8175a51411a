package fednet

import (
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"digfl/internal/framing"
	"digfl/internal/jsonf"
	"digfl/internal/obs"
	"digfl/internal/tensor"
)

// Handler returns the coordinator's wire-protocol handler, mountable on
// any http.Server (or httptest server). Safe to call before Run; requests
// arriving before the run starts simply wait.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/join", c.handleJoin)
	mux.HandleFunc("GET /v1/round", c.handleRound)
	mux.HandleFunc("POST /v1/update", c.handleUpdate)
	mux.HandleFunc("GET /v1/score", c.handleScore)
	sink := c.Cfg.Runtime.Sink
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		// Every response carries the coordinator incarnation, so a client
		// detects a restart from any reply — not just a join.
		w.Header()[instanceHeader] = c.instanceHeader()
		if sink == nil {
			mux.ServeHTTP(w, req)
			return
		}
		obs.Emit(sink, obs.Event{Kind: obs.KindNetRequest, N: 1})
		cr := &countingReader{rc: req.Body}
		req.Body = cr
		cw := &countingWriter{ResponseWriter: w}
		mux.ServeHTTP(cw, req)
		obs.Emit(sink, obs.Event{Kind: obs.KindNetBytesRx, N: cr.n})
		obs.Emit(sink, obs.Event{Kind: obs.KindNetBytesTx, N: cw.n})
	})
}

// countingReader counts request-body bytes actually read by a handler.
type countingReader struct {
	rc io.ReadCloser
	n  int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.rc.Close() }

// countingWriter counts response-body bytes written by a handler.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, req *http.Request) {
	var jr joinRequest
	if err := readJSON(req.Body, &jr); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if jr.Protocol != Protocol {
		writeError(w, http.StatusBadRequest, "protocol %q, want %q", jr.Protocol, Protocol)
		return
	}
	if jr.Index < 0 || jr.Index >= c.N {
		writeError(w, http.StatusBadRequest, "participant index %d outside [0,%d)", jr.Index, c.N)
		return
	}
	steps := c.Cfg.LocalSteps
	if steps < 1 {
		steps = 1
	}
	c.mu.Lock()
	c.initLocked()
	inst := c.instance
	// Idempotent: a retried join (the first reply was lost) succeeds. Join
	// never answers 503 recovering — re-joining is how recovery completes.
	if !c.joined[jr.Index] {
		c.joined[jr.Index] = true
		c.nJoined++
		c.bcastLocked()
	}
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, joinReply{
		Protocol: Protocol, N: c.N, Epochs: c.Cfg.Epochs, LocalSteps: steps, Instance: inst,
	})
}

// longPollWait bounds one server-side long-poll leg; clients re-poll on a
// pending reply.
const longPollWait = 10 * time.Second

// longPollTimer is a handler's longPollWait clock, started by the first
// wait rather than on entry: most polls find their answer ready and never
// block, and those should not pay for a timer. The zero value is ready;
// defer stop.
type longPollTimer struct{ t *time.Timer }

// expired returns the channel that fires longPollWait after the first call.
func (l *longPollTimer) expired() <-chan time.Time {
	if l.t == nil {
		l.t = time.NewTimer(longPollWait)
	}
	return l.t.C
}

func (l *longPollTimer) stop() {
	if l.t != nil {
		l.t.Stop()
	}
}

// queryGet is u.Query().Get(key) — the first value of key, "" without one —
// read straight off a query that holds no escape ('%', '+') and no ';' (which
// ParseQuery refuses), as every poll's does: no map built per request.
func queryGet(u *url.URL, key string) string {
	raw := u.RawQuery
	if strings.ContainsAny(raw, "%+;") {
		return u.Query().Get(key)
	}
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if k, v, _ := strings.Cut(pair, "="); k == key {
			return v
		}
	}
	return ""
}

func (c *Coordinator) handleRound(w http.ResponseWriter, req *http.Request) {
	get := func(key string) string { return queryGet(req.URL, key) }
	t, err := strconv.Atoi(get("t"))
	if err != nil || t < 1 {
		writeError(w, http.StatusBadRequest, "bad round number %q", get("t"))
		return
	}
	// ?i= lets a participant learn it is outside the round's cohort without
	// downloading theta or computing an update.
	pollIdx, hasIdx := -1, false
	if s := get("i"); s != "" {
		if pollIdx, err = strconv.Atoi(s); err != nil {
			writeError(w, http.StatusBadRequest, "bad participant index %q", s)
			return
		}
		hasIdx = true
	}
	headerOnly := get("h") == "1"
	sink := c.Cfg.Runtime.Sink
	var wait longPollTimer
	defer wait.stop()
	for {
		c.mu.Lock()
		c.initLocked()
		if c.done {
			c.mu.Unlock()
			writeJSON(w, http.StatusOK, roundReply{State: StateDone})
			return
		}
		if c.recovering {
			// The coordinator restarted and is replaying its journal; the
			// join barrier must refill before any round republishes. The
			// client re-joins and retries with backoff.
			c.mu.Unlock()
			refuseRecovering(w)
			return
		}
		// A round at or past the requested one serves the request: a
		// participant that missed rounds must jump forward, never wait for
		// a round that already closed.
		if r := c.round; r != nil && !r.closed && r.t >= t {
			if hasIdx {
				if _, active := r.slots[pollIdx]; !active {
					c.mu.Unlock()
					writeExcluded(w, r.t)
					return
				}
			}
			reply := roundReply{State: StateOpen, T: r.t, LR: jsonf.F64(r.lr)}
			if c.Async != nil {
				reply.Quorum = c.Async.Quorum
				reply.MaxStale = c.Async.MaxStaleness
			}
			if !r.deadline.IsZero() {
				if rem := time.Until(r.deadline); rem > 0 {
					reply.DeadlineMS = rem.Milliseconds()
				}
			}
			if !headerOnly {
				// The participants' poll: every cohort member downloads the
				// same frame but for the deadline field, so the round encodes
				// it once and each poll patches its own header.
				if r.bcast == nil {
					r.bcast = encodeRoundFrame(r.t, r.lr, 0, r.theta, reply.Quorum, reply.MaxStale)
				}
				frame := r.bcast
				c.mu.Unlock()
				obs.Emit(sink, obs.Event{Kind: obs.KindCodecV2Frame, T: reply.T, N: 1})
				writeRoundBroadcast(w, frame, reply.DeadlineMS)
				return
			}
			c.mu.Unlock()
			writeJSON(w, http.StatusOK, reply)
			return
		}
		ch := c.changed
		c.mu.Unlock()
		select {
		case <-ch:
		case <-wait.expired():
			writeJSON(w, http.StatusOK, roundReply{State: StatePending})
			return
		case <-req.Context().Done():
			return
		}
	}
}

// writeExcluded answers a poll from outside round t's cohort: json.Encoder's
// bytes for roundReply{State: StateOpen, T: t, Excluded: true}, by hand.
func writeExcluded(w http.ResponseWriter, t int) {
	b := append(make([]byte, 0, 48), `{"state":"open","t":`...)
	b = strconv.AppendInt(b, int64(t), 10)
	writeRawJSON(w, http.StatusOK, append(b, `,"excluded":true}`+"\n"...))
}

func (c *Coordinator) handleUpdate(w http.ResponseWriter, req *http.Request) {
	rec, ok := readFrame(w, req)
	if !ok {
		return
	}
	defer tensor.PutBytes(rec)
	t, index, d, err := decodeUpdateHeader(rec[framing.HdrLen:])
	if err != nil {
		writeCodedError(w, http.StatusUnprocessableEntity, CodeBadFrame, "%v", err)
		return
	}
	c.ingestUpdate(w, rec, t, index, d)
}

// refuseRecovering answers an ingest that reached a coordinator still
// replaying its journal. Not stale — the round may still be open once
// recovery finishes: the client re-joins and retries, and its committed
// update then gets the idempotent ack from the grafted slot.
func refuseRecovering(w http.ResponseWriter) {
	writeCodedError(w, http.StatusServiceUnavailable, CodeRecovering,
		"coordinator is recovering; re-join and retry")
}

// refuseStale answers an ingest for a round that is gone — the sender
// straggled past the deadline (or submitted for a round that is not open).
// Benign for a well-behaved client: the epoch proceeded with the survivors.
func refuseStale(w http.ResponseWriter, t int) {
	writeCodedError(w, http.StatusConflict, CodeStaleRound, "round %d is not open", t)
}

// mustJournalLocked lets an ingest go on to commit only past a successful
// journal append (err nil). An update the journal cannot replay must never
// be acknowledged, so a failed append recycles the decoded vectors, wakes the
// round loop (which aborts the run on the poisoned journal) and drops the
// connection without a reply — the client retries against the aborting run
// and gets 503/stale, never a false ack. Callers hold mu by defer.
func (c *Coordinator) mustJournalLocked(err error, vecs ...[]float64) {
	if err == nil {
		return
	}
	for _, v := range vecs {
		tensor.PutVec(v)
	}
	c.bcastLocked()
	panic(http.ErrAbortHandler)
}

// ingestUpdate runs the acceptance pipeline for one update frame whose
// header (t, index, d) already decoded: slot and duplicate checks from the
// header alone — a straggler's late megabyte costs a header peek, not a
// parsed buffer the 409 branch then drops on the floor — then the delta
// decode (only once the update is known to be wanted), then the shape and
// finiteness screen, the journal append, and the round's commit. A frame past
// the header check and the screen is its own canonical encoding, so the
// journal takes rec (readFrame's) as it arrived: no re-encoding, no copy.
func (c *Coordinator) ingestUpdate(w http.ResponseWriter, rec []byte, t, index, d int) {
	sink := c.Cfg.Runtime.Sink
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.recovering {
		refuseRecovering(w)
		return
	}
	r := c.round
	if c.asyncPlan != nil && r != nil && !r.closed && t < r.t {
		// Async late path: an update for an older round reached an open
		// later one. Within the staleness window it is admitted into the
		// planner's buffer (202 buffered) and folds at a discount when due;
		// beyond the window it is refused as too stale.
		c.ingestLateLocked(w, r, rec, t, index, d)
		return
	}
	if r == nil || r.t != t || r.closed {
		refuseStale(w, t)
		return
	}
	k, active := r.slots[index]
	if !active {
		writeRawJSON(w, http.StatusOK, ackNotActive)
		return
	}
	if !r.have[k] {
		obs.Emit(sink, obs.Event{Kind: obs.KindCodecV2Frame, T: t, N: 1})
		delta, ok := decodeDelta(w, sink, t, index, rec[framing.HdrLen:], d, len(r.theta))
		if !ok {
			return
		}
		if c.wal != nil {
			c.mustJournalLocked(c.wal.commit(rec), delta)
		}
		if err := c.commitLocked(r, k, delta); err != nil {
			writeError(w, http.StatusInternalServerError, "folding update: %v", err)
			return
		}
	}
	// Also the idempotent path: a retried submission (the first ack was
	// lost) is acknowledged without overwriting — and without re-decoding
	// the duplicate payload.
	status, ack := r.mode.ack(index)
	writeRawJSON(w, status, ack)
}

// ingestLateLocked admits (or refuses) an async late update: one computed
// against closed round origin that physically arrived while round r.t is
// open. The delta is journaled as a D2UP frame at t = r.t (the arrived frame,
// its header's t patched in place) followed by a stale_admit control record,
// so replay can tell it apart from the open round's fresh arrivals. Callers
// hold mu.
func (c *Coordinator) ingestLateLocked(w http.ResponseWriter, r *openRound, rec []byte, origin, index, d int) {
	sink := c.Cfg.Runtime.Sink
	if s := r.t - origin; s > c.Async.MaxStaleness {
		obs.Emit(sink, obs.Event{Kind: obs.KindStaleReject, T: r.t, Part: index, N: int64(s)})
		writeCodedError(w, http.StatusConflict, CodeTooStale,
			"update for round %d is %d epochs stale (window %d)", origin, s, c.Async.MaxStaleness)
		return
	}
	// Idempotent: a retried admission (the first 202 was lost) — or a second
	// stale update racing the buffered one — leaves the buffer untouched.
	if !c.asyncPlan.InFlight(index) {
		delta, ok := decodeDelta(w, sink, r.t, index, rec[framing.HdrLen:], d, len(r.theta))
		if !ok {
			return
		}
		if c.wal != nil {
			le.PutUint32(rec[framing.HdrLen+4:], uint32(r.t))
			c.mustJournalLocked(c.wal.commit(rec), delta)
			c.mustJournalLocked(c.wal.appendJSON(walRecord{Kind: walKindStaleAdmit,
				T: r.t, Part: index, Origin: origin}))
		}
		c.asyncPlan.Admit(index, origin, r.t, delta)
	}
	writeRawJSON(w, http.StatusAccepted, ackBuffered)
}

// decodeDelta decodes an update frame's d floats into a pooled vector and
// applies the shape and finiteness screen every update passes: want is the
// model dimension (an honest client can never produce a wrong-length delta
// from its round's broadcast), and finiteness is what the decode itself saw,
// so the verdict cannot part from the vector it describes. A refused delta is
// recycled, counted as KindUpdateRejected against round t, and answered 422;
// decodeDelta then returns false.
func decodeDelta(w http.ResponseWriter, sink obs.Sink, t, index int, body []byte, d, want int) ([]float64, bool) {
	delta, finite := decodeFrameVec(body[updateHdrLen:], d)
	if d == want && finite {
		return delta, true
	}
	tensor.PutVec(delta)
	obs.Emit(sink, obs.Event{Kind: obs.KindUpdateRejected, T: t, Part: index})
	if d != want {
		writeCodedError(w, http.StatusUnprocessableEntity, CodeBadShape,
			"delta has %d params, model has %d", d, want)
	} else {
		writeCodedError(w, http.StatusUnprocessableEntity, CodeNonFinite,
			"delta carries non-finite values")
	}
	return nil, false
}

// handleScore serves the live attribution. Under mu it copies only the
// estimator's totals into scoreTot (the quarantine list is a copy already);
// the reply is written from that snapshot into scoreBuf after mu is
// released, so a read of a 100k-participant run holds the round loop off
// for one copy, not for its encoding, and allocates nothing once the
// buffers have grown. Concurrent reads queue on scoreMu, each behind the one
// whose reply is being written; the round loop never waits on it.
func (c *Coordinator) handleScore(w http.ResponseWriter, req *http.Request) {
	c.scoreMu.Lock()
	defer c.scoreMu.Unlock()
	c.mu.Lock()
	if c.Estimator == nil {
		c.mu.Unlock()
		writeError(w, http.StatusNotFound, "coordinator has no estimator attached")
		return
	}
	if c.recovering {
		c.mu.Unlock()
		refuseRecovering(w)
		return
	}
	attr := c.Estimator.Attribution()
	c.scoreTot = append(c.scoreTot[:0], attr.Totals...)
	epochs := attr.Epochs
	var banned []int
	if c.Quarantine != nil {
		banned = c.Quarantine.Quarantined()
	}
	c.mu.Unlock()
	c.scoreBuf = appendScore(c.scoreBuf[:0], epochs, c.scoreTot, banned)
	writeRawJSON(w, http.StatusOK, c.scoreBuf)
}

// appendScore appends the /v1/score reply — json.Encoder's bytes for the
// same fields, newline included (TestScoreReplyBytes) — to b:
//
//	{"epochs":E,"totals":[…],"quarantined":[…],"engine":"dig-fl"}
//
// epochs and totals are the estimator's; quarantined lists the banned
// participants and is omitted when none are; engine names the
// first-derivative estimator that backs the endpoint.
func appendScore(b []byte, epochs int, totals []float64, banned []int) []byte {
	b = strconv.AppendInt(append(b, `{"epochs":`...), int64(epochs), 10)
	b = jsonf.AppendVec(append(b, `,"totals":`...), totals)
	if len(banned) > 0 {
		b = append(b, `,"quarantined":[`...)
		for k, i := range banned {
			if k > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(i), 10)
		}
		b = append(b, ']')
	}
	return append(b, `,"engine":"dig-fl"}`+"\n"...)
}
