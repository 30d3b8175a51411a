// Package fednet is the networked federated runtime: a stdlib-only
// coordinator/participant pair that runs HFL training and DIG-FL
// contribution estimation over a real HTTP boundary instead of an
// in-process loop. The Coordinator serves a versioned wire protocol
// (join / round / update / partial / score) and drives internal/hfl
// epochs through the trainer's RoundSource seam; the Participant is the
// matching client wrapping one local dataset shard.
//
// Determinism contract: a fault-free loopback run (every participant
// reports every round) produces the same model bits, validation-loss
// curve, training log, and per-participant contributions φ as the
// in-process hfl.Trainer on the same seed. The wire cannot perturb floats
// — theta and delta vectors cross it as raw IEEE-754 bits in digfl-fednet/2
// binary frames (see codec.go), the only encoding of an O(d) payload; JSON
// carries the control plane only — and cannot perturb order: deltas are
// slotted by participant index into the round's active order, so
// aggregation order never depends on arrival order. A participant that
// misses a round deadline degrades that epoch to the survivors with exactly
// the Epoch.Reported semantics of injected dropout, so contribution scores
// survive real network failures the way Lemma 3 promises.
package fednet

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"digfl/internal/jsonf"
	"digfl/internal/tensor"
)

// Protocol is the wire-protocol version string, checked at join; both sides
// refuse to talk across a version mismatch.
const Protocol = "digfl-fednet/1"

// Round states returned by the /v1/round endpoint.
const (
	// StatePending means the requested object does not exist yet; poll
	// again.
	StatePending = "pending"
	// StateOpen means the returned round is accepting updates.
	StateOpen = "open"
	// StateDone means training has finished (or aborted); no more rounds.
	StateDone = "done"
)

// joinRequest claims a participant slot. Participants declare their index —
// identity maps to a dataset shard, so the server must not assign it.
// Unknown fields are ignored, not rejected.
type joinRequest struct {
	Protocol string `json:"protocol"`
	Index    int    `json:"index"`
}

// joinReply confirms the slot and carries the run's static configuration.
type joinReply struct {
	Protocol   string `json:"protocol"`
	N          int    `json:"n"`
	Epochs     int    `json:"epochs"`
	LocalSteps int    `json:"local_steps"`
	// Instance is the coordinator incarnation number (1 for a fresh run,
	// +1 per crash recovery). A participant that sees the incarnation
	// change — here or in the X-Digfl-Instance response header — re-joins
	// before continuing, because a restarted coordinator forgot its join
	// barrier. Additive: old coordinators send 0.
	Instance int `json:"instance,omitempty"`
	// Prox is the FedProx proximal coefficient μ the run trains with; the
	// participant adds μ·(w − θ_{t-1}) to every multi-step local gradient.
	// Additive: absent means 0 (plain FedSGD/FedAvg local update).
	Prox float64 `json:"prox,omitempty"`
}

// roundReply is the /v1/round long-poll response. On the wire it is JSON
// only when it carries no vector — an excluded/pending/done/resubmit marker
// or a header-only open reply; an open round's broadcast travels as a
// digfl-fednet/2 round frame, which the client decodes into this same shape
// (Theta and ValGrad are filled from frames alone).
type roundReply struct {
	State string    `json:"state"`
	T     int       `json:"t,omitempty"`
	LR    jsonf.F64 `json:"lr,omitempty"`
	Theta []float64 `json:"-"`
	// DeadlineMS is the remaining round deadline in milliseconds at the
	// moment the reply was built; 0 means the round has no deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Excluded tells a participant that polled with its index (?i=) that it
	// is not in this round's cohort — sampled out or scheduled to drop —
	// so it can skip the local computation entirely and wait for the next
	// round. Excluded replies omit Theta. Additive: clients that do not
	// send ?i= never see it.
	Excluded bool `json:"excluded,omitempty"`
	// ValGrad is ∇loss^v(θ_{T-1}), served only when the poll asked for it
	// (?vg=1) on a streaming round — edge sub-aggregators need it to
	// compute the per-update validation dot products the estimator consumes
	// after the poll's round.
	ValGrad []float64 `json:"-"`
	// Resubmit asks a participant polling for round T+1 to re-send its
	// round-T update directly to the root: its edge aggregator died before
	// folding the cohort partial, so the root never saw the update the
	// edge acknowledged. Served only on ?i= polls whose slot is unfolded
	// after the failover grace expires. Additive.
	Resubmit bool `json:"resubmit,omitempty"`
	// Quorum is the async commit policy's K: the round commits as soon as
	// K admissible updates are buffered. Served only on async rounds;
	// absent (0) means the round is synchronous. Additive.
	Quorum int `json:"quorum,omitempty"`
	// MaxStale is the async staleness window in epochs: an update whose
	// origin round is more than MaxStale behind the open round is rejected
	// with CodeTooStale. Served only on async rounds. Additive.
	MaxStale int `json:"max_stale,omitempty"`
}

// updateReply acknowledges (or rejects) a submitted update.
type updateReply struct {
	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason,omitempty"`
}

// errorReply is the JSON body of every non-2xx response. Code, when
// present, machine-names the rejection so clients can distinguish benign
// refusals (a stale round) from fatal ones (a malformed update).
type errorReply struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// Wire error codes carried in errorReply.Code.
const (
	// CodeStaleRound rejects an update for a round that is not the open
	// one — closed past its deadline, not yet opened, or never to open.
	// Benign for the client: the epoch proceeded with the survivors.
	CodeStaleRound = "stale_round"
	// CodeBadShape rejects an update whose delta length does not match the
	// broadcast model. Fatal for the client.
	CodeBadShape = "bad_shape"
	// CodeNonFinite rejects an update carrying NaN or ±Inf coordinates.
	// Fatal for the client.
	CodeNonFinite = "non_finite"
	// CodeBadFrame rejects an upload that is not a well-formed
	// digfl-fednet/2 frame: a body whose Content-Type is not the frame type
	// (415), or a frame whose envelope is malformed — truncated, oversized,
	// wrong magic, or a byte length that contradicts the header (422). Fatal
	// for the client.
	CodeBadFrame = "bad_frame"
	// CodeRecovering (503) tells a client the coordinator is replaying its
	// write-ahead log after a restart and is not yet serving rounds.
	// Retryable: the client re-joins (the restarted coordinator forgot its
	// join barrier) and retries with backoff until recovery completes.
	CodeRecovering = "recovering"
	// CodeTooStale (409) rejects an async late update whose origin round is
	// beyond the coordinator's staleness window (MaxStale epochs behind the
	// open round). Benign for the client: it discards the stale local work
	// and rejoins the current round, exactly like CodeStaleRound.
	CodeTooStale = "too_stale"
)

// instanceHeader carries the coordinator incarnation number on every
// response, so clients detect a restart from any reply — not just a join.
const instanceHeader = "X-Digfl-Instance"

// WireError is a typed protocol rejection (any non-2xx reply). The
// participant surfaces it unretried: the coordinator would refuse the
// identical retry identically.
type WireError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the machine-readable rejection code (may be empty for
	// generic protocol errors).
	Code string
	// Msg is the server's human-readable error.
	Msg string
}

func (e *WireError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("fednet: wire error %d (%s): %s", e.Status, e.Code, e.Msg)
	}
	return fmt.Sprintf("fednet: wire error %d: %s", e.Status, e.Msg)
}

// What nearly every reply of a round consists of, formatted once: the two
// Content-Type header values (shared slices; nothing writes to a header
// value) and the three replies to an update that reached an open round,
// json.Encoder's bytes for the updateReply (TestReplyBytes).
var (
	jsonContentType   = []string{contentTypeJSON}
	binaryContentType = []string{contentTypeBinary}
	ackAccepted       = []byte(`{"accepted":true}` + "\n")
	ackBuffered       = []byte(`{"accepted":true,"reason":"buffered"}` + "\n")
	ackNotActive      = []byte(`{"accepted":false,"reason":"not-active"}` + "\n")
)

// writeRawJSON writes an already-encoded JSON body with the given status.
func writeRawJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeJSON writes v with the given status code.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes an errorReply with no code.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorReply{Error: fmt.Sprintf(format, args...)})
}

// writeCodedError writes an errorReply with a machine-readable code.
func writeCodedError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorReply{Error: fmt.Sprintf(format, args...), Code: code})
}

// readJSON decodes a request body into v, bounding the read.
func readJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(r, maxBodyBytes))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("fednet: decoding request: %w", err)
	}
	return nil
}

// maxBodyBytes bounds a request/response body; generous for full model
// vectors, small enough to shrug off garbage.
const maxBodyBytes = 64 << 20

// readFrame reads the body of an upload, which must declare itself a
// digfl-fednet/2 frame: any other Content-Type is refused with 415 before a
// byte of the body is read as anything. On success the caller owns the
// pooled record rec (PutBytes when done): the frame is rec[walHdrLen:], behind
// headroom for the journal's framing, so that an accepted frame is journaled
// from the buffer it arrived in. On failure the rejection is written.
func readFrame(w http.ResponseWriter, req *http.Request) (rec []byte, ok bool) {
	if ct := req.Header.Get("Content-Type"); ct != contentTypeBinary {
		writeCodedError(w, http.StatusUnsupportedMediaType, CodeBadFrame,
			"Content-Type %q, want %q", ct, contentTypeBinary)
		return nil, false
	}
	rec, err := readBodyPooled(req.Body, req.ContentLength, walHdrLen)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	return rec, true
}

// readBodyPooled reads a bounded request/response body into a pooled byte
// buffer the caller owns (PutBytes when done), behind headroom bytes of
// undefined content. When the sender declared a Content-Length the read is
// exact and allocation-free once pools are warm.
func readBodyPooled(body io.Reader, contentLength int64, headroom int) ([]byte, error) {
	if contentLength > maxBodyBytes {
		return nil, fmt.Errorf("fednet: body of %d bytes exceeds the %d limit", contentLength, maxBodyBytes)
	}
	if contentLength >= 0 {
		buf := tensor.GetBytes(headroom + int(contentLength))
		if _, err := io.ReadFull(body, buf[headroom:]); err != nil {
			tensor.PutBytes(buf)
			return nil, fmt.Errorf("fednet: reading body: %w", err)
		}
		return buf, nil
	}
	// Unknown length (chunked encoding): accumulate, still bounded.
	buf := tensor.GetBytes(4096)[:headroom]
	lr := io.LimitReader(body, maxBodyBytes+1)
	for {
		if len(buf) == cap(buf) {
			next := tensor.GetBytes(2 * cap(buf))[:len(buf)]
			copy(next, buf)
			tensor.PutBytes(buf)
			buf = next
		}
		n, err := lr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			if len(buf)-headroom > maxBodyBytes {
				tensor.PutBytes(buf)
				return nil, fmt.Errorf("fednet: body exceeds the %d-byte limit", maxBodyBytes)
			}
			return buf, nil
		}
		if err != nil {
			tensor.PutBytes(buf)
			return nil, fmt.Errorf("fednet: reading body: %w", err)
		}
	}
}

// writeBinary writes a digfl-fednet/2 frame response and recycles the
// frame buffer.
func writeBinary(w http.ResponseWriter, frame []byte) {
	w.Header()["Content-Type"] = binaryContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(frame)
	tensor.PutBytes(frame)
}

// writeRoundBroadcast answers a binary round poll from the round's shared
// broadcast frame, which was encoded with a zero deadline: a poll with time
// remaining sends its own copy of the fixed header with the deadline field
// patched, then the shared payload. The bytes on the wire are those of
// encodeRoundFrame with that deadline. frame is not modified.
func writeRoundBroadcast(w http.ResponseWriter, frame []byte, deadlineMS int64) {
	w.Header()["Content-Type"] = binaryContentType
	w.WriteHeader(http.StatusOK)
	if deadlineMS != 0 {
		var hdr [roundHdrLen]byte
		copy(hdr[:], frame)
		binary.LittleEndian.PutUint64(hdr[roundDeadlineOff:], uint64(deadlineMS))
		_, _ = w.Write(hdr[:])
		frame = frame[roundHdrLen:]
	}
	_, _ = w.Write(frame)
}

// decodeReply decodes a 2xx response body into out, dispatching on the
// response Content-Type: a round frame lands in a *roundReply; everything
// else is control-plane JSON.
func decodeReply(resp *http.Response, out any) error {
	if resp.Header.Get("Content-Type") != contentTypeBinary {
		return readJSON(resp.Body, out)
	}
	rr, ok := out.(*roundReply)
	if !ok {
		return fmt.Errorf("fednet: unexpected binary reply for %T", out)
	}
	body, err := readBodyPooled(resp.Body, resp.ContentLength, 0)
	if err != nil {
		return err
	}
	dec, err := decodeRoundFrame(body)
	tensor.PutBytes(body)
	if err != nil {
		return err
	}
	*rr = *dec
	return nil
}
