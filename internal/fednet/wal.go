package fednet

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"digfl/internal/core"
	"digfl/internal/framing"
	"digfl/internal/hfl"
	"digfl/internal/obs"
	"digfl/internal/robust"
	"digfl/internal/tensor"
)

// The coordinator's write-ahead journal (digfl-fednet-wal/2) makes a round
// crash-safe: every state transition that the round's outcome depends on is
// appended to the journal *before* it is applied, so a coordinator that
// dies mid-round can be rebuilt bit-identically by replaying the journal
// into a fresh instance (Coordinator.Recover).
//
// Records are internal/framing's (u32 length | u32 CRC-32 | payload, one
// Write each). Replay drops a torn final record, never acknowledged to any
// client; a CRC mismatch or an impossible length is corruption and fails it.
//
// Two payload families share the framing, discriminated by the first byte:
//
//   - JSON control records ('{'): run_open, epoch_open, stale_admit,
//     run_close — a few dozen bytes of shape, cohort and markers; no record
//     that carries floats is JSON.
//   - binary frames: the digfl-fednet/2 update commits (D2UP), journaled as
//     the bytes that arrived (an accepted frame is the canonical encoding of
//     what it decodes to), so the journal costs the same 8d bytes per update
//     as the wire, and the epoch close:
//
//	close  "D2CK" | u32 t | u32 flags | u32 d | u32 c | u32 n | u32 k |
//	       u32 q | u32 b | d×f64 θ_t | c×f64 new curve points |
//	       φ_t: n×f64 if dense, else k×(u32 i, f64 φ_{t,i}) |
//	       [n·d×f64 ΔG-sums] | q×(f64 ewma, u32 streak<<2|banned<<1|seen) |
//	       b×(u32 part, u32 origin, u32 due)
//
// The close is incremental — what epoch t added, not the history: one curve
// point (two on the first close, which also carries the initial loss) and
// the φ row at its k reporters, or dense when all n reported; q and b are
// the quarantine state's and the async carry-over buffer's lengths. Floats
// cross as their IEEE-754 bits. Replay folds the closes — append the curve
// points and the row, Totals[i] += φ in journal order, replace θ, the
// ΔG-sums and the quarantine vectors — so journal bytes per round are flat
// in the epoch number (DESIGN.md §12).
//
// Determinism: a round's aggregate is a pure function of the SET of
// committed (slot, update) pairs — the streaming fold is segmented by slot
// order, not arrival order — so replaying the journaled commits in any
// order reproduces the pre-crash fold bit-for-bit.

// WALProtocol names the journal format; Recover refuses a journal whose
// run_open record declares anything else.
const WALProtocol = "digfl-fednet-wal/2"

var le = binary.LittleEndian

// WAL is the append side of the journal. Errors are sticky: after the
// first failed append the journal is poisoned and the coordinator aborts
// the run rather than acknowledge an update it cannot replay.
type WAL struct {
	w    io.Writer
	sink obs.Sink
	err  error
}

func newWAL(w io.Writer, sink obs.Sink) *WAL { return &WAL{w: w, sink: sink} }

// Append journals one payload. The record (header plus payload) is written
// with a single Write call so a mid-write crash leaves a clean prefix.
func (wl *WAL) Append(payload []byte) error {
	rec := tensor.GetBytes(framing.HdrLen + len(payload))
	copy(rec[framing.HdrLen:], payload)
	err := wl.commit(rec)
	tensor.PutBytes(rec)
	return err
}

// commit journals a record built in place — framing.HdrLen bytes reserved for
// the framing, then the payload, as readFrame and encodeClose build them —
// with one Write. rec stays the caller's.
func (wl *WAL) commit(rec []byte) error {
	if wl.err != nil {
		return wl.err
	}
	if n := len(rec) - framing.HdrLen; n <= 0 || n > maxBodyBytes {
		wl.err = fmt.Errorf("fednet: WAL payload of %d bytes outside (0, %d]", n, maxBodyBytes)
		return wl.err
	}
	if err := framing.Write(wl.w, rec); err != nil {
		wl.err = fmt.Errorf("fednet: WAL append: %w", err)
		return wl.err
	}
	obs.Emit(wl.sink, obs.Event{Kind: obs.KindWALAppend, N: int64(len(rec))})
	return nil
}

// appendJSON journals one control record (ints, strings and an int slice:
// marshalling it cannot fail).
func (wl *WAL) appendJSON(rec walRecord) error {
	b, _ := json.Marshal(rec)
	return wl.Append(b)
}

// Err returns the sticky append error, if any.
func (wl *WAL) Err() error { return wl.err }

// WAL control-record kinds.
const (
	walKindRunOpen   = "run_open"
	walKindEpochOpen = "epoch_open"
	walKindRunClose  = "run_close"
	// walKindStaleAdmit marks the immediately preceding D2UP frame (which
	// is journaled with t = the open round) as an async late admit: it
	// belongs to the staleness buffer with the recorded origin round, not
	// to the open round's commit set.
	walKindStaleAdmit = "stale_admit"
)

// walRecord is the JSON control record. One shape serves all four kinds;
// unused fields are omitted.
type walRecord struct {
	Kind string `json:"kind"`
	// run_open: journal protocol, coordinator incarnation, and run shape.
	// Every incarnation appends a fresh run_open, so replay learns how many
	// times the coordinator has already restarted.
	Protocol string `json:"protocol,omitempty"`
	Instance int    `json:"instance,omitempty"`
	N        int    `json:"n,omitempty"`
	Epochs   int    `json:"epochs,omitempty"`
	Params   int    `json:"params,omitempty"`
	// epoch_open: the round and its active cohort in slot order. nil Active
	// means the full population.
	T      int   `json:"t,omitempty"`
	Active []int `json:"active,omitempty"`
	// stale_admit: the admitted participant and the round its update was
	// computed against (T is the open round).
	Part   int `json:"part,omitempty"`
	Origin int `json:"origin,omitempty"`
}

var magicClose = [4]byte{'D', '2', 'C', 'K'}

const closeHdrLen = 4 + 8*4 // magic, t, flags, d, c, n, k, q, b

// Close-frame flag bits.
const (
	closeEst        = 1 << 0 // a φ section follows the curve points
	closeDense      = 1 << 1 // ... as the dense row: k = n, no indices
	closeTotalsOnly = 1 << 2 // the estimator retains no per-epoch rows
	closeDeltaG     = 1 << 3 // Interactive mode: the n ΔG-sum rows follow φ
)

// closeSize is a close frame's payload length for the given header — what
// the encoder sizes its buffer by and replay checks a frame against. Counts
// are bounded by maxFrameDim, so nothing overflows.
func closeSize(flags, d, c, n, k, q, b int) int {
	size := closeHdrLen + 8*d + 8*c + 12*q + 12*b
	switch {
	case flags&closeDense != 0:
		size += 8 * k
	case flags&closeEst != 0:
		size += 12 * k
	}
	if flags&closeDeltaG != 0 {
		size += 8 * n * d
	}
	return size
}

// encodeClose builds epoch ck.Epoch's close record in a pooled buffer the
// caller owns, framing.HdrLen bytes reserved in front for WAL.commit's framing,
// straight from the live estimator, quarantine and async buffer (each may be
// absent). Callers hold the lock that keeps all three still.
func encodeClose(ck *hfl.Checkpoint, est *core.HFLEstimator, quar *robust.Quarantine, buffered []*hfl.AsyncEntry) ([]byte, error) {
	// Each close adds one curve point to those already journaled; the run's
	// first also carries the initial loss.
	curve := ck.ValLossCurve[ck.Epoch:]
	if ck.Epoch == 1 {
		curve = ck.ValLossCurve
	}
	var (
		flags, n, k int
		phi         []float64
		reporters   []int
		deltaG      [][]float64
		qs          robust.QuarantineState
	)
	if est != nil {
		t, row, idx, dense := est.LastRow()
		if t != ck.Epoch || row == nil {
			return nil, fmt.Errorf("fednet: closing epoch %d but the estimator last observed epoch %d", ck.Epoch, t)
		}
		phi, reporters, deltaG = row, idx, est.DeltaGSum()
		flags, n, k = closeEst, len(row), len(idx)
		if dense || k == n {
			flags, k = flags|closeDense, n
		}
		if est.TotalsOnly {
			flags |= closeTotalsOnly
		}
		if deltaG != nil {
			flags |= closeDeltaG
		}
	}
	if quar != nil {
		qs = quar.StateView()
	}
	d, c, q, b := len(ck.Theta), len(curve), len(qs.Ewma), len(buffered)
	rec := tensor.GetBytes(framing.HdrLen + closeSize(flags, d, c, n, k, q, b))
	w := framing.Cursor(rec[framing.HdrLen:])
	copy(w.Next(4), magicClose[:])
	for _, v := range [...]int{ck.Epoch, flags, d, c, n, k, q, b} {
		w.PutU32(v)
	}
	w.PutVec(ck.Theta)
	w.PutVec(curve)
	if flags&closeDense != 0 {
		w.PutVec(phi)
	} else {
		for _, i := range reporters {
			w.PutU32(i)
			w.PutF64(phi[i])
		}
	}
	for _, row := range deltaG {
		w.PutVec(row)
	}
	for i, ewma := range qs.Ewma {
		packed := qs.Streak[i] << 2
		if qs.Banned[i] {
			packed |= 2
		}
		if qs.Seen[i] {
			packed |= 1
		}
		w.PutF64(ewma)
		w.PutU32(packed)
	}
	for _, e := range buffered {
		w.PutU32(e.Part)
		w.PutU32(e.Origin)
		w.PutU32(e.Due)
	}
	return rec, nil
}

// walReplay is the state a journal reconstructs: the last closed epoch's
// checkpoint plus every commit of the open round (if one was open at the
// crash).
type walReplay struct {
	instance   int
	n          int
	epochs     int
	params     int
	sawRunOpen bool
	runClosed  bool

	// Last closed epoch and its checkpoint state.
	lastClosed int
	theta      []float64
	curve      []float64
	est        *core.EstimatorState
	quar       *robust.QuarantineState

	// Open round at the crash point (openT == 0: none).
	openT   int
	active  []int
	updates map[int][]float64 // committed updates by global participant index

	// Async buffer state. buffered is the planner carry-over at the last
	// epoch_close; lateAdmits holds the open round's admitted-late updates
	// (moved out of updates by stale_admit records so a grafted round can
	// re-Admit them instead of mistaking them for fresh arrivals).
	buffered   map[int]walBufUpdate
	lateAdmits map[int]walBufUpdate

	consumed int64 // bytes of complete, valid records
	records  int
}

// walBufUpdate is a replayed async update held outside the open round's
// commit set, with its resolved delta: a carry-over buffer entry, or a late
// admit (whose due round the planner re-derives on Admit).
type walBufUpdate struct {
	origin, due int
	delta       []float64
}

// replayWAL decodes a journal. A torn final record (the crash artifact) is
// not an error: replay stops at the last complete record and consumed
// reports how many bytes of the journal are good, so the caller can
// truncate the tail before appending. Corruption — a bad CRC, an
// impossible length, an unknown payload, a record violating the protocol's
// ordering — fails the replay: the journal cannot be trusted.
func replayWAL(r io.Reader) (*walReplay, error) {
	rep := &walReplay{
		updates:    make(map[int][]float64),
		lateAdmits: make(map[int]walBufUpdate),
	}
	// One payload buffer serves every record: apply copies out what it keeps.
	fr := framing.NewReader(r)
	for {
		payload, err := fr.Next(maxBodyBytes)
		if err == io.EOF || errors.Is(err, framing.ErrTorn) {
			return rep, nil
		}
		if err != nil {
			return nil, fmt.Errorf("fednet: WAL record %d: %w", rep.records, err)
		}
		if err := rep.apply(payload); err != nil {
			return nil, err
		}
		rep.records++
		rep.consumed += int64(framing.HdrLen + len(payload))
	}
}

// apply folds one validated payload into the replay state. The payload's
// bytes are only borrowed: the next record overwrites them.
func (rep *walReplay) apply(payload []byte) error {
	if payload[0] == '{' {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("fednet: WAL record %d: %w", rep.records, err)
		}
		return rep.applyControl(&rec)
	}
	if len(payload) >= 4 {
		switch [4]byte(payload[:4]) {
		case magicUpdate:
			return rep.applyUpdate(payload)
		case magicClose:
			return rep.applyClose(payload)
		}
	}
	return fmt.Errorf("fednet: WAL record %d has an unknown payload", rep.records)
}

func (rep *walReplay) applyControl(rec *walRecord) error {
	switch rec.Kind {
	case walKindRunOpen:
		if rec.Protocol != WALProtocol {
			return fmt.Errorf("fednet: WAL journal speaks %q, want %q", rec.Protocol, WALProtocol)
		}
		if rec.N <= 0 || rec.Epochs <= 0 || rec.Params <= 0 {
			return fmt.Errorf("fednet: WAL run_open has invalid shape n=%d epochs=%d params=%d",
				rec.N, rec.Epochs, rec.Params)
		}
		if rep.sawRunOpen && (rec.N != rep.n || rec.Epochs != rep.epochs || rec.Params != rep.params) {
			return fmt.Errorf("fednet: WAL run shape drifted across incarnations")
		}
		// Each incarnation re-opens the run; the latest instance wins and
		// the open-round state carries straight through.
		rep.sawRunOpen = true
		rep.instance = rec.Instance
		rep.n, rep.epochs, rep.params = rec.N, rec.Epochs, rec.Params
	case walKindEpochOpen:
		if rec.T != rep.lastClosed+1 {
			return fmt.Errorf("fednet: WAL opens epoch %d after closing %d", rec.T, rep.lastClosed)
		}
		if rep.openT != 0 {
			return fmt.Errorf("fednet: WAL opens epoch %d while %d is open", rec.T, rep.openT)
		}
		rep.openT = rec.T
		rep.active = rec.Active
	case walKindStaleAdmit:
		if rep.openT == 0 || rec.T != rep.openT {
			return fmt.Errorf("fednet: WAL stale_admit for round %d journaled while round %d is open",
				rec.T, rep.openT)
		}
		delta, ok := rep.updates[rec.Part]
		if !ok {
			return fmt.Errorf("fednet: WAL stale_admit for participant %d has no journaled update", rec.Part)
		}
		delete(rep.updates, rec.Part)
		rep.lateAdmits[rec.Part] = walBufUpdate{origin: rec.Origin, delta: delta}
	case walKindRunClose:
		rep.runClosed = true
	default:
		return fmt.Errorf("fednet: WAL record %d has unknown kind %q", rep.records, rec.Kind)
	}
	return nil
}

func (rep *walReplay) applyUpdate(payload []byte) error {
	t, index, d, err := decodeUpdateHeader(payload)
	if err != nil {
		return fmt.Errorf("fednet: WAL record %d: %w", rep.records, err)
	}
	if rep.openT == 0 || t != rep.openT {
		return fmt.Errorf("fednet: WAL update for round %d journaled while round %d is open", t, rep.openT)
	}
	r := framing.Cursor(payload[updateHdrLen:])
	rep.updates[index] = r.Vec(d)
	return nil
}

// applyClose folds one epoch's close frame into the checkpoint. A refusal
// part-way leaves rep half-folded, which is fine: a replay that fails
// returns no state at all.
func (rep *walReplay) applyClose(p []byte) error {
	if len(p) < closeHdrLen {
		return fmt.Errorf("fednet: WAL record %d: close frame truncated at %d bytes", rep.records, len(p))
	}
	r := framing.Cursor(p[4:])
	t, flags, d, c, n, k, q, b := r.U32(), r.U32(), r.U32(), r.U32(), r.U32(), r.U32(), r.U32(), r.U32()
	est, dense := flags&closeEst != 0, flags&closeDense != 0
	switch {
	case !rep.sawRunOpen || t != rep.lastClosed+1 || t != rep.openT:
		return fmt.Errorf("fednet: WAL closes epoch %d (open %d, last closed %d)", t, rep.openT, rep.lastClosed)
	case flags&^(closeEst|closeDense|closeTotalsOnly|closeDeltaG) != 0, !est && flags != 0,
		min(d, c, n, k, q, b) < 0, max(d, n, q, b) > maxFrameDim, k > n, dense && k != n,
		len(p) != closeSize(flags, d, c, n, k, q, b):
		return fmt.Errorf("fednet: WAL close frame %d is malformed: %d bytes, flags %#x, d=%d c=%d n=%d k=%d q=%d b=%d",
			t, len(p), flags, d, c, n, k, q, b)
	case d != rep.params || est && n != rep.n:
		return fmt.Errorf("fednet: WAL close frame %d is for n=%d params=%d, the run has n=%d params=%d",
			t, n, d, rep.n, rep.params)
	case len(rep.curve)+c != t+1:
		return fmt.Errorf("fednet: WAL close frame %d adds %d curve points to %d", t, c, len(rep.curve))
	case est && t > 1 && (rep.est == nil || rep.est.LastEpoch != t-1):
		return fmt.Errorf("fednet: WAL close frame %d carries a φ row but the journal has none for epoch %d", t, t-1)
	}
	rep.lastClosed = t
	rep.theta = r.Vec(d)
	rep.curve = append(rep.curve, r.Vec(c)...)
	if !est {
		rep.est = nil
	} else {
		if t == 1 {
			rep.est = &core.EstimatorState{Totals: make([]float64, n)}
		}
		rep.est.LastEpoch = t
		var row []float64
		if flags&closeTotalsOnly == 0 {
			row = make([]float64, n)
			rep.est.PerEpoch = append(rep.est.PerEpoch, row)
		}
		// The live estimator's own accumulation, Attribution.record: one
		// addition per reporter per epoch, in epoch order.
		for j := 0; j < k; j++ {
			i := j
			if !dense {
				if i = r.U32(); i < 0 || i >= n {
					return fmt.Errorf("fednet: WAL close frame %d reports participant %d of %d", t, i, n)
				}
			}
			v := r.F64()
			rep.est.Totals[i] += v
			if row != nil {
				row[i] = v
			}
		}
		rep.est.DeltaGSum = nil
		if flags&closeDeltaG != 0 {
			rep.est.DeltaGSum = make([][]float64, n)
			for i := range rep.est.DeltaGSum {
				rep.est.DeltaGSum[i] = r.Vec(d)
			}
		}
	}
	rep.quar = nil
	if q > 0 {
		rep.quar = &robust.QuarantineState{Ewma: make([]float64, q),
			Seen: make([]bool, q), Streak: make([]int, q), Banned: make([]bool, q)}
		for i := 0; i < q; i++ {
			rep.quar.Ewma[i] = r.F64()
			packed := r.U32()
			if packed < 0 {
				return fmt.Errorf("fednet: WAL close frame %d has a quarantine streak above 2²⁹", t)
			}
			rep.quar.Streak[i], rep.quar.Banned[i], rep.quar.Seen[i] = packed>>2, packed&2 != 0, packed&1 != 0
		}
	}
	// The async carry-over buffer is metadata: each entry's delta was
	// journaled as this round's D2UP frame (fresh lagged arrival), moved
	// aside by a stale_admit (late arrival), or carried over from an earlier
	// close — resolve it before the round's commits are discarded.
	var buffered map[int]walBufUpdate
	if b > 0 {
		buffered = make(map[int]walBufUpdate, b)
	}
	for j := 0; j < b; j++ {
		part, origin, due := r.U32(), r.U32(), r.U32()
		if min(part, origin, due) < 0 {
			return fmt.Errorf("fednet: WAL close frame %d buffers an update with a field above 2³¹−1", t)
		}
		delta := rep.updates[part]
		if delta == nil {
			delta = rep.lateAdmits[part].delta
		}
		if delta == nil {
			delta = rep.buffered[part].delta
		}
		if delta == nil {
			return fmt.Errorf("fednet: WAL close frame %d buffers participant %d with no journaled update", t, part)
		}
		buffered[part] = walBufUpdate{origin: origin, due: due, delta: delta}
	}
	rep.buffered = buffered
	rep.openT, rep.active = 0, nil
	clear(rep.updates)
	clear(rep.lateAdmits)
	return nil
}
