package fednet

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"digfl/internal/core"
	"digfl/internal/jsonf"
	"digfl/internal/obs"
	"digfl/internal/robust"
	"digfl/internal/tensor"
)

// The coordinator's write-ahead journal (digfl-fednet-wal/1) makes a round
// crash-safe: every state transition that the round's outcome depends on is
// appended to the journal *before* it is applied, so a coordinator that
// dies mid-round can be rebuilt bit-identically by replaying the journal
// into a fresh instance (Coordinator.Recover).
//
// Record framing: u32 payload length | u32 CRC-32 (IEEE) of the payload |
// payload, all little-endian. Each record is written with exactly one
// Write call, so a crash tears at most the final record — replay stops
// cleanly at the last complete entry (the torn tail was never acknowledged
// to any client, so dropping it is correct). A CRC mismatch or an
// impossible length on an *interior* record is corruption, not a crash
// artifact, and fails the replay.
//
// Two payload families share the framing, discriminated by the first byte:
//
//   - JSON control records ('{'): run_open, epoch_open, epoch_close,
//     run_close — small, carrying shape, cohort, and checkpoint state
//     (model, curve, estimator, quarantine) through the same jsonf
//     non-finite-safe encoding the archive uses.
//   - digfl-fednet/2 binary frames (D2UP update, D2PA edge partial): the
//     bulk per-round commits, journaled as the exact canonical frame
//     bytes, so the journal costs the same 8d bytes per update as the wire.
//
// Determinism: a round's aggregate is a pure function of the SET of
// committed (slot, update) pairs — the streaming fold is segmented by slot
// order, not arrival order — so replaying the journaled commits in any
// order reproduces the pre-crash fold bit-for-bit.

// WALProtocol names the journal format; Recover refuses a journal whose
// run_open record declares anything else.
const WALProtocol = "digfl-fednet-wal/1"

// walHdrLen is the per-record framing overhead: u32 length, u32 CRC.
const walHdrLen = 8

// WAL is the append side of the journal. Errors are sticky: after the
// first failed append the journal is poisoned and the coordinator aborts
// the run rather than acknowledge an update it cannot replay.
type WAL struct {
	w       io.Writer
	sink    obs.Sink
	err     error
	records int
}

func newWAL(w io.Writer, sink obs.Sink) *WAL { return &WAL{w: w, sink: sink} }

// Append journals one payload. The record (header plus payload) is written
// with a single Write call so a mid-write crash leaves a clean prefix.
func (wl *WAL) Append(payload []byte) error {
	if wl.err != nil {
		return wl.err
	}
	if len(payload) == 0 || len(payload) > maxBodyBytes {
		wl.err = fmt.Errorf("fednet: WAL payload of %d bytes outside (0, %d]", len(payload), maxBodyBytes)
		return wl.err
	}
	rec := tensor.GetBytes(walHdrLen + len(payload))
	binary.LittleEndian.PutUint32(rec, uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(payload))
	copy(rec[walHdrLen:], payload)
	_, err := wl.w.Write(rec)
	tensor.PutBytes(rec)
	if err != nil {
		wl.err = fmt.Errorf("fednet: WAL append: %w", err)
		return wl.err
	}
	wl.records++
	obs.Emit(wl.sink, obs.Event{Kind: obs.KindWALAppend, N: int64(walHdrLen + len(payload))})
	return nil
}

// appendJSON journals one control record.
func (wl *WAL) appendJSON(v any) error {
	if wl.err != nil {
		return wl.err
	}
	b, err := json.Marshal(v)
	if err != nil {
		wl.err = fmt.Errorf("fednet: encoding WAL record: %w", err)
		return wl.err
	}
	return wl.Append(b)
}

// Err returns the sticky append error, if any.
func (wl *WAL) Err() error { return wl.err }

// WAL control-record kinds.
const (
	walKindRunOpen    = "run_open"
	walKindEpochOpen  = "epoch_open"
	walKindEpochClose = "epoch_close"
	walKindRunClose   = "run_close"
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
	// epoch_open / epoch_close: the round and (on open) its active cohort
	// in slot order. nil Active means the full population.
	T      int   `json:"t,omitempty"`
	Active []int `json:"active,omitempty"`
	// epoch_close: the post-round checkpoint — model, full validation-loss
	// curve (index 0 is the initial loss), and the attribution/defense
	// state the next round's decisions depend on.
	Theta      jsonf.Vec     `json:"theta,omitempty"`
	Curve      jsonf.Vec     `json:"curve,omitempty"`
	Estimator  *walEstState  `json:"estimator,omitempty"`
	Quarantine *walQuarState `json:"quarantine,omitempty"`
	// epoch_close (async runs): the planner's carry-over buffer after the
	// commit. Each entry's delta bytes are resolved at replay from this
	// round's journaled D2UP frames or an earlier close's carry-over, so
	// the checkpoint never re-journals a vector.
	Buffered []walBufEntry `json:"buffered,omitempty"`
	// stale_admit: the admitted participant and the round its update was
	// computed against.
	Part   int `json:"part,omitempty"`
	Origin int `json:"origin,omitempty"`
}

// walBufEntry is one async buffered update's metadata inside an epoch_close
// record; Due is the round the entry folds into (Due − Origin is its
// staleness at that fold).
type walBufEntry struct {
	Part   int `json:"part"`
	Origin int `json:"origin"`
	Due    int `json:"due"`
}

// walEstState mirrors core.EstimatorState with the jsonf non-finite-safe
// vector encoding (the archive's estimator-state JSON uses the same shape).
type walEstState struct {
	LastEpoch int         `json:"last_epoch"`
	PerEpoch  []jsonf.Vec `json:"per_epoch"`
	Totals    jsonf.Vec   `json:"totals"`
	DeltaGSum []jsonf.Vec `json:"delta_g_sum,omitempty"`
}

func toVecs(m [][]float64) []jsonf.Vec {
	if m == nil {
		return nil
	}
	out := make([]jsonf.Vec, len(m))
	for i, row := range m {
		out[i] = jsonf.Vec(row)
	}
	return out
}

func fromVecs(v []jsonf.Vec) [][]float64 {
	if v == nil {
		return nil
	}
	out := make([][]float64, len(v))
	for i, row := range v {
		out[i] = []float64(row)
	}
	return out
}

func toWalEst(s *core.EstimatorState) *walEstState {
	if s == nil {
		return nil
	}
	return &walEstState{
		LastEpoch: s.LastEpoch,
		PerEpoch:  toVecs(s.PerEpoch),
		Totals:    jsonf.Vec(s.Totals),
		DeltaGSum: toVecs(s.DeltaGSum),
	}
}

func (s *walEstState) state() *core.EstimatorState {
	if s == nil {
		return nil
	}
	return &core.EstimatorState{
		LastEpoch: s.LastEpoch,
		PerEpoch:  fromVecs(s.PerEpoch),
		Totals:    []float64(s.Totals),
		DeltaGSum: fromVecs(s.DeltaGSum),
	}
}

// walQuarState mirrors robust.QuarantineState.
type walQuarState struct {
	Ewma   jsonf.Vec `json:"ewma"`
	Seen   []bool    `json:"seen"`
	Streak []int     `json:"streak"`
	Banned []bool    `json:"banned"`
}

func toWalQuar(s *robust.QuarantineState) *walQuarState {
	if s == nil {
		return nil
	}
	return &walQuarState{Ewma: jsonf.Vec(s.Ewma), Seen: s.Seen, Streak: s.Streak, Banned: s.Banned}
}

func (s *walQuarState) state() *robust.QuarantineState {
	if s == nil {
		return nil
	}
	return &robust.QuarantineState{Ewma: []float64(s.Ewma), Seen: s.Seen, Streak: s.Streak, Banned: s.Banned}
}

// walPartial is one replayed edge partial.
type walPartial struct {
	indices []int
	sum     []float64
	dots    []float64
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
	openT    int
	active   []int
	updates  map[int][]float64 // committed updates by global participant index
	partials map[int]walPartial

	// Async buffer state. buffered is the planner carry-over at the last
	// epoch_close; lateAdmits holds the open round's admitted-late updates
	// (moved out of updates by stale_admit records so a grafted round can
	// re-Admit them instead of mistaking them for fresh arrivals).
	buffered   map[int]walBufUpdate
	lateAdmits map[int]walLateAdmit

	consumed int64 // bytes of complete, valid records
	records  int
}

// walBufUpdate is a replayed carry-over buffer entry with its resolved delta.
type walBufUpdate struct {
	origin, due int
	delta       []float64
}

// walLateAdmit is a replayed open-round late admit.
type walLateAdmit struct {
	origin int
	delta  []float64
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
		partials:   make(map[int]walPartial),
		lateAdmits: make(map[int]walLateAdmit),
	}
	hdr := make([]byte, walHdrLen)
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return rep, nil
			}
			return nil, fmt.Errorf("fednet: reading WAL header: %w", err)
		}
		n := int(binary.LittleEndian.Uint32(hdr))
		sum := binary.LittleEndian.Uint32(hdr[4:])
		if n == 0 || n > maxBodyBytes {
			return nil, fmt.Errorf("fednet: WAL record %d declares %d bytes", rep.records, n)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return rep, nil
			}
			return nil, fmt.Errorf("fednet: reading WAL record %d: %w", rep.records, err)
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return nil, fmt.Errorf("fednet: WAL record %d fails its checksum", rep.records)
		}
		if err := rep.apply(payload); err != nil {
			return nil, err
		}
		rep.records++
		rep.consumed += int64(walHdrLen + n)
	}
}

// apply folds one validated payload into the replay state.
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
		case magicPartial:
			return rep.applyPartial(payload)
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
	case walKindEpochClose:
		if rec.T != rep.lastClosed+1 || rec.T != rep.openT {
			return fmt.Errorf("fednet: WAL closes epoch %d (open %d, last closed %d)",
				rec.T, rep.openT, rep.lastClosed)
		}
		if len(rec.Curve) != rec.T+1 {
			return fmt.Errorf("fednet: WAL epoch_close %d carries a %d-point curve", rec.T, len(rec.Curve))
		}
		if rep.params != 0 && len(rec.Theta) != rep.params {
			return fmt.Errorf("fednet: WAL epoch_close %d carries a %d-param model, want %d",
				rec.T, len(rec.Theta), rep.params)
		}
		// Resolve the async carry-over buffer before the round's commits
		// are discarded: a buffered delta was journaled as this round's
		// D2UP frame (fresh lagged arrival), moved aside by a stale_admit
		// (late arrival), or carried over from an earlier close.
		var buffered map[int]walBufUpdate
		if len(rec.Buffered) > 0 {
			buffered = make(map[int]walBufUpdate, len(rec.Buffered))
			for _, e := range rec.Buffered {
				var delta []float64
				switch {
				case rep.updates[e.Part] != nil:
					delta = rep.updates[e.Part]
				case rep.lateAdmits[e.Part].delta != nil:
					delta = rep.lateAdmits[e.Part].delta
				case rep.buffered[e.Part].delta != nil:
					delta = rep.buffered[e.Part].delta
				default:
					return fmt.Errorf("fednet: WAL epoch_close %d buffers participant %d with no journaled update",
						rec.T, e.Part)
				}
				buffered[e.Part] = walBufUpdate{origin: e.Origin, due: e.Due, delta: delta}
			}
		}
		rep.lastClosed = rec.T
		rep.theta = []float64(rec.Theta)
		rep.curve = []float64(rec.Curve)
		rep.est = rec.Estimator.state()
		rep.quar = rec.Quarantine.state()
		rep.buffered = buffered
		rep.openT, rep.active = 0, nil
		clear(rep.updates)
		clear(rep.partials)
		clear(rep.lateAdmits)
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
		rep.lateAdmits[rec.Part] = walLateAdmit{origin: rec.Origin, delta: delta}
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
	vec := decodeFrameVec(payload[updateHdrLen:], d)
	rep.updates[index] = tensor.Clone(vec)
	tensor.PutVec(vec)
	return nil
}

func (rep *walReplay) applyPartial(payload []byte) error {
	t, edge, indices, d, err := decodePartialHeader(payload)
	if err != nil {
		return fmt.Errorf("fednet: WAL record %d: %w", rep.records, err)
	}
	if rep.openT == 0 || t != rep.openT {
		return fmt.Errorf("fednet: WAL partial for round %d journaled while round %d is open", t, rep.openT)
	}
	sum, dots := decodePartialVecs(payload, len(indices), d)
	rep.partials[edge] = walPartial{
		indices: indices,
		sum:     tensor.Clone(sum),
		dots:    tensor.Clone(dots),
	}
	tensor.PutVec(sum)
	tensor.PutVec(dots)
	return nil
}
