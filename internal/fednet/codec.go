package fednet

import (
	"encoding/binary"
	"fmt"
	"math"

	"digfl/internal/framing"
	"digfl/internal/jsonf"
	"digfl/internal/tensor"
)

// digfl-fednet/2 is the bulk encoding: the two payloads that carry O(d)
// floats every round (update submissions and the open-round broadcast) are
// raw little-endian float64 segments behind a fixed header, and nothing else
// carries them. JSON is the control plane only — join, acks,
// excluded/pending/done markers, errors, /v1/score — all small. The encoding
// is exact: a float64's bits cross the wire verbatim. On a little-endian host
// a d×f64 segment is the vector's memory image, so framing.PutVec and
// framing.ReadVec move it with one copy.
//
// There is nothing to negotiate. /v1/update refuses any body whose
// Content-Type is not contentTypeBinary (415, before the body is read); a
// /v1/round poll that carries a vector always answers a frame, and the
// response Content-Type tells the client whether it got a frame or a JSON
// marker.
//
// Frame layouts (all integers little-endian, all floats IEEE-754 bits):
//
//	update   "D2UP" | u32 t | u32 index | u32 d | d×f64 delta
//	round    "D2RD" | u32 t | f64 lr | i64 deadline_ms | u32 flags |
//	         u32 d | [u32 quorum | u32 maxStale if flags&4] |
//	         [d×f64 theta if flags&1]
//
// Flag 1<<1 once marked a validation-gradient segment and is retired: a
// decoder refuses it as unknown, and no new flag takes it.
//
// Every frame's length is implied by its header; a frame whose byte length
// does not match exactly is rejected with CodeBadFrame (422) before any
// float is touched. Non-finite floats decode fine — the decode reports that
// it met one — and are then rejected (CodeNonFinite).

// ProtocolV2 names the binary bulk encoding.
const ProtocolV2 = "digfl-fednet/2"

// Content types: JSON for control-plane bodies, binary for frames.
const (
	contentTypeJSON   = "application/json"
	contentTypeBinary = "application/x-digfl-fednet2"
)

// Frame magics.
var (
	magicUpdate = [4]byte{'D', '2', 'U', 'P'}
	magicRound  = [4]byte{'D', '2', 'R', 'D'}
)

// Round-frame flag bits.
const (
	roundFlagTheta = 1 << 0
	// roundFlagAsync marks an asynchronous round: 8 extra header bytes
	// (u32 quorum, u32 maxStale) follow the fixed header before the
	// vectors. Old decoders reject the unknown flag, which is correct —
	// an async coordinator must not be spoken to by a client that would
	// silently ignore the commit policy.
	roundFlagAsync = 1 << 2
)

// CodecV2 builds the digfl-fednet/2 upload frames. Each encoder builds the
// complete request body once, so a retry loop re-sends the same bytes
// instead of re-encoding. Stateless and shareable.
var CodecV2 binCodec

type binCodec struct{}

// ContentType is the request Content-Type the ingest handlers require.
func (binCodec) ContentType() string { return contentTypeBinary }

const updateHdrLen = 4 + 4 + 4 + 4 // magic, t, index, d

// EncodeUpdate builds the /v1/update body for one local update.
func (binCodec) EncodeUpdate(t, index int, delta []float64) ([]byte, error) {
	if t < 0 || index < 0 || t > math.MaxInt32 || index > math.MaxInt32 {
		return nil, fmt.Errorf("fednet: round or index outside [0, 2³¹) in update frame")
	}
	buf := tensor.GetBytes(updateHdrLen + 8*len(delta))
	copy(buf, magicUpdate[:])
	binary.LittleEndian.PutUint32(buf[4:], uint32(t))
	binary.LittleEndian.PutUint32(buf[8:], uint32(index))
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(delta)))
	framing.PutVec(buf[updateHdrLen:], delta)
	return buf, nil
}

const roundHdrLen = 4 + 4 + 8 + 8 + 4 + 4 // magic, t, lr, deadline, flags, d

// roundDeadlineOff is the deadline field's offset in the round header.
const roundDeadlineOff = 4 + 4 + 8

// encodeRoundFrame builds the binary open-round broadcast; a nil theta
// (a header-only frame) sets no theta flag. A quorum > 0 marks the round
// asynchronous and appends the commit-policy extension (quorum, maxStale)
// after the fixed header.
func encodeRoundFrame(t int, lr float64, deadlineMS int64, theta []float64, quorum, maxStale int) []byte {
	d := len(theta)
	flags := 0
	if theta != nil {
		flags |= roundFlagTheta
	}
	if quorum > 0 {
		flags |= roundFlagAsync
	}
	n := roundHdrLen
	if flags&roundFlagAsync != 0 {
		n += roundAsyncExtLen
	}
	if flags&roundFlagTheta != 0 {
		n += 8 * d
	}
	buf := tensor.GetBytes(n)
	copy(buf, magicRound[:])
	binary.LittleEndian.PutUint32(buf[4:], uint32(t))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(lr))
	binary.LittleEndian.PutUint64(buf[roundDeadlineOff:], uint64(deadlineMS))
	binary.LittleEndian.PutUint32(buf[24:], uint32(flags))
	binary.LittleEndian.PutUint32(buf[28:], uint32(d))
	off := roundHdrLen
	if flags&roundFlagAsync != 0 {
		binary.LittleEndian.PutUint32(buf[off:], uint32(quorum))
		binary.LittleEndian.PutUint32(buf[off+4:], uint32(maxStale))
		off += roundAsyncExtLen
	}
	if flags&roundFlagTheta != 0 {
		framing.PutVec(buf[off:], theta)
	}
	return buf
}

// roundAsyncExtLen is the async extension's size: u32 quorum, u32 maxStale.
const roundAsyncExtLen = 4 + 4

// maxFrameDim bounds the element count a frame header may declare: a
// header promising more floats than maxBodyBytes could carry is garbage,
// rejected before any allocation sized by attacker-controlled bytes.
const maxFrameDim = maxBodyBytes / 8

// frameError is a malformed-frame rejection carrying CodeBadFrame.
type frameError struct{ msg string }

func (e *frameError) Error() string { return e.msg }

func badFrame(format string, args ...any) error {
	return &frameError{msg: fmt.Sprintf(format, args...)}
}

// decodeUpdateHeader validates an update frame's envelope and returns its
// header fields; the delta bytes are untouched until decodeFrameVec. A u32
// field above math.MaxInt32, which no int holds on every host, is refused.
func decodeUpdateHeader(b []byte) (t, index, d int, err error) {
	if len(b) < updateHdrLen {
		return 0, 0, 0, badFrame("update frame truncated at %d bytes", len(b))
	}
	if [4]byte(b[:4]) != magicUpdate {
		return 0, 0, 0, badFrame("update frame has wrong magic %q", b[:4])
	}
	t, index, d = framing.U32(b[4:]), framing.U32(b[8:]), framing.U32(b[12:])
	if min(t, index) < 0 || uint(d) > maxFrameDim {
		return 0, 0, 0, badFrame("update frame declares t=%d index=%d and %d params", t, index, d)
	}
	if want := updateHdrLen + 8*d; len(b) != want {
		return 0, 0, 0, badFrame("update frame has %d bytes, header implies %d", len(b), want)
	}
	return t, index, d, nil
}

// decodeRoundFrame parses a binary open-round broadcast into the reply
// shape the JSON markers share; theta is a pooled vector owned by the
// caller. A u32 field above math.MaxInt32 is refused, as in
// decodeUpdateHeader.
func decodeRoundFrame(b []byte) (*roundReply, error) {
	if len(b) < roundHdrLen {
		return nil, badFrame("round frame truncated at %d bytes", len(b))
	}
	if [4]byte(b[:4]) != magicRound {
		return nil, badFrame("round frame has wrong magic %q", b[:4])
	}
	r := &roundReply{State: StateOpen}
	r.T = framing.U32(b[4:])
	r.LR = jsonf.F64(math.Float64frombits(binary.LittleEndian.Uint64(b[8:])))
	r.DeadlineMS = int64(binary.LittleEndian.Uint64(b[roundDeadlineOff:]))
	flags, d := framing.U32(b[24:]), framing.U32(b[28:])
	if flags&^(roundFlagTheta|roundFlagAsync) != 0 {
		return nil, badFrame("round frame has unknown flags %#x", flags)
	}
	if r.T < 0 || uint(d) > maxFrameDim {
		return nil, badFrame("round frame declares t=%d and %d params", r.T, d)
	}
	want := roundHdrLen
	if flags&roundFlagAsync != 0 {
		want += roundAsyncExtLen
	}
	if flags&roundFlagTheta != 0 {
		want += 8 * d
	}
	if len(b) != want {
		return nil, badFrame("round frame has %d bytes, header implies %d", len(b), want)
	}
	off := roundHdrLen
	if flags&roundFlagAsync != 0 {
		r.Quorum, r.MaxStale = framing.U32(b[off:]), framing.U32(b[off+4:])
		if min(r.Quorum, r.MaxStale) < 0 {
			return nil, badFrame("round frame declares quorum %d, max staleness %d", r.Quorum, r.MaxStale)
		}
		off += roundAsyncExtLen
	}
	if flags&roundFlagTheta != 0 {
		// Clients do not screen the coordinator's own broadcast.
		r.Theta, _ = decodeFrameVec(b[off:], d)
	}
	return r, nil
}

// decodeFrameVec reads d little-endian float64s from b into a pooled
// vector the caller owns (and may PutVec once its floats are consumed), and
// reports whether all of them are finite.
func decodeFrameVec(b []byte, d int) (v []float64, finite bool) {
	v = tensor.GetVec(d)
	return v, framing.ReadVec(b, v)
}
