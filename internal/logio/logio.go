// Package logio persists federated training logs. DIG-FL's whole premise is
// that contributions are computable from the training log alone, so a
// production deployment archives the log during training and evaluates
// contributions offline — with another estimator, a refreshed validation
// set, or for audit.
//
// Format version 3 is a header record, then one record per epoch, in the
// framing the coordinator's journal uses (internal/framing: u32 length |
// u32 CRC-32 | payload, one Write each), so a log streams and appends.
// Integers are u32 and floats their IEEE-754 bits, little-endian, a vector
// one copy of its memory image: NaN payloads, −0 and ±Inf survive bit for
// bit. With p = params:
//
//	header  u32 version | u32 params | u32 parties | format name
//	epoch   u32 T | f64 α_t | f64 loss^v | u32 flags | u32 k | u32 r | u32 w |
//	        p×f64 θ | p×f64 ∇loss^v | r×u32 reported | w×f64 weights |
//	        k·p×f64 deltas (a VFL epoch's one gradient: k = 1)
//
// Flag 1 marks a Reported list (absent: every party reported; empty: all
// dropped), flag 2 a Weights vector (absent: unweighted). A reader refuses a
// torn tail or a record failing its checksum, naming the record (the header
// is record 0); the JSON of versions 1 and 2 is refused at record 0.
package logio

import (
	"errors"
	"fmt"
	"io"
	"math"

	"digfl/internal/framing"
	"digfl/internal/hfl"
	"digfl/internal/tensor"
	"digfl/internal/vfl"
)

// header names the file kind and pins the shape.
type header struct {
	Format          string // "digfl-hfl-log", "digfl-vfl-log" or a checkpoint kind
	Params, Parties int
}

const (
	formatHFL = "digfl-hfl-log"
	formatVFL = "digfl-vfl-log"
	version   = 3 // the only version written and read
	// maxRecord bounds a payload; a reader's buffer grows only as bytes
	// arrive. headerLen is the header less its format name, and maxHeader
	// bounds the whole, so a file that is no archive is refused at once.
	maxRecord   = math.MaxInt32
	headerLen   = 3 * 4
	maxHeader   = headerLen + 64
	epochHdrLen = 4 + 8 + 8 + 4*4 // T, α_t, loss^v, flags, k, r, w
	hasReported = 1 << 0          // epoch flags
	hasWeights  = 1 << 1
)

// newRecord returns a pooled record with room for a payload of size bytes,
// and a cursor on that payload.
func newRecord(size uint64) ([]byte, framing.Cursor, error) {
	if size > maxRecord {
		return nil, nil, fmt.Errorf("record of %d bytes exceeds %d", size, maxRecord)
	}
	rec := tensor.GetBytes(framing.HdrLen + int(size))
	return rec, framing.Cursor(rec[framing.HdrLen:]), nil
}

// putRecord writes the pooled record rec with one Write and recycles it.
func putRecord(w io.Writer, rec []byte) error {
	err := framing.Write(w, rec)
	tensor.PutBytes(rec)
	return err
}

// readHeader reads record 0 and checks it names format at version 3.
func readHeader(fr *framing.Reader, format string) (h header, err error) {
	b, err := fr.Next(maxHeader)
	if err == nil && len(b) < headerLen {
		err = fmt.Errorf("header of %d bytes", len(b))
	}
	if err != nil {
		return h, fmt.Errorf("logio: record 0, the header (not a format-%d archive?): %w", version, err)
	}
	c := framing.Cursor(b)
	v, params, parties := c.U32(), c.U32(), c.U32()
	// θ and ∇loss^v alone fill 16·params bytes of a record.
	if h = (header{string(c), params, parties}); h.Format != format || v != version || h.Params <= 0 || h.Params > maxRecord/16 {
		return h, fmt.Errorf("logio: header %q version %d params %d, want %q version %d",
			h.Format, v, h.Params, format, version)
	}
	return h, nil
}

// writeEpoch writes ep — an HFL epoch, or a VFL one whose gradient is its
// one delta — as the k-th epoch record (from 0) of a p-param log.
func writeEpoch(w io.Writer, ep *hfl.Epoch, p, k int) error {
	ok := len(ep.Theta) == p && len(ep.ValGrad) == p
	for _, d := range ep.Deltas {
		ok = ok && len(d) == p
	}
	flags, n, r, nw := 0, len(ep.Deltas), len(ep.Reported), len(ep.Weights)
	if ep.Reported != nil {
		flags |= hasReported
	}
	if ep.Weights != nil {
		flags |= hasWeights
	}
	if !ok {
		return fmt.Errorf("logio: epoch %d shape drifts from header: a vector's length is not %d", k, p)
	}
	rec, c, err := newRecord(uint64(epochHdrLen + 8*p*(2+n) + 4*r + 8*nw))
	if err != nil {
		return fmt.Errorf("logio: epoch %d: %w", k, err)
	}
	c.PutU32(ep.T)
	c.PutF64(ep.LR)
	c.PutF64(ep.ValLoss)
	for _, v := range [...]int{flags, n, r, nw} {
		c.PutU32(v)
	}
	c.PutVec(ep.Theta)
	c.PutVec(ep.ValGrad)
	for _, i := range ep.Reported {
		c.PutU32(i)
	}
	c.PutVec(ep.Weights)
	for _, d := range ep.Deltas {
		c.PutVec(d)
	}
	if err := putRecord(w, rec); err != nil {
		return fmt.Errorf("logio: writing epoch %d: %w", k, err)
	}
	return nil
}

// readEpoch decodes the k-th epoch record (from 0) of a p-param log. Its
// floats land in one allocation cut into full-capacity vectors.
func readEpoch(b []byte, p, k int) (*hfl.Epoch, error) {
	if len(b) < epochHdrLen {
		return nil, fmt.Errorf("logio: epoch %d record has %d bytes", k, len(b))
	}
	c := framing.Cursor(b)
	ep := &hfl.Epoch{T: c.U32(), LR: c.F64(), ValLoss: c.F64()}
	flags, n, r, nw := c.U32(), c.U32(), c.U32(), c.U32()
	if rest := uint64(len(c)); flags&^(hasReported|hasWeights) != 0 ||
		flags&hasReported == 0 && r != 0 || flags&hasWeights == 0 && nw != 0 ||
		uint64(n) > rest || uint64(r) > rest || uint64(nw) > rest ||
		8*uint64(p)*uint64(2+n)+4*uint64(r)+8*uint64(nw) != rest || ep.T != k+1 {
		return nil, fmt.Errorf("logio: epoch %d record is malformed or out of order: %d bytes, T=%d flags %#x k=%d r=%d w=%d",
			k, len(b), ep.T, flags, n, r, nw)
	}
	slab := make([]float64, p*(2+n)+nw)
	vec := func(m int) []float64 { v := slab[:m:m]; slab = slab[m:]; c.ReadVec(v); return v }
	ep.Theta, ep.ValGrad = vec(p), vec(p)
	if flags&hasReported != 0 {
		ep.Reported = make([]int, r)
		for i := range ep.Reported {
			ep.Reported[i] = c.U32()
		}
	}
	if flags&hasWeights != 0 {
		ep.Weights = vec(nw)
	}
	ep.Deltas = make([][]float64, n)
	for i := range ep.Deltas {
		ep.Deltas[i] = vec(p)
	}
	return ep, nil
}

// writeLog writes header h, then the pooled record meta unless nil, then
// log's epochs.
func writeLog[E any](w io.Writer, h header, meta []byte, log []E, encode func(io.Writer, E, header, int) error) error {
	rec, c, _ := newRecord(uint64(headerLen + len(h.Format)))
	for _, v := range [...]int{version, h.Params, h.Parties} {
		c.PutU32(v)
	}
	copy(c, h.Format)
	if err := putRecord(w, rec); err != nil {
		return fmt.Errorf("logio: writing header: %w", err)
	}
	if meta != nil {
		if err := putRecord(w, meta); err != nil {
			return fmt.Errorf("logio: writing checkpoint meta: %w", err)
		}
	}
	for k, ep := range log {
		if err := encode(w, ep, h, k); err != nil {
			return err
		}
	}
	return nil
}

var errNoEpochs = errors.New("logio: log has no epochs") // a header and no epoch record

// readLog reads a file of the given format: its header, a meta record for
// meta unless nil, then its epochs to the end (at least one without meta).
func readLog[E any](r io.Reader, format string, meta func([]byte, int) error, decode func([]byte, header, int) (E, error)) ([]E, error) {
	fr := framing.NewReader(r)
	h, err := readHeader(fr, format)
	if err != nil {
		return nil, err
	}
	first := 1 // the first epoch's record
	if meta != nil {
		b, err := fr.Next(maxRecord)
		if err == nil {
			err = meta(b, h.Params)
		}
		if err != nil {
			return nil, fmt.Errorf("logio: checkpoint record 1: %w", err)
		}
		first++
	}
	var log []E
	for {
		b, err := fr.Next(maxRecord)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("logio: record %d: %w", first+len(log), err)
		}
		ep, err := decode(b, h, len(log))
		if err != nil {
			return nil, err
		}
		log = append(log, ep)
	}
	if meta == nil && len(log) == 0 {
		return nil, errNoEpochs
	}
	return log, nil
}

// hflParties derives the header party count: the delta count of any
// full-participation epoch, or — in a log where every epoch is degraded —
// the highest reported participant index plus one.
func hflParties(log []*hfl.Epoch) int {
	parties := 0
	for _, ep := range log {
		if ep.Reported == nil {
			parties = max(parties, len(ep.Deltas))
		}
		for _, i := range ep.Reported {
			parties = max(parties, i+1)
		}
	}
	return parties
}

// checkHFLShape validates the k-th epoch against the header shape: a
// full-participation epoch carries one delta per party; a degraded epoch
// carries one delta per survivor, with survivor indices inside [0, parties).
func checkHFLShape(ep *hfl.Epoch, h header, k int) error {
	var err error
	if want := h.Parties; ep.Reported != nil && len(ep.Deltas) != len(ep.Reported) || ep.Reported == nil && len(ep.Deltas) != want {
		err = fmt.Errorf("%d deltas for %d parties, survivor list %v", len(ep.Deltas), want, ep.Reported)
	}
	for _, i := range ep.Reported {
		if i < 0 || i >= h.Parties {
			err = fmt.Errorf("reported party %d out of range [0,%d)", i, h.Parties)
		}
	}
	if err != nil {
		return fmt.Errorf("logio: epoch %d shape drifts from header: %w", k, err)
	}
	return nil
}

func encodeHFL(w io.Writer, ep *hfl.Epoch, h header, k int) error {
	if err := checkHFLShape(ep, h, k); err != nil {
		return err
	}
	return writeEpoch(w, ep, h.Params, k)
}

func decodeHFL(b []byte, h header, k int) (*hfl.Epoch, error) {
	ep, err := readEpoch(b, h.Params, k)
	if err == nil {
		err = checkHFLShape(ep, h, k)
	}
	return ep, err
}

func encodeVFL(w io.Writer, ep *vfl.Epoch, h header, k int) error {
	return writeEpoch(w, &hfl.Epoch{T: ep.T, Theta: ep.Theta, Deltas: [][]float64{ep.Grad}, LR: ep.LR,
		ValGrad: ep.ValGrad, ValLoss: ep.ValLoss, Weights: ep.Weights, Reported: ep.Reported}, h.Params, k)
}

func decodeVFL(b []byte, h header, k int) (*vfl.Epoch, error) {
	ep, err := readEpoch(b, h.Params, k)
	if err != nil {
		return nil, err
	}
	if len(ep.Deltas) != 1 {
		return nil, fmt.Errorf("logio: VFL epoch %d carries %d gradients", k, len(ep.Deltas))
	}
	return &vfl.Epoch{T: ep.T, Theta: ep.Theta, Grad: ep.Deltas[0], LR: ep.LR,
		ValGrad: ep.ValGrad, ValLoss: ep.ValLoss, Weights: ep.Weights, Reported: ep.Reported}, nil
}

// WriteHFL serializes an HFL training log.
func WriteHFL(w io.Writer, log []*hfl.Epoch) error {
	if len(log) == 0 {
		return errors.New("logio: empty HFL log")
	}
	return writeLog(w, header{formatHFL, len(log[0].Theta), hflParties(log)}, nil, log, encodeHFL)
}

// ReadHFL deserializes an HFL training log, validating shapes.
func ReadHFL(r io.Reader) ([]*hfl.Epoch, error) { return readLog(r, formatHFL, nil, decodeHFL) }

// WriteVFL serializes a VFL training log.
func WriteVFL(w io.Writer, log []*vfl.Epoch) error {
	if len(log) == 0 {
		return errors.New("logio: empty VFL log")
	}
	return writeLog(w, header{formatVFL, len(log[0].Theta), 0}, nil, log, encodeVFL)
}

// ReadVFL deserializes a VFL training log, validating shapes.
func ReadVFL(r io.Reader) ([]*vfl.Epoch, error) { return readLog(r, formatVFL, nil, decodeVFL) }

// HFLWriter archives an HFL training log one epoch record at a time — the
// streaming counterpart of WriteHFL for runs that must not buffer the whole
// log (the networked coordinator archives each round as it closes), with
// output byte-identical to WriteHFL's. It needs the run shape up front,
// where WriteHFL derives the party count from the finished log. Errors are
// sticky: after the first failed write every call returns the same error, so
// a full disk never corrupts an archive without the caller noticing.
type HFLWriter struct {
	w      io.Writer
	shape  header
	epochs int
	err    error
}

// NewHFLWriter starts a streaming HFL archive on w by writing the header
// record for a run with the given model parameter and participant counts.
func NewHFLWriter(w io.Writer, params, parties int) (*HFLWriter, error) {
	sw, err := ResumeHFLWriter(w, params, parties, 0)
	if err != nil {
		return nil, err
	}
	if err := writeLog(w, sw.shape, nil, []*hfl.Epoch(nil), encodeHFL); err != nil {
		return nil, err
	}
	return sw, nil
}

// ResumeHFLWriter continues a streaming HFL archive that already holds its
// header and its first epochs epoch records — the recovered coordinator's
// path, whose journal replay reports that count. Writing resumes at
// epochs+1 with no second header, and the original and resumed writers'
// output is byte-identical to one uninterrupted HFLWriter's.
func ResumeHFLWriter(w io.Writer, params, parties, epochs int) (*HFLWriter, error) {
	if params <= 0 || parties <= 0 || epochs < 0 {
		return nil, fmt.Errorf("logio: invalid stream shape params=%d parties=%d epochs=%d", params, parties, epochs)
	}
	return &HFLWriter{w: w, shape: header{formatHFL, params, parties}, epochs: epochs}, nil
}

// WriteEpoch appends one epoch record. Epochs must arrive in order starting
// at 1, matching the shape declared at construction.
func (sw *HFLWriter) WriteEpoch(ep *hfl.Epoch) error {
	if sw.err == nil && ep.T != sw.epochs+1 {
		sw.err = fmt.Errorf("logio: epoch %d written after %d", ep.T, sw.epochs)
	}
	if sw.err == nil {
		sw.err = encodeHFL(sw.w, ep, sw.shape, sw.epochs)
	}
	if sw.err == nil {
		sw.epochs++
	}
	return sw.err
}

// Err returns the sticky error, if any.
func (sw *HFLWriter) Err() error { return sw.err }

// Epochs returns the number of epochs written so far.
func (sw *HFLWriter) Epochs() int { return sw.epochs }
