// Package framing is the binary record format that the coordinator's
// write-ahead journal (internal/fednet) and the training-log archive
// (internal/logio) share: u32 payload length | u32 CRC-32 (IEEE) | payload,
// little-endian, each record appended with one Write so that a crash tears at
// most the last. A Reader tells a torn tail (the input ends inside a record)
// from a corrupt record; the journal drops a torn tail, the archive refuses
// it. Floats cross as their IEEE-754 bits, a vector as one copy of its
// memory image (PutVec, ReadVec).
package framing

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"
)

// HdrLen is the per-record framing overhead: u32 length, u32 CRC.
const HdrLen = 8

var le = binary.LittleEndian

// Write seals rec — HdrLen bytes reserved for the framing, then the payload
// — and appends it to w with one Write. rec stays the caller's.
func Write(w io.Writer, rec []byte) error {
	le.PutUint32(rec, uint32(len(rec)-HdrLen))
	le.PutUint32(rec[4:], crc32.ChecksumIEEE(rec[HdrLen:]))
	_, err := w.Write(rec)
	return err
}

// ErrTorn reports an input that ends inside a record.
var ErrTorn = errors.New("input ends inside a record")

// readChunk is the least a record read grows its buffer by.
const readChunk = 64 << 10

// Reader reads records into one payload buffer, which grows only as bytes
// arrive: a length is unverified until its payload has been read and summed,
// so a torn or corrupt one must not size an allocation.
type Reader struct {
	r   io.Reader
	hdr [HdrLen]byte
	buf []byte
}

// NewReader reads records from r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Next returns the next record's payload, of at most limit bytes, valid until
// the following call; io.EOF when no byte follows the last record. A record
// the input ends inside returns ErrTorn; a length outside (0, limit] or a
// checksum mismatch, a corrupt-record error. The caller names the record.
// The length is compared as the unsigned value it is: on a 32-bit host an
// int of one with the top bit set is negative.
func (fr *Reader) Next(limit int) ([]byte, error) {
	if m, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.EOF && m == 0 {
			return nil, io.EOF
		}
		return nil, readErr(err)
	}
	u := le.Uint32(fr.hdr[:])
	if u == 0 || uint64(u) > uint64(limit) {
		return nil, fmt.Errorf("declares %d bytes, outside (0, %d]", u, limit)
	}
	n := int(u)
	for have := 0; have < n; {
		want := min(n, max(cap(fr.buf), 2*have, readChunk))
		if want > cap(fr.buf) {
			fr.buf = append(make([]byte, 0, want), fr.buf[:have]...)
		}
		m, err := io.ReadFull(fr.r, fr.buf[have:want])
		if have += m; err != nil {
			return nil, readErr(err)
		}
	}
	if crc32.ChecksumIEEE(fr.buf[:n]) != le.Uint32(fr.hdr[4:]) {
		return nil, errors.New("fails its checksum")
	}
	return fr.buf[:n], nil
}

// readErr is a failed read of a record: ErrTorn if the input ended.
func readErr(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrTorn
	}
	return err
}

// Cursor walks a record section by section. Its length must be checked
// beforehand, so that no step overruns.
type Cursor []byte

// Next returns the cursor's next n bytes and moves past them.
func (c *Cursor) Next(n int) []byte { b := (*c)[:n:n]; *c = (*c)[n:]; return b }

func (c *Cursor) PutU32(v int)                      { le.PutUint32(c.Next(4), uint32(v)) }
func (c *Cursor) PutF64(v float64)                  { le.PutUint64(c.Next(8), math.Float64bits(v)) }
func (c *Cursor) PutVec(v []float64)                { PutVec(c.Next(8*len(v)), v) }
func (c *Cursor) U32() int                          { return U32(c.Next(4)) }
func (c *Cursor) F64() float64                      { return math.Float64frombits(le.Uint64(c.Next(8))) }
func (c *Cursor) ReadVec(v []float64) (finite bool) { return ReadVec(c.Next(8*len(v)), v) }

// U32 reads the little-endian u32 at the front of b as an int, and one
// above math.MaxInt32 as −1: a 32-bit int cannot hold it, so every host
// reads the same value, and a field that must not be negative refuses it.
func U32(b []byte) int {
	v := le.Uint32(b)
	return int(v) | int(int32(v))>>31
}

// Vec reads the cursor's next n floats into a new vector.
func (c *Cursor) Vec(n int) []float64 {
	v := make([]float64, n)
	c.ReadVec(v)
	return v
}

// PutVec writes v's IEEE-754 bits little-endian into buf: one copy of v's
// memory image, then, on a big-endian host only, an in-place byte swap. Kept
// out of line: beside a memmove of d floats a call costs nothing.
//
//go:noinline
func PutVec(buf []byte, v []float64) {
	buf = buf[:8*len(v)]
	copy(buf, FloatBytes(v))
	if BigEndian {
		SwapFloatBytes(buf)
	}
}

// ReadVec fills v from the little-endian float64s at the front of b and
// reports whether every one is finite: one copy into v's memory image, then
// one read of that image while it is still in cache.
func ReadVec(b []byte, v []float64) (finite bool) {
	img := FloatBytes(v)
	copy(img, b[:len(img)])
	if BigEndian {
		SwapFloatBytes(img)
	}
	return finiteImage(img)
}

// FloatBytes is v's memory image, aliasing v. Record bytes are only copied
// into such an image, never reinterpreted as floats: a float in a record
// need not sit on an 8-byte boundary.
func FloatBytes(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

// BigEndian reports a host whose memory image of a float is not the
// record's; the string comparison folds to a constant.
var BigEndian = binary.NativeEndian.String() == "BigEndian"

// SwapFloatBytes reverses the byte order of every 8-byte word of b in place.
func SwapFloatBytes(b []byte) {
	for ; len(b) >= 8; b = b[8:] {
		le.PutUint64(b, binary.BigEndian.Uint64(b))
	}
}

// finiteImage reports whether no float of the memory image img is NaN or
// ±Inf: exactly the floats whose eleven exponent bits are all set, the only
// ones where adding one to the exponent carries out of it. The carries OR
// into one word, tested once.
func finiteImage(img []byte) bool {
	ne := binary.NativeEndian
	var carry uint64
	for len(img) >= 32 { // four floats per length check
		c := img[:32]
		carry |= (ne.Uint64(c[0:8])>>52&0x7ff + 1) | (ne.Uint64(c[8:16])>>52&0x7ff + 1) |
			(ne.Uint64(c[16:24])>>52&0x7ff + 1) | (ne.Uint64(c[24:32])>>52&0x7ff + 1)
		img = img[32:]
	}
	for ; len(img) >= 8; img = img[8:] {
		carry |= ne.Uint64(img)>>52&0x7ff + 1
	}
	return carry>>11 == 0
}
