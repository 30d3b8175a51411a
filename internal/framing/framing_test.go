package framing

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

// payload returns n bytes 1, 2, …, n.
func payload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i + 1)
	}
	return p
}

// record seals p as one record and then overwrites its length field with n:
// the checksum stays p's, so only the length can refuse it.
func record(p []byte, n uint32) []byte {
	var buf bytes.Buffer
	if err := Write(&buf, append(make([]byte, HdrLen), p...)); err != nil {
		panic(err)
	}
	b := buf.Bytes()
	le.PutUint32(b, n)
	return b
}

// TestNextLengthBounds: a record's length is in (0, limit], compared as
// the unsigned value it is — 0, limit+1, 2³¹ and 2³²−1 are refused as a
// corrupt record, never read as a negative int on a 32-bit host, and a
// well-formed record of exactly limit bytes, or of limit+1 under a limit one
// larger, is read back.
func TestNextLengthBounds(t *testing.T) {
	const limit = 16
	for _, c := range []struct {
		name  string
		in    []byte
		limit int
		ok    bool
	}{
		{"0", record(nil, 0), limit, false},
		{"limit", record(payload(limit), limit), limit, true},
		{"limit+1", record(payload(limit+1), limit+1), limit, false},
		{"limit+1 under limit+1", record(payload(limit+1), limit+1), limit + 1, true},
		{"2^31", record(payload(limit), 1<<31), limit, false},
		{"2^32-1", record(payload(limit), 1<<32-1), limit, false},
	} {
		got, err := NewReader(bytes.NewReader(c.in)).Next(c.limit)
		switch {
		case c.ok && (err != nil || !bytes.Equal(got, c.in[HdrLen:])):
			t.Errorf("%s: Next = %v, %v; want the payload", c.name, got, err)
		case !c.ok && (err == nil || errors.Is(err, ErrTorn) || !strings.Contains(err.Error(), "declares")):
			t.Errorf("%s: Next = %d bytes, %v; want a length refusal", c.name, len(got), err)
		}
	}
}

// TestNextTorn: an input that ends inside a header or a payload is ErrTorn,
// one that ends at a record boundary io.EOF.
func TestNextTorn(t *testing.T) {
	whole := record(payload(5), 5)
	for cut := 0; cut < len(whole); cut++ {
		_, err := NewReader(bytes.NewReader(whole[:cut])).Next(64)
		want := ErrTorn
		if cut == 0 {
			want = io.EOF
		}
		if !errors.Is(err, want) {
			t.Errorf("cut at %d of %d bytes: %v, want %v", cut, len(whole), err, want)
		}
	}
	fr := NewReader(bytes.NewReader(whole))
	if _, err := fr.Next(64); err != nil {
		t.Fatalf("the whole record: %v", err)
	}
	if _, err := fr.Next(64); err != io.EOF {
		t.Fatalf("after the last record: %v, want io.EOF", err)
	}
}

// TestU32: a u32 field reads as itself up to math.MaxInt32 and as −1 above
// it, on every host.
func TestU32(t *testing.T) {
	for _, c := range []struct {
		v    uint32
		want int
	}{{0, 0}, {1, 1}, {math.MaxInt32, math.MaxInt32}, {1 << 31, -1}, {1<<32 - 1, -1}} {
		b := make([]byte, 4)
		le.PutUint32(b, c.v)
		cur := Cursor(b)
		if got := cur.U32(); got != c.want || len(cur) != 0 {
			t.Errorf("U32 of %d = %d, want %d", c.v, got, c.want)
		}
	}
}
