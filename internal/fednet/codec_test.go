package fednet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"digfl/internal/framing"
	"digfl/internal/hfl"
	"digfl/internal/obs"
	"digfl/internal/tensor"
)

// TestUpdateFrameRoundTrip pins the binary update encoding: every float64
// bit pattern — including NaN payloads and ±Inf — must survive the frame
// verbatim, and the header must describe the payload exactly.
func TestUpdateFrameRoundTrip(t *testing.T) {
	delta := []float64{0, 1.5, -math.Pi, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.MaxFloat64}
	body, err := CodecV2.EncodeUpdate(42, 7, delta)
	if err != nil {
		t.Fatalf("EncodeUpdate: %v", err)
	}
	if len(body) != updateHdrLen+8*len(delta) {
		t.Fatalf("frame is %d bytes, want %d", len(body), updateHdrLen+8*len(delta))
	}
	rt, index, d, err := decodeUpdateHeader(body)
	if err != nil {
		t.Fatalf("decodeUpdateHeader: %v", err)
	}
	if rt != 42 || index != 7 || d != len(delta) {
		t.Fatalf("header = (t=%d, index=%d, d=%d), want (42, 7, %d)", rt, index, d, len(delta))
	}
	got, finite := decodeFrameVec(body[updateHdrLen:], d)
	if finite {
		t.Error("a delta carrying NaN and ±Inf decoded as finite")
	}
	for i := range delta {
		if math.Float64bits(got[i]) != math.Float64bits(delta[i]) {
			t.Errorf("coord %d: bits %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(delta[i]))
		}
	}
}

// TestRoundFrameRoundTrip pins the binary broadcast in its flag shapes:
// theta (the participants' poll) and header-only, each plain and with the
// async extension. The retired validation-gradient flag (1<<1) is refused as
// unknown.
func TestRoundFrameRoundTrip(t *testing.T) {
	theta := []float64{1, 2, 3, -4.5}
	cases := []struct {
		name            string
		theta           []float64
		quorum, maxStal int
	}{
		{"theta-only", theta, 0, 0},
		{"header-only", nil, 0, 0},
		{"async", theta, 3, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			frame := encodeRoundFrame(9, 0.3, 1500, c.theta, c.quorum, c.maxStal)
			rr, err := decodeRoundFrame(frame)
			if err != nil {
				t.Fatalf("decodeRoundFrame: %v", err)
			}
			if rr.State != StateOpen || rr.T != 9 || float64(rr.LR) != 0.3 || rr.DeadlineMS != 1500 ||
				rr.Quorum != c.quorum || rr.MaxStale != c.maxStal {
				t.Fatalf("reply = %+v, want open t=9 lr=0.3 deadline=1500 quorum=%d max_stale=%d", rr, c.quorum, c.maxStal)
			}
			if c.theta == nil && rr.Theta != nil || c.theta != nil && !sameVec(rr.Theta, c.theta) {
				t.Error("theta differs after round trip")
			}
		})
	}
	retired := encodeRoundFrame(9, 0.3, 0, theta, 0, 0)
	le.PutUint32(retired[24:], roundFlagTheta|1<<1)
	if _, err := decodeRoundFrame(retired); err == nil || !strings.Contains(err.Error(), "unknown flags") {
		t.Errorf("a frame with the retired validation-gradient flag decoded: %v", err)
	}
}

// TestBinaryFrameRejection drives malformed digfl-fednet/2 payloads at the
// live handlers: truncated, oversized, magic-less, and header-contradicting
// frames must come back 422/bad_frame, a NaN payload 422/non_finite — and
// none of them may panic the server.
func TestBinaryFrameRejection(t *testing.T) {
	valid, err := CodecV2.EncodeUpdate(1, 0, []float64{1, 2, 3})
	if err != nil {
		t.Fatalf("EncodeUpdate: %v", err)
	}
	nan, err := CodecV2.EncodeUpdate(1, 0, []float64{1, math.NaN(), 3})
	if err != nil {
		t.Fatalf("EncodeUpdate: %v", err)
	}
	oversized := append(append([]byte{}, valid...), 0xEE)
	truncated := valid[:len(valid)-3]
	declares := append([]byte{}, valid...)
	declares[12] = 200 // header promises 200 floats the body lacks
	huge := append([]byte{}, valid...)
	huge[12], huge[13], huge[14], huge[15] = 0xFF, 0xFF, 0xFF, 0xFF
	lateRound := append([]byte{}, valid...)
	le.PutUint32(lateRound[4:], 1<<31)
	farIndex := append([]byte{}, valid...)
	le.PutUint32(farIndex[8:], 1<<31)

	cases := []struct {
		name     string
		body     []byte
		wantCode string
	}{
		{"truncated-header", []byte("D2UP"), CodeBadFrame},
		{"truncated-payload", truncated, CodeBadFrame},
		{"oversized-payload", oversized, CodeBadFrame},
		{"wrong-magic", bytes.Replace(valid, []byte("D2UP"), []byte("JUNK"), 1), CodeBadFrame},
		{"dim-contradiction", declares, CodeBadFrame},
		{"dim-overflow", huge, CodeBadFrame},
		{"round-2^31", lateRound, CodeBadFrame},
		{"index-2^31", farIndex, CodeBadFrame},
		{"nan-payload", nan, CodeNonFinite},
	}

	// A coordinator with round 1 open for participant 0 runs the full
	// decode+vet pipeline; one with no round rejects the same envelopes
	// before any round exists.
	open := &Coordinator{N: 1, Cfg: testConfig(), Stream: hfl.MeanStream{}}
	openTestRound(open, open.newRoundLocked(&hfl.RoundSpec{T: 1, Theta: make([]float64, 3),
		ValGrad: make([]float64, 3), Active: []int{0}}))
	openSrv := httptest.NewServer(open.Handler())
	defer openSrv.Close()
	coord := &Coordinator{N: 1, Model: nil}
	coordSrv := httptest.NewServer(coord.Handler())
	defer coordSrv.Close()

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := openSrv.Client().Post(openSrv.URL+"/v1/update", contentTypeBinary,
				bytes.NewReader(c.body))
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != 422 {
				t.Fatalf("open-round status = %d, want 422", resp.StatusCode)
			}
			var er errorReply
			if err := readJSON(resp.Body, &er); err != nil {
				t.Fatalf("decoding rejection: %v", err)
			}
			if er.Code != c.wantCode {
				t.Errorf("open-round code = %q, want %q", er.Code, c.wantCode)
			}
			if c.wantCode != CodeBadFrame {
				return // coordinator state checks precede the payload vet
			}
			cresp, err := coordSrv.Client().Post(coordSrv.URL+"/v1/update", contentTypeBinary,
				bytes.NewReader(c.body))
			if err != nil {
				t.Fatalf("coordinator POST: %v", err)
			}
			defer cresp.Body.Close()
			if cresp.StatusCode != 422 {
				t.Errorf("coordinator status = %d, want 422", cresp.StatusCode)
			}
		})
	}
}

// TestFrameFieldsAboveMaxInt32Refused: a u32 header field above
// math.MaxInt32 — t, index or d of an update frame; T, flags, d, quorum or
// maxStale of a round frame — is refused as a bad frame on every host, not
// read as a negative int on a 32-bit one.
func TestFrameFieldsAboveMaxInt32Refused(t *testing.T) {
	update, _ := CodecV2.EncodeUpdate(3, 1, []float64{1, 2})
	for _, off := range []int{4, 8, 12} {
		for _, v := range []uint32{1 << 31, 1<<32 - 1} {
			b := append([]byte{}, update...)
			le.PutUint32(b[off:], v)
			var fe *frameError
			if _, _, _, err := decodeUpdateHeader(b); !errors.As(err, &fe) {
				t.Errorf("update frame with %d at offset %d: %v, want a bad frame", v, off, err)
			}
		}
	}
	round := encodeRoundFrame(2, 0.1, 0, []float64{1}, 3, 4)
	for _, off := range []int{4, 24, 28, roundHdrLen, roundHdrLen + 4} {
		b := append([]byte{}, round...)
		le.PutUint32(b[off:], 1<<31)
		var fe *frameError
		if _, err := decodeRoundFrame(b); !errors.As(err, &fe) {
			t.Errorf("round frame with 2³¹ at offset %d: %v, want a bad frame", off, err)
		}
	}
	if _, err := decodeRoundFrame(round); err != nil {
		t.Fatalf("the unaltered round frame: %v", err)
	}
}

// TestNonFrameBodyRefused: the ingest handler reads a body as a
// digfl-fednet/2 frame or not at all. A JSON body, a frame with no
// Content-Type, and a frame whose binary type carries parameters all answer
// 415/bad_frame without panicking, without touching the open round, and
// without counting a frame; the same bytes under the exact type are then
// accepted, so the refusal was the type's alone.
func TestNonFrameBodyRefused(t *testing.T) {
	const p = 3
	update := updateFrame(t, 1, 0, []float64{1, 2, 3})
	sink := &obs.Collector{}
	cfg := testConfig()
	cfg.Runtime.Sink = sink
	coord := &Coordinator{N: 2, Cfg: cfg, Stream: hfl.MeanStream{}}
	round := coord.newRoundLocked(&hfl.RoundSpec{T: 1, Theta: make([]float64, p), ValGrad: make([]float64, p),
		Active: []int{0, 1}})
	openTestRound(coord, round)

	untouched := func() bool {
		coord.mu.Lock()
		defer coord.mu.Unlock()
		return round.got == 0 && !round.have[0] && !round.have[1]
	}
	handlers := []struct {
		name    string
		handler http.Handler
		path    string
		frame   []byte
	}{
		{"root-update", coord.Handler(), "/v1/update", update},
	}
	for _, h := range handlers {
		post := func(contentType string, body []byte) (*httptest.ResponseRecorder, errorReply) {
			req := httptest.NewRequest(http.MethodPost, h.path, bytes.NewReader(body))
			if contentType != "" {
				req.Header.Set("Content-Type", contentType)
			}
			w := httptest.NewRecorder()
			h.handler.ServeHTTP(w, req)
			var er errorReply
			_ = json.Unmarshal(w.Body.Bytes(), &er)
			return w, er
		}
		for _, c := range []struct {
			name, contentType string
			body              []byte
		}{
			{"json", contentTypeJSON, []byte(`{"protocol":"digfl-fednet/1","t":1,"index":0,"delta":[1,2,3]}`)},
			{"no-type", "", h.frame},
			{"type-with-params", contentTypeBinary + "; charset=utf-8", h.frame},
		} {
			t.Run(h.name+"/"+c.name, func(t *testing.T) {
				w, er := post(c.contentType, c.body)
				if w.Code != http.StatusUnsupportedMediaType || er.Code != CodeBadFrame {
					t.Errorf("status %d code %q, want 415 %s", w.Code, er.Code, CodeBadFrame)
				}
				if !untouched() {
					t.Error("a refused body reached the round")
				}
				if n := sink.Snapshot().CodecV2Frames; n != 0 {
					t.Errorf("%d frames counted for refused bodies", n)
				}
			})
		}
	}
	for _, h := range handlers {
		req := httptest.NewRequest(http.MethodPost, h.path, bytes.NewReader(h.frame))
		req.Header.Set("Content-Type", contentTypeBinary)
		w := httptest.NewRecorder()
		h.handler.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Errorf("%s: the same frame under the exact type: status %d %s", h.name, w.Code, w.Body)
		}
	}
	if untouched() {
		t.Error("accepted frames left the round untouched")
	}
}

// allFinite is the reference the decoders' finiteness report is checked
// against.
func allFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// refEncodeVec and refDecodeVec are the per-element codec — one
// PutUint64/Uint64 per float, finite meaning neither NaN nor ±Inf — that
// framing.PutVec and framing.ReadVec must match byte for byte and bit for bit.
func refEncodeVec(v []float64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

func refDecodeVec(b []byte, n int) (bits []uint64, finite bool) {
	bits, finite = make([]uint64, n), true
	for i := range bits {
		bits[i] = binary.LittleEndian.Uint64(b[8*i:])
		x := math.Float64frombits(bits[i])
		finite = finite && !math.IsNaN(x) && !math.IsInf(x, 0)
	}
	return bits, finite
}

// checkFrameVec encodes v at byte offset off of a larger buffer and decodes
// it back from there, checking both against the oracle: the bytes written,
// nothing written outside them, the bits read, and the finiteness verdict
// (which must also be finite).
func checkFrameVec(t *testing.T, at string, v []float64, off int, finite bool) {
	t.Helper()
	const pad = 0xa5
	want := refEncodeVec(v)
	buf := bytes.Repeat([]byte{pad}, off+len(want)+8)
	framing.PutVec(buf[off:], v)
	if !bytes.Equal(buf[off:off+len(want)], want) {
		t.Errorf("%s: PutVec wrote other bytes than the oracle", at)
	}
	for j, c := range buf {
		if (j < off || j >= off+len(want)) && c != pad {
			t.Errorf("%s: PutVec wrote byte %d, outside its vector", at, j)
			break
		}
	}
	wantBits, wantFinite := refDecodeVec(buf[off:], len(v))
	if wantFinite != finite {
		t.Fatalf("%s: the oracle says finite=%v, the caller %v", at, wantFinite, finite)
	}
	got := make([]float64, len(v))
	if f := framing.ReadVec(buf[off:], got); f != finite {
		t.Errorf("%s: ReadVec reported finite=%v, want %v", at, f, finite)
	}
	for j := range got {
		if math.Float64bits(got[j]) != wantBits[j] {
			t.Errorf("%s: coordinate %d decoded to %#x, the oracle to %#x", at, j, math.Float64bits(got[j]), wantBits[j])
		}
	}
}

// FuzzFrameVecReference: any bit patterns, at any byte offset, encode to
// exactly the oracle's bytes, decode to exactly its bits, and get its
// finiteness verdict.
func FuzzFrameVecReference(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(refEncodeVec([]float64{1, math.NaN(), -3, math.Inf(-1), 5}), uint8(4))
	f.Add(refEncodeVec([]float64{0, -0.0, math.MaxFloat64, math.SmallestNonzeroFloat64}), uint8(3))
	f.Add(bytes.Repeat([]byte{0xff}, 8*9+5), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		bits, finite := refDecodeVec(data, len(data)/8)
		v := make([]float64, len(bits))
		for i, u := range bits {
			v[i] = math.Float64frombits(u)
		}
		checkFrameVec(t, fmt.Sprintf("%d floats at offset %d", len(v), off%8), v, int(off%8), finite)
	})
}

// TestFrameVecSwap: the big-endian host's step between a memory image and the
// wire, exercised here directly. A big-endian image (binary.BigEndian's bytes
// of each float) swaps to the oracle's wire bytes, and those swap back; and
// the host's own image of 1.0 agrees with framing.BigEndian.
func TestFrameVecSwap(t *testing.T) {
	rng := tensor.NewRNG(3)
	for n := 0; n <= 9; n++ {
		v := rng.NormalVec(n, 0, 1e3)
		if n > 2 {
			v[1], v[2] = math.NaN(), math.Inf(-1)
		}
		img := make([]byte, 8*n)
		for i, x := range v {
			binary.BigEndian.PutUint64(img[8*i:], math.Float64bits(x))
		}
		beImage := bytes.Clone(img)
		framing.SwapFloatBytes(img)
		if !bytes.Equal(img, refEncodeVec(v)) {
			t.Errorf("n=%d: a swapped big-endian image is not the wire's bytes", n)
		}
		framing.SwapFloatBytes(img)
		if !bytes.Equal(img, beImage) {
			t.Errorf("n=%d: swapping twice is not the identity", n)
		}
	}
	if got := framing.FloatBytes([]float64{1})[0] == 0x3f; got != framing.BigEndian {
		t.Errorf("1.0's first byte says big-endian=%v, framing.BigEndian=%v", got, framing.BigEndian)
	}
}

// BenchmarkFrameVec2000 times the codec's two vector kernels on one
// reference-cell update (d=2000, 16 KB): encode is framing.PutVec, decode is
// framing.ReadVec with its finiteness screen. Each is checked against the
// oracle before the timer starts.
func BenchmarkFrameVec2000(b *testing.B) {
	v := tensor.NewRNG(9).NormalVec(benchDim, 0, 1)
	wire := refEncodeVec(v)
	buf := make([]byte, len(wire))
	got := make([]float64, len(v))
	b.Run("encode", func(b *testing.B) {
		if framing.PutVec(buf, v); !bytes.Equal(buf, wire) {
			b.Fatal("PutVec wrote other bytes than the oracle")
		}
		b.SetBytes(int64(len(wire)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			framing.PutVec(buf, v)
		}
	})
	b.Run("decode", func(b *testing.B) {
		if !framing.ReadVec(wire, got) || !sameVec(got, v) {
			b.Fatal("ReadVec decoded other bits than the oracle, or called them non-finite")
		}
		b.SetBytes(int64(len(wire)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			framing.ReadVec(wire, got)
		}
	})
}

// FuzzDecodeUpdateFrame: arbitrary bytes must never panic the update
// header decoder, an accepted header must describe the byte length
// exactly, and the decode's finiteness report must be true of the floats.
func FuzzDecodeUpdateFrame(f *testing.F) {
	seed, _ := CodecV2.EncodeUpdate(3, 1, []float64{1, math.NaN(), -3})
	f.Add(seed)
	f.Add(seed[:7])
	f.Add([]byte("D2UP"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		rt, index, d, err := decodeUpdateHeader(b)
		if err != nil {
			return
		}
		if len(b) != updateHdrLen+8*d {
			t.Fatalf("accepted frame of %d bytes with d=%d", len(b), d)
		}
		if rt < 0 || index < 0 || d < 0 {
			t.Fatalf("negative header fields (t=%d, index=%d, d=%d)", rt, index, d)
		}
		if delta, finite := decodeFrameVec(b[updateHdrLen:], d); finite != allFinite(delta) {
			t.Fatalf("decode reported finite=%v for %v", finite, delta)
		}
	})
}

// FuzzDecodeRoundFrame: same contract for the broadcast decoder.
func FuzzDecodeRoundFrame(f *testing.F) {
	f.Add(encodeRoundFrame(1, 0.3, 0, []float64{1, 2}, 0, 0))
	f.Add(encodeRoundFrame(2, 0.1, 500, []float64{1}, 3, 4))
	f.Add(encodeRoundFrame(3, 0.1, 0, nil, 3, 4))
	f.Add([]byte("D2RD"))
	f.Fuzz(func(t *testing.T, b []byte) {
		rr, err := decodeRoundFrame(b)
		if err != nil {
			return
		}
		if rr.State != StateOpen {
			t.Fatalf("decoded state %q", rr.State)
		}
	})
}
