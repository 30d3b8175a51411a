package fednet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

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

// TestPartialFrameRoundTrip pins the binary partial encoding, including the
// empty-cohort form (k=0 carries no sum).
func TestPartialFrameRoundTrip(t *testing.T) {
	indices := []int{3, 5, 9}
	sum := []float64{1, -2, 3e300, 4e-300}
	dots := []float64{0.5, -0.25, 42}
	body, err := CodecV2.EncodePartial(6, 2, indices, sum, dots)
	if err != nil {
		t.Fatalf("EncodePartial: %v", err)
	}
	rt, edge, gotIdx, d, err := decodePartialHeader(body)
	if err != nil {
		t.Fatalf("decodePartialHeader: %v", err)
	}
	if rt != 6 || edge != 2 || d != len(sum) {
		t.Fatalf("header = (t=%d, edge=%d, d=%d), want (6, 2, %d)", rt, edge, d, len(sum))
	}
	if len(gotIdx) != len(indices) {
		t.Fatalf("decoded %d indices, want %d", len(gotIdx), len(indices))
	}
	for j := range indices {
		if gotIdx[j] != indices[j] {
			t.Errorf("index %d = %d, want %d", j, gotIdx[j], indices[j])
		}
	}
	gotSum, gotDots, finite := decodePartialVecs(body, len(indices), d)
	if !sameVec(gotSum, sum) || !sameVec(gotDots, dots) || !finite {
		t.Error("sum, dots or their finiteness differ after round trip")
	}

	// Empty partial: the zero sum an edge holds for a fully-dropped cohort
	// is elided (k=0 ⇒ d=0).
	empty, err := CodecV2.EncodePartial(6, 1, nil, make([]float64, 650), nil)
	if err != nil {
		t.Fatalf("EncodePartial(empty): %v", err)
	}
	if _, _, idx, d, err := decodePartialHeader(empty); err != nil || len(idx) != 0 || d != 0 {
		t.Fatalf("empty partial decoded to (idx=%d, d=%d, err=%v), want (0, 0, nil)", len(idx), d, err)
	}
}

// TestRoundFrameRoundTrip pins the binary broadcast in all three flag
// shapes: theta only (participants), valGrad only (edges, h=1&vg=1), both.
func TestRoundFrameRoundTrip(t *testing.T) {
	theta := []float64{1, 2, 3, -4.5}
	valGrad := []float64{0.1, -0.2, 0.3, math.Inf(1)}
	cases := []struct {
		name           string
		theta, valGrad []float64
	}{
		{"theta-only", theta, nil},
		{"valgrad-only", nil, valGrad},
		{"both", theta, valGrad},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			frame := encodeRoundFrame(9, 0.3, 1500, c.theta, c.valGrad, 0, 0)
			rr, err := decodeRoundFrame(frame)
			if err != nil {
				t.Fatalf("decodeRoundFrame: %v", err)
			}
			if rr.State != StateOpen || rr.T != 9 || float64(rr.LR) != 0.3 || rr.DeadlineMS != 1500 {
				t.Fatalf("reply = %+v, want open t=9 lr=0.3 deadline=1500", rr)
			}
			switch {
			case c.theta == nil && rr.Theta != nil, c.theta != nil && !sameVec(rr.Theta, c.theta):
				t.Error("theta differs after round trip")
			case c.valGrad == nil && rr.ValGrad != nil:
				t.Error("unexpected valGrad")
			case c.valGrad != nil:
				for i := range c.valGrad {
					if math.Float64bits(rr.ValGrad[i]) != math.Float64bits(c.valGrad[i]) {
						t.Errorf("valGrad coord %d differs", i)
					}
				}
			}
		})
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
		{"nan-payload", nan, CodeNonFinite},
	}

	// The edge handler vets payloads even before it learns the round, so it
	// exercises the full decode+vet pipeline statelessly; the coordinator
	// rejects the same envelopes before any round exists.
	edge := &EdgeAggregator{Root: "http://unused", Edge: 0, Members: []int{0}}
	edgeSrv := httptest.NewServer(edge.Handler())
	defer edgeSrv.Close()
	coord := &Coordinator{N: 1, Model: nil}
	coordSrv := httptest.NewServer(coord.Handler())
	defer coordSrv.Close()

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := edgeSrv.Client().Post(edgeSrv.URL+"/v1/update", contentTypeBinary,
				bytes.NewReader(c.body))
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != 422 {
				t.Fatalf("edge status = %d, want 422", resp.StatusCode)
			}
			var er errorReply
			if err := readJSON(resp.Body, &er); err != nil {
				t.Fatalf("decoding rejection: %v", err)
			}
			if er.Code != c.wantCode {
				t.Errorf("edge code = %q, want %q", er.Code, c.wantCode)
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

// TestNonFrameBodyRefused: the three ingest handlers read a body as a
// digfl-fednet/2 frame or not at all. A JSON body, a frame with no
// Content-Type, and a frame whose binary type carries parameters all answer
// 415/bad_frame without panicking, without touching the open round (or the
// edge's park), and without counting a frame; the same bytes under the
// exact type are then accepted, so the refusal was the type's alone.
func TestNonFrameBodyRefused(t *testing.T) {
	const p = 3
	update := updateFrame(t, 1, 0, []float64{1, 2, 3})
	partial, err := CodecV2.EncodePartial(1, 0, []int{1}, []float64{1, 2, 3}, []float64{0.5})
	if err != nil {
		t.Fatalf("EncodePartial: %v", err)
	}
	sink := &obs.Collector{}
	cfg := testConfig()
	cfg.Runtime.Sink = sink
	coord := &Coordinator{N: 2, Cfg: cfg, Stream: hfl.MeanStream{}, Edges: 1}
	round := coord.newRoundLocked(&hfl.RoundSpec{T: 1, Theta: make([]float64, p), ValGrad: make([]float64, p),
		Active: []int{0, 1}})
	tree := round.mode.(*treeMode)
	openTestRound(coord, round)
	edge := &EdgeAggregator{Root: "http://unused", Edge: 0, Members: []int{0}, Sink: sink}

	untouched := func() bool {
		coord.mu.Lock()
		defer coord.mu.Unlock()
		edge.mu.Lock()
		defer edge.mu.Unlock()
		return round.got == 0 && !round.have[0] && !round.have[1] &&
			tree.parts[0].slots == nil && tree.direct[0] == nil && len(edge.parked) == 0
	}
	handlers := []struct {
		name    string
		handler http.Handler
		path    string
		frame   []byte
	}{
		{"root-update", coord.Handler(), "/v1/update", update},
		{"root-partial", coord.Handler(), "/v1/partial", partial},
		{"edge-update", edge.Handler(), "/v1/update", update},
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
// putFrameVec and readFrameVec must match byte for byte and bit for bit.
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
	putFrameVec(buf[off:], v)
	if !bytes.Equal(buf[off:off+len(want)], want) {
		t.Errorf("%s: putFrameVec wrote other bytes than the oracle", at)
	}
	for j, c := range buf {
		if (j < off || j >= off+len(want)) && c != pad {
			t.Errorf("%s: putFrameVec wrote byte %d, outside its vector", at, j)
			break
		}
	}
	wantBits, wantFinite := refDecodeVec(buf[off:], len(v))
	if wantFinite != finite {
		t.Fatalf("%s: the oracle says finite=%v, the caller %v", at, wantFinite, finite)
	}
	got := make([]float64, len(v))
	if f := readFrameVec(buf[off:], got); f != finite {
		t.Errorf("%s: readFrameVec reported finite=%v, want %v", at, f, finite)
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
// the host's own image of 1.0 agrees with bigEndian.
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
		swapFloatBytes(img)
		if !bytes.Equal(img, refEncodeVec(v)) {
			t.Errorf("n=%d: a swapped big-endian image is not the wire's bytes", n)
		}
		swapFloatBytes(img)
		if !bytes.Equal(img, beImage) {
			t.Errorf("n=%d: swapping twice is not the identity", n)
		}
	}
	if got := floatBytes([]float64{1})[0] == 0x3f; got != bigEndian {
		t.Errorf("1.0's first byte says big-endian=%v, bigEndian=%v", got, bigEndian)
	}
}

// BenchmarkFrameVec2000 times the codec's two vector kernels on one
// reference-cell update (d=2000, 16 KB): encode is putFrameVec, decode is
// readFrameVec with its finiteness screen. Each is checked against the
// oracle before the timer starts.
func BenchmarkFrameVec2000(b *testing.B) {
	v := tensor.NewRNG(9).NormalVec(benchDim, 0, 1)
	wire := refEncodeVec(v)
	buf := make([]byte, len(wire))
	got := make([]float64, len(v))
	b.Run("encode", func(b *testing.B) {
		if putFrameVec(buf, v); !bytes.Equal(buf, wire) {
			b.Fatal("putFrameVec wrote other bytes than the oracle")
		}
		b.SetBytes(int64(len(wire)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			putFrameVec(buf, v)
		}
	})
	b.Run("decode", func(b *testing.B) {
		if !readFrameVec(wire, got) || !sameVec(got, v) {
			b.Fatal("readFrameVec decoded other bits than the oracle, or called them non-finite")
		}
		b.SetBytes(int64(len(wire)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			readFrameVec(wire, got)
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

// FuzzDecodePartialFrame: same contract for the partial decoder.
func FuzzDecodePartialFrame(f *testing.F) {
	seed, _ := CodecV2.EncodePartial(2, 0, []int{0, 1}, []float64{1, 2, 3}, []float64{4, 5})
	f.Add(seed)
	f.Add(seed[:partialHdrLen])
	f.Add([]byte("D2PA"))
	f.Fuzz(func(t *testing.T, b []byte) {
		_, _, indices, d, err := decodePartialHeader(b)
		if err != nil {
			return
		}
		k := len(indices)
		if len(b) != partialHdrLen+4*k+8*d+8*k {
			t.Fatalf("accepted frame of %d bytes with k=%d d=%d", len(b), k, d)
		}
		sum, dots, finite := decodePartialVecs(b, k, d)
		if len(sum) != d || len(dots) != k {
			t.Fatalf("vec lengths (%d, %d), want (%d, %d)", len(sum), len(dots), d, k)
		}
		if finite != (allFinite(sum) && allFinite(dots)) {
			t.Fatalf("decode reported finite=%v for sum %v, dots %v", finite, sum, dots)
		}
	})
}

// FuzzDecodeRoundFrame: same contract for the broadcast decoder.
func FuzzDecodeRoundFrame(f *testing.F) {
	f.Add(encodeRoundFrame(1, 0.3, 0, []float64{1, 2}, nil, 0, 0))
	f.Add(encodeRoundFrame(2, 0.1, 500, []float64{1}, []float64{2}, 0, 0))
	f.Add(encodeRoundFrame(3, 0.1, 0, nil, []float64{2}, 3, 4))
	f.Add([]byte("D2RD"))
	f.Fuzz(func(t *testing.T, b []byte) {
		rr, err := decodeRoundFrame(b)
		if err != nil {
			return
		}
		if rr.State != StateOpen {
			t.Fatalf("decoded state %q", rr.State)
		}
		if rr.Theta != nil && rr.ValGrad != nil && len(rr.Theta) != len(rr.ValGrad) {
			t.Fatalf("theta/valGrad length mismatch: %d vs %d", len(rr.Theta), len(rr.ValGrad))
		}
	})
}
