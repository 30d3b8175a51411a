package fednet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"digfl/internal/core"
	"digfl/internal/hfl"
	"digfl/internal/robust"
	"digfl/internal/tensor"
)

// scriptN is the population of the scripted journal runs.
const scriptN = 4

// serveOnce hands h one request (Content-Type set when given) and returns
// the recorded reply.
func serveOnce(h http.Handler, method, target, contentType string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// scriptedJournal runs one small journaled coordinator to completion with a
// single test goroutine playing every participant through Handler() in index
// order, so the journal's records land in
// one fixed order and its bytes are a pure function of (mode, seed). Modes:
// "buffered" (estimator + quarantine + archive, participant 3
// sign-flipped), "quarantine" (the same without the archive, so its rounds
// stream),
// "streamed" and "async" (participant 0 re-posts its round-1 update while
// round 2 is open: a late admit).
func scriptedJournal(t *testing.T, mode string, seed int64) []byte {
	t.Helper()
	model, parts, val := problemN(seed, scriptN)
	cfg := testConfig()
	cfg.Epochs = 4
	journal := &bytes.Buffer{}
	c := &Coordinator{
		N: scriptN, Model: model, Val: val, Cfg: cfg, Journal: journal,
		Estimator: core.NewHFLEstimator(scriptN, model.NumParams(), core.ResourceSaving, nil),
	}
	switch mode {
	case "buffered":
		c.Quarantine = robust.MustNewQuarantine(robust.Quarantine{})
		c.Archive = &bytes.Buffer{}
	case "quarantine":
		c.Quarantine = robust.MustNewQuarantine(robust.Quarantine{})
	case "streamed":
		c.Stream = hfl.MeanStream{}
	case "async":
		c.Stream = hfl.MeanStream{}
		c.Async = &hfl.AsyncConfig{Quorum: 3, MaxStaleness: 2}
	}
	h := c.Handler()
	do := func(method, target, contentType string, body []byte) *httptest.ResponseRecorder {
		return serveOnce(h, method, target, contentType, body)
	}
	// poll long-polls round tt and returns its broadcast, or nil when the
	// reply is a JSON marker (excluded, done).
	poll := func(query string) *roundReply {
		w := do("GET", "/v1/round?"+query, "", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("%s poll %s: status %d %s", mode, query, w.Code, w.Body)
		}
		if w.Header().Get("Content-Type") != contentTypeBinary {
			return nil
		}
		rr, err := decodeRoundFrame(w.Body.Bytes())
		if err != nil {
			t.Fatalf("%s poll %s: %v", mode, query, err)
		}
		return rr
	}
	post := func(path string, frame []byte, want int) {
		if w := do("POST", path, contentTypeBinary, frame); w.Code != want {
			t.Fatalf("%s %s: status %d, want %d: %s", mode, path, w.Code, want, w.Body)
		}
	}

	done := make(chan error, 1)
	go func() {
		_, err := c.Run(context.Background())
		done <- err
	}()
	for i := 0; i < scriptN; i++ {
		join := fmt.Sprintf(`{"protocol":%q,"index":%d}`, Protocol, i)
		if w := do("POST", "/v1/join", contentTypeJSON, []byte(join)); w.Code != http.StatusOK {
			t.Fatalf("%s join %d: status %d %s", mode, i, w.Code, w.Body)
		}
	}
	var firstOfZero []float64
	for tt := 1; tt <= cfg.Epochs; tt++ {
		for i := 0; i < scriptN; i++ {
			rr := poll(fmt.Sprintf("t=%d&i=%d", tt, i))
			if rr == nil {
				continue // excluded: an async update of i's is still in flight
			}
			delta := localDelta(model, parts[i], rr.Theta, float64(rr.LR), 1)
			if (mode == "buffered" || mode == "quarantine") && i == 3 {
				tensor.Scale(-1, delta)
			}
			post("/v1/update", updateFrame(t, tt, i, delta), http.StatusOK)
			if mode == "async" && tt == 1 && i == 0 {
				firstOfZero = delta
			}
			if mode == "async" && tt == 2 && i == 0 {
				post("/v1/update", updateFrame(t, 1, 0, firstOfZero), http.StatusAccepted)
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("%s run (seed %d): %v", mode, seed, err)
	}
	return journal.Bytes()
}

// TestWALBytesPinned: the journal a run writes is part of the crash
// contract — a coordinator of this build must replay what an older one
// wrote, and the reverse — so its bytes are pinned, per mode and seed, to
// the SHA-256 the parent of the journal-what-arrived change (5d9da17) wrote
// for the same scripted run. The buffered rows were printed again when the
// buffered aggregate took the fold's order (sum, then scale once): its
// epoch-close θ moved by an ulp, its record layout did not. Every row
// moved once when every exp became tensor.Exp on amd64's plain sequence,
// and back when tensor.Exp took the FMA sequence with math.FMA: each hash
// is the one commit fdf370f wrote, with math.Exp's FMA sequence.
func TestWALBytesPinned(t *testing.T) {
	want := map[string][3]string{
		"buffered": {
			"8fb17cd3ad80b69a80cf733f26c7203f414d5c6a069d96c276488f7419181ed0",
			"9654e6f4cbf8d9caf03700e372ddc3091a561884fc6c2536be38e8821958f3b2",
			"5f134fd5c445e8091a113a6a9a9335e213b6a55fc5371d2aa46c79b0825cdcd9"},
		"streamed": {
			"e7af17df8d739fbf10c9597132018f3039ea1c3669953ee12dc5494f5ae97946",
			"c48697c282bd92a045ab098657dc24c36d6206cef2cc3fcff0df2fa03450f7bd",
			"dbea6e8f938a8a0fbc19795f47f5e22d32c027d01e7d5f4afa50f0001ff4e569"},
		"async": {
			"133800abb84781f48caa433bda8e6944b151c5c55f4dcbfd79b422fcbfd32039",
			"2eb5c3d4c0a7f11c7f6dc734d13a443111ad4be87dd92ff25b98aaf874312fa2",
			"cbd3805adc8f40854a6561d64d40c95085db74a34b17240db99a14604422c158"},
	}
	// A quarantine whose rounds stream journals exactly what the buffered
	// one does: the commits, and closes built from the same state.
	want["quarantine"] = want["buffered"]
	for _, mode := range []string{"buffered", "quarantine", "streamed", "async"} {
		for s, sum := range want[mode] {
			seed := int64(s + 1)
			b := scriptedJournal(t, mode, seed)
			got := sha256.Sum256(b)
			if hex.EncodeToString(got[:]) != sum {
				t.Errorf("%s seed %d: journal of %d bytes hashes to %s, pinned %s",
					mode, seed, len(b), hex.EncodeToString(got[:]), sum)
			}
			// What was pinned must also be a journal: every record replays.
			rep, err := replayWAL(bytes.NewReader(b))
			if err != nil || !rep.runClosed || rep.lastClosed != 4 || rep.consumed != int64(len(b)) {
				t.Errorf("%s seed %d: replay: %v (%+v)", mode, seed, err, rep)
			}
		}
	}
}

// canonicalSeeds are update payloads whose bit patterns a float round trip
// could plausibly disturb: signed zeros, subnormals, the extremes.
var canonicalSeeds = []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64,
	-math.SmallestNonzeroFloat64, 0x1p-1023, math.MaxFloat64, -math.MaxFloat64, 1, -1.5e-300}

// checkCanonical: if the coordinator would accept body as an update — the
// envelope decodes and every float is finite, exactly the ingest handler's
// conditions on the frame itself — then re-encoding what it decoded gives
// back the body byte for byte. That is what lets the journal
// take the bytes that arrived instead of an encoding of the decoded vectors.
func checkCanonical(t *testing.T, body []byte) {
	t.Helper()
	tt, index, d, err := decodeUpdateHeader(body)
	if err != nil {
		return
	}
	delta, finite := decodeFrameVec(body[updateHdrLen:], d)
	if !finite {
		return
	}
	again, err := CodecV2.EncodeUpdate(tt, index, delta)
	if err != nil {
		t.Fatalf("accepted update (t=%d, index=%d) does not re-encode: %v", tt, index, err)
	}
	if !bytes.Equal(again, body) {
		t.Fatalf("accepted frame %q of %d bytes is not canonical: re-encoding differs", body[:4], len(body))
	}
}

// TestIngestFrameCanonical runs checkCanonical over the seed payloads and
// over seeded random bit patterns behind valid headers (most finite, some
// not: those are skipped as the handlers would refuse them).
func TestIngestFrameCanonical(t *testing.T) {
	update, _ := CodecV2.EncodeUpdate(7, 3, canonicalSeeds)
	checkCanonical(t, update)
	empty, _ := CodecV2.EncodeUpdate(7, 1, nil)
	checkCanonical(t, empty)
	rng := tensor.NewRNG(12)
	for n := 0; n < 400; n++ {
		d := 1 + n%19
		body := make([]byte, updateHdrLen+8*d)
		for j := 4; j < len(body); j += 4 {
			le.PutUint32(body[j:], rng.Uint32())
		}
		copy(body, magicUpdate[:])
		le.PutUint32(body[12:], uint32(d))
		checkCanonical(t, body)
	}
}

// FuzzIngestFrameCanonical: the same property over arbitrary bytes.
func FuzzIngestFrameCanonical(f *testing.F) {
	update, _ := CodecV2.EncodeUpdate(7, 3, canonicalSeeds)
	f.Add(update)
	f.Add(update[:updateHdrLen+8])
	f.Add(update[:updateHdrLen])
	f.Add([]byte("D2UP"))
	f.Fuzz(checkCanonical)
}
