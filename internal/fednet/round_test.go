package fednet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"digfl/internal/framing"
	"digfl/internal/hfl"
	"digfl/internal/tensor"
)

// TestFiniteVecTable: the exponent-carry screen framing.ReadVec runs over the
// vector it decoded rejects exactly NaN (any payload, quiet or signalling,
// either sign) and ±Inf — at every length from 0 to 11 (every lane of the
// four-wide loop and every tail), at every position, and at every byte offset
// 0–7 inside a larger buffer, as a close frame's vectors sit — while the bits it
// stores and the bytes framing.PutVec writes are the per-element oracle's, and
// the handlers answer such a frame 422 non_finite before the journal and the
// fold see it.
func TestFiniteVecTable(t *testing.T) {
	const maxN = 11
	for _, c := range []struct {
		name   string
		bits   uint64
		finite bool
	}{
		{"zero", 0, true},
		{"negative zero", 1 << 63, true},
		{"one", math.Float64bits(1), true},
		{"smallest subnormal", 1, true},
		{"largest subnormal", 0x000fffffffffffff, true},
		{"negative subnormal", 1<<63 | 0x0000000000000abc, true},
		{"largest exponent below the mask", 0x7fe0000000000000, true},
		{"max float", math.Float64bits(math.MaxFloat64), true},
		{"negative max float", math.Float64bits(-math.MaxFloat64), true},
		{"+Inf", 0x7ff0000000000000, false},
		{"-Inf", 0xfff0000000000000, false},
		{"quiet NaN", 0x7ff8000000000000, false},
		{"quiet NaN with payload", 0x7ff8000000beef00, false},
		{"signalling NaN", 0x7ff0000000000001, false},
		{"signalling NaN, full payload", 0x7ff7ffffffffffff, false},
		{"negative quiet NaN", 0xfff8000000000001, false},
		{"negative signalling NaN", 0xfff0000000000abc, false},
	} {
		x := math.Float64frombits(c.bits)
		if want := !math.IsNaN(x) && !math.IsInf(x, 0); want != c.finite {
			t.Fatalf("%s: table says finite=%v, math says %v", c.name, c.finite, want)
		}
		for n := 1; n <= maxN; n++ {
			for off := 0; off < 8; off++ {
				for pos := 0; pos < n; pos++ {
					v := make([]float64, n)
					for j := range v {
						// Neighbours whose carries must not leak into the
						// verdict: huge, tiny, negative.
						v[j] = []float64{0.5, -2, 3e300, -math.MaxFloat64}[j%4]
					}
					v[pos] = x
					at := fmt.Sprintf("%s at %d of %d, offset %d", c.name, pos, n, off)
					checkFrameVec(t, at, v, off, c.finite)
				}
			}
		}
	}
	for off := 0; off < 8; off++ {
		checkFrameVec(t, fmt.Sprintf("empty vector, offset %d", off), nil, off, true)
	}
	if !framing.ReadVec(nil, nil) {
		t.Error("empty vector reported non-finite")
	}

	// The handler: a journaled streamed round. d = 7 puts a four-wide turn
	// and a tail in the vector a frame carries.
	const d = 7
	var journal bytes.Buffer
	coord := &Coordinator{N: 5, Cfg: testConfig(), Stream: hfl.MeanStream{}}
	round := coord.newRoundLocked(&hfl.RoundSpec{T: 1, Theta: make([]float64, d), ValGrad: make([]float64, d),
		Active: []int{0, 1, 2, 3, 4}})
	openTestRound(coord, round)
	coord.wal = newWAL(&journal, nil)
	refused := func(name string, h http.Handler, path string, frame []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: encoding: %v", name, err)
		}
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(frame))
		req.Header.Set("Content-Type", contentTypeBinary)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		var er errorReply
		_ = json.Unmarshal(w.Body.Bytes(), &er)
		if w.Code != http.StatusUnprocessableEntity || er.Code != CodeNonFinite {
			t.Errorf("%s: status %d code %q, want 422 %s", name, w.Code, er.Code, CodeNonFinite)
		}
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for pos := 0; pos < d; pos++ {
			delta := make([]float64, d)
			delta[pos] = x
			frame, err := CodecV2.EncodeUpdate(1, 0, delta)
			refused(fmt.Sprintf("root update, %v at %d", x, pos), coord.Handler(), "/v1/update", frame, err)
		}
	}
	coord.mu.Lock()
	if round.got != 0 || round.have[0] || round.mode.(*streamedMode).fold.(interface{ Pending() int }).Pending() != 0 {
		t.Error("a non-finite frame reached the round's fold")
	}
	coord.mu.Unlock()
	if journal.Len() != 0 {
		t.Errorf("non-finite frames left %d bytes in the journal", journal.Len())
	}
}

// openTestRound installs a hand-built open round, as the handler tests in
// adversary_test.go do.
func openTestRound(c *Coordinator, r *openRound) {
	c.mu.Lock()
	c.initLocked()
	c.round = r
	c.mu.Unlock()
}

func pollRound(c *Coordinator, query string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	c.handleRound(w, httptest.NewRequest(http.MethodGet, "/v1/round?"+query, nil))
	return w
}

// TestRoundFrameEncodedOnce: every theta poll of a round — with the ?c=2
// the repository benchmark's driver still sends, or without it — is
// answered from one shared frame, and what reaches the wire is byte for
// byte what encodeRoundFrame produces for that poll — without a deadline,
// with one (each poll's own remaining time patched into its own header
// copy), and with the async extension. A header-only poll still encodes its
// own reply.
func TestRoundFrameEncodedOnce(t *testing.T) {
	rng := tensor.NewRNG(4)
	theta, valGrad := rng.NormalVec(37, 0, 1), rng.NormalVec(37, 0, 1)
	theta[3], theta[4] = math.Copysign(0, -1), 5e-324
	for _, tc := range []struct {
		name     string
		deadline time.Duration
		async    *hfl.AsyncConfig
	}{
		{name: "no deadline"},
		{name: "deadline", deadline: time.Hour},
		{name: "async", async: &hfl.AsyncConfig{Quorum: 5, MaxStaleness: 2}},
		{name: "async with deadline", deadline: time.Hour, async: &hfl.AsyncConfig{Quorum: 3, MaxStaleness: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := &Coordinator{N: 8, Cfg: testConfig(), Async: tc.async}
			r := c.newRoundLocked(&hfl.RoundSpec{T: 7, LR: 0.125, Theta: theta, ValGrad: valGrad, Active: []int{1, 4, 6}})
			if tc.deadline > 0 {
				r.deadline = time.Now().Add(tc.deadline)
			}
			openTestRound(c, r)
			quorum, maxStale := 0, 0
			if tc.async != nil {
				quorum, maxStale = tc.async.Quorum, tc.async.MaxStaleness
			}
			var shared []byte
			for poll, i := range []int{1, 6, 4, 1} {
				query := fmt.Sprintf("t=7&i=%d", i)
				if poll%2 == 0 {
					query += "&c=2" // ignored, not rejected
				}
				w := pollRound(c, query)
				if w.Code != http.StatusOK || w.Header().Get("Content-Type") != contentTypeBinary {
					t.Fatalf("poll %d: status %d, content type %q", poll, w.Code, w.Header().Get("Content-Type"))
				}
				got := w.Body.Bytes()
				dec, err := decodeRoundFrame(got)
				if err != nil {
					t.Fatalf("poll %d: %v", poll, err)
				}
				if (dec.DeadlineMS > 0) != (tc.deadline > 0) || dec.DeadlineMS > tc.deadline.Milliseconds() {
					t.Fatalf("poll %d: deadline_ms %d for a %v deadline", poll, dec.DeadlineMS, tc.deadline)
				}
				want := encodeRoundFrame(7, 0.125, dec.DeadlineMS, theta, quorum, maxStale)
				if !bytes.Equal(got, want) {
					t.Fatalf("poll %d: reply differs from encodeRoundFrame's bytes", poll)
				}
				c.mu.Lock()
				frame := c.round.bcast
				c.mu.Unlock()
				if poll == 0 {
					shared = frame
				} else if &frame[0] != &shared[0] {
					t.Fatalf("poll %d re-encoded the broadcast", poll)
				}
				if zero := encodeRoundFrame(7, 0.125, 0, theta, quorum, maxStale); !bytes.Equal(frame, zero) {
					t.Fatalf("poll %d modified the shared frame", poll)
				}
			}

			// An excluded participant still gets the JSON header.
			if w := pollRound(c, "t=7&i=2&c=2"); w.Header().Get("Content-Type") != contentTypeJSON ||
				!bytes.Contains(w.Body.Bytes(), []byte(`"excluded":true`)) {
				t.Errorf("excluded poll: %q %s", w.Header().Get("Content-Type"), w.Body)
			}
			// The retired ?vg=1 is ignored: a theta poll that sends it gets
			// the shared broadcast.
			if got := pollRound(c, "t=7&i=4&c=2&vg=1").Body.Bytes(); len(got) < roundHdrLen ||
				!bytes.Equal(got[roundHdrLen:], shared[roundHdrLen:]) {
				t.Errorf("vg=1 poll: reply is not the shared broadcast")
			}
			// A header-only poll carries no vectors and stays JSON.
			if w := pollRound(c, "t=7&i=4&c=2&h=1"); w.Header().Get("Content-Type") != contentTypeJSON ||
				bytes.Contains(w.Body.Bytes(), []byte(`"theta"`)) {
				t.Errorf("header-only poll: %q %s", w.Header().Get("Content-Type"), w.Body)
			}
		})
	}
}

// TestBenchDriverRequestShapes pins the request shapes bench/driver.go sends
// — the repository benchmark is frozen between PRs and still speaks the
// negotiation-era dialect — and the reply shapes it parses.
func TestBenchDriverRequestShapes(t *testing.T) {
	theta := tensor.NewRNG(5).NormalVec(11, 0, 1)
	c := &Coordinator{N: 8, Cfg: testConfig()}
	h := c.Handler()
	do := func(method, target, contentType string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, target, bytes.NewReader(body))
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}
	// The driver's poll parser: these field names are the contract.
	marker := func(w *httptest.ResponseRecorder) (rr struct {
		State    string `json:"state"`
		T        int    `json:"t"`
		Excluded bool   `json:"excluded"`
	}) {
		t.Helper()
		if w.Code != http.StatusOK || w.Header().Get("Content-Type") != contentTypeJSON {
			t.Fatalf("marker reply: status %d, content type %q", w.Code, w.Header().Get("Content-Type"))
		}
		if err := json.Unmarshal(w.Body.Bytes(), &rr); err != nil {
			t.Fatalf("marker reply %s: %v", w.Body, err)
		}
		return rr
	}

	// A join that still offers a codec: the unknown field is ignored.
	join := `{"protocol":"` + Protocol + `","index":4,"accept":["` + ProtocolV2 + `"]}`
	if w := do("POST", "/v1/join", contentTypeJSON, []byte(join)); w.Code != http.StatusOK {
		t.Fatalf("join with accept: status %d %s", w.Code, w.Body)
	}

	// An async round with participant 4 scheduled to lag and 6 on time.
	r := newRound(&hfl.RoundSpec{T: 3, LR: 0.25, Theta: theta}, []int{4, 6}, &asyncMode{deltas: make([][]float64, 2),
		sched: &hfl.AsyncSchedule{Fresh: []int{4, 6}, Lag: map[int]int{4: 2, 6: 0}}})
	openTestRound(c, r)
	w := do("GET", "/v1/round?t=3&i=4&c=2", "", nil)
	if w.Code != http.StatusOK || w.Header().Get("Content-Type") != CodecV2.ContentType() ||
		!bytes.Equal(w.Body.Bytes(), encodeRoundFrame(3, 0.25, 0, theta, 0, 0)) {
		t.Fatalf("c=2 poll: status %d, content type %q, or not encodeRoundFrame's bytes", w.Code, w.Header().Get("Content-Type"))
	}
	if rr := marker(do("GET", "/v1/round?t=2&i=5&c=2", "", nil)); rr.State != StateOpen || rr.T != 3 || !rr.Excluded {
		t.Errorf("excluded poll: %+v", rr)
	}
	for i, want := range map[int]int{4: http.StatusAccepted, 6: http.StatusOK} {
		if w := do("POST", "/v1/update", CodecV2.ContentType(), updateFrame(t, 3, i, theta)); w.Code != want {
			t.Errorf("update from %d: status %d, want %d: %s", i, w.Code, want, w.Body)
		}
	}

	// The pending marker needs a 10 s long-poll leg to observe live; pin the
	// bytes the handler writes for it instead.
	if b, _ := json.Marshal(roundReply{State: StatePending}); string(b) != `{"state":"pending"}` {
		t.Errorf("pending marker: %s", b)
	}
	c.mu.Lock()
	c.done = true
	c.mu.Unlock()
	if rr := marker(do("GET", "/v1/round?t=4&i=4&c=2", "", nil)); rr.State != StateDone {
		t.Errorf("done poll: %+v", rr)
	}
}

// TestRoundFrameConcurrentPolls: the shared frame is read by many handlers
// at once, each patching only its own header copy — run under -race.
func TestRoundFrameConcurrentPolls(t *testing.T) {
	theta := tensor.NewRNG(9).NormalVec(300, 0, 1)
	c := &Coordinator{N: 8, Cfg: testConfig()}
	r := c.newRoundLocked(&hfl.RoundSpec{T: 2, LR: 0.5, Theta: theta, Active: []int{0, 3, 5}})
	r.deadline = time.Now().Add(time.Hour)
	openTestRound(c, r)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 20; n++ {
				got := pollRound(c, fmt.Sprintf("t=2&i=%d&c=2", i)).Body.Bytes()
				dec, err := decodeRoundFrame(got)
				if err != nil {
					t.Errorf("participant %d: %v", i, err)
					return
				}
				if want := encodeRoundFrame(2, 0.5, dec.DeadlineMS, theta, 0, 0); !bytes.Equal(got, want) {
					t.Errorf("participant %d: reply differs from encodeRoundFrame's bytes", i)
					return
				}
			}
		}([]int{0, 3, 5}[g%3])
	}
	wg.Wait()
}

// TestRoundClosesOnLastArrival: an accepted update does not wake the round
// loop unless it completes the round, and the one that does must — whichever
// slot it fills, and however many idempotent retries and not-active posts
// came before it. Checked on a streamed (fold) and a buffered round.
func TestRoundClosesOnLastArrival(t *testing.T) {
	const p = 5
	active := []int{2, 5, 7}
	rng := tensor.NewRNG(12)
	deltas := map[int][]float64{}
	for _, i := range active {
		deltas[i] = rng.NormalVec(p, 0, 1)
	}
	valGrad := rng.NormalVec(p, 0, 1)
	for _, streamed := range []bool{true, false} {
		t.Run(fmt.Sprintf("streamed=%v", streamed), func(t *testing.T) {
			c := &Coordinator{N: 10, Cfg: testConfig()}
			spec := &hfl.RoundSpec{T: 1, LR: 0.1, Theta: make([]float64, p), Active: active}
			if streamed {
				c.Stream = hfl.MeanStream{}
				spec.ValGrad = valGrad
			}
			type out struct {
				res *hfl.RoundResult
				err error
			}
			done := make(chan out, 1)
			go func() {
				res, err := c.Round(context.Background(), spec)
				done <- out{res, err}
			}()
			if w := pollRound(c, "t=1&i=2"); w.Code != http.StatusOK { // blocks until the round is open
				t.Fatalf("poll: status %d", w.Code)
			}
			c.mu.Lock()
			wake := c.changed
			c.mu.Unlock()

			post := func(i int, d []float64) string {
				body, err := CodecV2.EncodeUpdate(1, i, d)
				if err != nil {
					t.Fatal(err)
				}
				req := httptest.NewRequest(http.MethodPost, "/v1/update", bytes.NewReader(body))
				req.Header.Set("Content-Type", contentTypeBinary)
				w := httptest.NewRecorder()
				c.handleUpdate(w, req)
				if w.Code != http.StatusOK {
					t.Fatalf("update from %d: status %d %s", i, w.Code, w.Body)
				}
				return w.Body.String()
			}
			if got := post(3, deltas[2]); !bytes.Contains([]byte(got), []byte("not-active")) {
				t.Fatalf("not-active post answered %s", got)
			}
			post(7, deltas[7]) // last slot first: parks behind its predecessors
			post(7, deltas[7]) // retry, acknowledged without a second commit
			post(5, deltas[5])
			post(9, deltas[5]) // not active
			post(5, deltas[5])
			c.mu.Lock()
			got, woke := c.round.got, c.changed != wake
			c.mu.Unlock()
			if got != 2 || woke {
				t.Fatalf("before the last arrival: %d committed (want 2), round loop woken: %v", got, woke)
			}
			select {
			case o := <-done:
				t.Fatalf("round closed early: %+v %v", o.res, o.err)
			default:
			}
			post(2, deltas[2]) // slot 0 arrives last and completes the round

			var o out
			select {
			case o = <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("round did not close on its last arrival")
			}
			if o.err != nil || o.res.Reported != nil {
				t.Fatalf("round result: reported %v, err %v", o.res.Reported, o.err)
			}
			if !streamed {
				for k, i := range active {
					if !sameVec(o.res.Deltas[k], deltas[i]) {
						t.Fatalf("buffered slot %d holds the wrong delta", k)
					}
				}
				return
			}
			ref := hfl.MeanStream{}.NewFold(p, len(active), valGrad)
			for k, i := range active {
				if err := ref.Add(k, deltas[i]); err != nil {
					t.Fatal(err)
				}
			}
			want, err := ref.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !sameVec(o.res.Agg, want.Sum) || !sameVec(o.res.Dots, want.Dots) {
				t.Fatal("streamed aggregate differs from the in-order fold")
			}
		})
	}
}

// benchRW is a reusable http.ResponseWriter, so the handler benchmarks
// count the coordinator's allocations and not a recorder's.
type benchRW struct {
	header http.Header
	status int
	body   []byte
}

func (w *benchRW) Header() http.Header  { return w.header }
func (w *benchRW) WriteHeader(code int) { w.status = code }
func (w *benchRW) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

func (w *benchRW) reset() {
	clear(w.header)
	w.status, w.body = 0, w.body[:0]
}

type benchBody struct{ bytes.Reader }

func (*benchBody) Close() error { return nil }

// Reference-cell shape for the handler benchmarks.
const (
	benchDim    = 2000
	benchCohort = 64
)

// ingestCell posts the reference cell's updates (64 binary frames of
// d=2000 per round) through Handler(), on request plumbing it allocates once:
// what the ingest benchmarks time and the allocation gate counts.
type ingestCell struct {
	c        *Coordinator
	h        http.Handler
	order    []int
	deltas   [][]float64
	bodies   [][]byte
	theta    []float64
	valGrad  []float64
	wantSum  []float64 // the round's mean and validation dots, term by term
	wantDots []float64
	r        *openRound

	rw   benchRW
	body benchBody
	req  http.Request
}

func newIngestCell(tb testing.TB, c *Coordinator) *ingestCell {
	rng := tensor.NewRNG(6)
	ic := &ingestCell{c: c, h: c.Handler(), order: make([]int, benchCohort),
		deltas: make([][]float64, benchCohort), bodies: make([][]byte, benchCohort),
		theta: make([]float64, benchDim), valGrad: rng.NormalVec(benchDim, 0, 1),
		wantSum: make([]float64, benchDim), wantDots: make([]float64, benchCohort)}
	for k := range ic.order {
		ic.order[k] = 1000*k + 7
		ic.deltas[k] = rng.NormalVec(benchDim, 0, 1e-3)
		for j, v := range ic.deltas[k] {
			ic.wantSum[j] += v
			ic.wantDots[k] += float64(ic.valGrad[j] * v)
		}
		ic.bodies[k] = append([]byte(nil), updateFrame(tb, 1, ic.order[k], ic.deltas[k])...)
	}
	for j := range ic.wantSum {
		ic.wantSum[j] *= 1 / float64(benchCohort)
	}
	ic.rw.header = http.Header{}
	ic.req = http.Request{Method: http.MethodPost, URL: &url.URL{Path: "/v1/update"},
		Header: http.Header{"Content-Type": {contentTypeBinary}}, Body: &ic.body}
	return ic
}

// open replaces the round with a fresh round 1 over the cell's cohort, as
// Round does it: the closed round's buffered deltas go back to the pool
// first (under ReleaseAfterObserve).
func (ic *ingestCell) open() {
	ic.c.mu.Lock()
	ic.c.initLocked()
	ic.c.reclaimLocked()
	ic.r = ic.c.newRoundLocked(&hfl.RoundSpec{T: 1, Theta: ic.theta, ValGrad: ic.valGrad, Active: ic.order})
	ic.c.round = ic.r
	ic.c.mu.Unlock()
}

// post submits slot k's update and returns the reply's status.
func (ic *ingestCell) post(k int) int {
	ic.body.Reset(ic.bodies[k])
	ic.req.ContentLength = int64(len(ic.bodies[k]))
	ic.rw.reset()
	ic.h.ServeHTTP(&ic.rw, &ic.req)
	return ic.rw.status
}

// bench times b.N posts, a fresh round every benchCohort of them, with
// check run (off the clock) on every completed round.
func (ic *ingestCell) bench(b *testing.B, check func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % benchCohort
		if k == 0 {
			b.StopTimer()
			if ic.r != nil {
				check()
			}
			ic.open()
			b.StartTimer()
		}
		if st := ic.post(k); st != http.StatusOK {
			b.Fatalf("update %d: status %d %s", i, st, ic.rw.body)
		}
	}
	b.StopTimer()
	if ic.r.got == benchCohort {
		check()
	}
}

// BenchmarkIngestUpdateV2 times POST /v1/update through Handler() on a
// streamed round of the reference cell (64 binary updates of d=2000 per
// round: decode, vet, fold, ack). Every completed round's fold is closed
// and checked against a term-by-term mean and dot product.
func BenchmarkIngestUpdateV2(b *testing.B) {
	ic := newIngestCell(b, &Coordinator{N: 100_000, Cfg: testConfig(), Stream: hfl.MeanStream{}})
	ic.bench(b, func() {
		fr, err := ic.r.mode.(*streamedMode).fold.Close()
		if err != nil {
			b.Fatal(err)
		}
		if ic.r.got != benchCohort || !sameVec(fr.Sum, ic.wantSum) || !sameVec(fr.Dots, ic.wantDots) {
			b.Fatalf("round folded %d updates; aggregate or dots differ from the reference", ic.r.got)
		}
	})
}

// journaledCell is the buffered-wal ingest: a buffered round (estimator and
// quarantine read raw deltas) journaling into memory, its deltas taken back
// as the next round opens.
func journaledCell(tb testing.TB) (*ingestCell, *bytes.Buffer) {
	cfg := testConfig()
	cfg.RetainDeltas = hfl.ReleaseAfterObserve
	ic := newIngestCell(tb, &Coordinator{N: 100_000, Cfg: cfg})
	journal := &bytes.Buffer{}
	ic.c.wal = newWAL(journal, nil)
	return ic, journal
}

// BenchmarkIngestUpdateJournaled times the same posts on the journaled
// buffered round: decode, vet, journal, retain, ack. Every completed round is
// checked: the deltas it holds are the posted ones, and its journal is, record
// for record, the framing of CodecV2.EncodeUpdate's bytes for them.
func BenchmarkIngestUpdateJournaled(b *testing.B) {
	ic, journal := journaledCell(b)
	var want []byte
	for _, body := range ic.bodies { // bodies are EncodeUpdate's bytes (updateFrame)
		want = le.AppendUint32(want, uint32(len(body)))
		want = le.AppendUint32(want, crc32.ChecksumIEEE(body))
		want = append(want, body...)
	}
	ic.bench(b, func() {
		for k, d := range ic.r.mode.(*bufferedMode).deltas {
			if !sameVec(d, ic.deltas[k]) {
				b.Fatalf("slot %d holds a different delta than was posted", k)
			}
		}
		if !bytes.Equal(journal.Bytes(), want) {
			b.Fatalf("journal of %d bytes differs from the framed EncodeUpdate bytes (%d)", journal.Len(), len(want))
		}
		journal.Reset()
	})
}

// BenchmarkRoundPollV2 times GET /v1/round?c=2 through Handler() for the
// members of an open reference-cell round: the 16 KB theta broadcast every
// cohort member downloads. The first and last replies are compared with
// encodeRoundFrame's bytes.
func BenchmarkRoundPollV2(b *testing.B) {
	theta := tensor.NewRNG(8).NormalVec(benchDim, 0, 1)
	order := make([]int, benchCohort)
	queries := make([]string, benchCohort)
	for k := range order {
		order[k] = 1000*k + 7
		queries[k] = fmt.Sprintf("t=3&i=%d&c=2", order[k])
	}
	c := &Coordinator{N: 100_000, Cfg: testConfig(), Stream: hfl.MeanStream{}}
	h := c.Handler()
	openTestRound(c, c.newRoundLocked(&hfl.RoundSpec{T: 3, LR: 0.05, Theta: theta, Active: order}))
	want := encodeRoundFrame(3, 0.05, 0, theta, 0, 0)

	rw := &benchRW{header: http.Header{}}
	u := &url.URL{Path: "/v1/round"}
	req := &http.Request{Method: http.MethodGet, URL: u, Header: http.Header{}, Body: http.NoBody}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.RawQuery = queries[i%benchCohort]
		rw.reset()
		h.ServeHTTP(rw, req)
		if len(rw.body) != len(want) || ((i == 0 || i == b.N-1) && !bytes.Equal(rw.body, want)) {
			b.Fatalf("poll %d: reply differs from encodeRoundFrame's bytes", i)
		}
	}
}
