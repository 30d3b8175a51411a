package fednet

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"digfl/internal/hfl"
	"digfl/internal/tensor"
)

// minAllocs is testing.AllocsPerRun's minimum over a few attempts, each
// preceded by prepare: a collection between two runs empties the pools, and
// one re-made 16 KB buffer must not fail a zero-allocation gate.
func minAllocs(runs int, prepare, f func()) float64 {
	least := math.Inf(1)
	for attempt := 0; attempt < 5; attempt++ {
		prepare()
		least = min(least, testing.AllocsPerRun(runs, f))
	}
	return least
}

// TestHandlerAllocs is the allocation gate of the ingest path, through
// Handler() on warm pools at the reference cell's shape: an update on a
// streamed round and an update on a journaled buffered round allocate
// nothing — the body, the decoded vector and the journal record are all
// pooled, the ack and both header values preformatted — and neither does the
// poll that downloads the broadcast, nor a warm /v1/score read of the 100k
// estimator-only cell; an excluded poll formats one reply.
func TestHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a quarter of its puts; make verify-wire runs the gate without it")
	}
	const runs = benchCohort - 2 // AllocsPerRun calls f once more to warm up
	streamed := newIngestCell(t, &Coordinator{N: 100_000, Cfg: testConfig(), Stream: hfl.MeanStream{}})
	journaled, journal := journaledCell(t)
	for _, tc := range []struct {
		name string
		ic   *ingestCell
	}{{"streamed update", streamed}, {"journaled buffered update", journaled}} {
		ic := tc.ic
		// One full round first: it fills the pools with a round's worth of
		// vectors (the buffered round's come back when the next opens).
		ic.open()
		for k := range ic.order {
			ic.post(k)
		}
		k := 0
		got := minAllocs(runs, func() { ic.open(); journal.Reset(); k = 0 }, func() {
			if st := ic.post(k); st != http.StatusOK {
				t.Fatalf("%s %d: status %d %s", tc.name, k, st, ic.rw.body)
			}
			k++
		})
		if got != 0 {
			t.Errorf("%s: %v allocations, want 0", tc.name, got)
		}
		if !bytes.Equal(ic.rw.body, ackAccepted) {
			t.Errorf("%s: ack %q", tc.name, ic.rw.body)
		}
	}

	ic := streamed
	ic.open()
	poll := func(query string) float64 {
		req := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/v1/round", RawQuery: query},
			Header: http.Header{}, Body: http.NoBody}
		return minAllocs(50, func() {}, func() {
			ic.rw.reset()
			ic.h.ServeHTTP(&ic.rw, req)
		})
	}
	if got := poll("t=1&i=7&c=2"); got != 0 || ic.rw.header.Get("Content-Type") != contentTypeBinary {
		t.Errorf("broadcast poll: %v allocations (want 0), content type %q", got, ic.rw.header.Get("Content-Type"))
	}
	if got := poll("t=1&i=8&c=2"); got > 1 || !bytes.Contains(ic.rw.body, []byte(`"excluded":true`)) {
		t.Errorf("excluded poll: %v allocations (want at most 1), reply %q", got, ic.rw.body)
	}

	// A warm /v1/score read: the totals snapshot and the reply are the
	// coordinator's reused buffers.
	sc := newScoreCell()
	if got := minAllocs(5, func() {}, sc.read); got != 0 || sc.rw.status != http.StatusOK {
		t.Errorf("warm /v1/score: %v allocations (want 0), status %d", got, sc.rw.status)
	}
	if want := encoded(t, sc.want); string(sc.rw.body) != want {
		t.Errorf("warm /v1/score: %d reply bytes differ from json.Encoder's %d", len(sc.rw.body), len(want))
	}
}

// TestStreamedRoundRecyclesEveryDelta: a streamed round returns every
// decoded delta to the tensor pool whatever the arrival order — the ones the
// fold parked behind a missing predecessor and the ones it staged for a
// four-wide pass among them, and a straggler's successors, parked until
// Close — so a round in reverse or shuffled order, or with slot 0 missing,
// allocates what an in-order round does when it follows a round of its own
// kind, give or take the slice that indexes what is parked (≈ 2–5 KiB). A
// delta that missed the pool in the first round costs the second 16 KiB;
// when parked deltas were never recycled, ≈ 1 MiB. Each round is closed and
// its mean and dots checked against a term-by-term reference.
func TestStreamedRoundRecyclesEveryDelta(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a quarter of its puts")
	}
	const slack = 8 << 10 // half a delta
	ic := newIngestCell(t, &Coordinator{N: 100_000, Cfg: testConfig(), Stream: hfl.MeanStream{}})
	inOrder, reverse := make([]int, benchCohort), make([]int, benchCohort)
	for k := range inOrder {
		inOrder[k], reverse[benchCohort-1-k] = k, k
	}
	round := func(order []int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ic.open()
		for _, k := range order {
			if st := ic.post(k); st != http.StatusOK {
				t.Fatalf("update %d: status %d %s", k, st, ic.rw.body)
			}
		}
		ic.c.mu.Lock()
		res, n, err := ic.r.mode.close(ic.r)
		ic.c.mu.Unlock()
		runtime.ReadMemStats(&after)
		present := slices.Clone(order)
		slices.Sort(present)
		wantSum, wantDots := make([]float64, benchDim), make([]float64, len(present))
		for j, k := range present {
			for i, v := range ic.deltas[k] {
				wantSum[i] += v
				wantDots[j] += float64(ic.valGrad[i] * v)
			}
		}
		for i := range wantSum {
			wantSum[i] *= 1 / float64(len(present))
		}
		if err != nil || n != len(order) || !sameVec(res.Agg, wantSum) || !sameVec(res.Dots, wantDots) {
			t.Fatalf("order %v: folded %d updates (%v); aggregate or dots differ from the reference", order, n, err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	// No collection may empty the pools between the rounds compared. Nor may
	// a round's puts and the next round's gets land on different Ps: each P
	// keeps one put per pool in a private slot that no other P's Get reaches,
	// so a test goroutine that migrated between the rounds missed one vector
	// and one record buffer (≈ 32 KiB, beyond the slack) in about one run of
	// a few hundred. One P holds every put within reach.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	round(reverse) // fills the pools with a cohort's worth of vectors
	round(inOrder)
	base := round(inOrder)
	for name, order := range map[string][]int{
		"reverse":   reverse,
		"shuffled":  tensor.NewRNG(9).Perm(benchCohort),
		"straggler": inOrder[1:],
	} {
		round(order)
		if got := round(order); got > base+slack {
			t.Errorf("%s round allocated %d bytes after one like it, an in-order round %d: deltas missed the pool", name, got, base)
		}
	}
}

// encoded is what json.Encoder — the writer every other JSON reply goes
// through — produces for v.
func encoded(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestReplyBytes pins the replies that are formatted by hand — the three
// update acknowledgements and the excluded poll — to json.Encoder's bytes
// for the same structs, in the variables and as the handler serves them.
func TestReplyBytes(t *testing.T) {
	for _, tc := range []struct {
		got  []byte
		want any
	}{
		{ackAccepted, updateReply{Accepted: true}},
		{ackBuffered, updateReply{Accepted: true, Reason: "buffered"}},
		{ackNotActive, updateReply{Reason: "not-active"}},
	} {
		if want := encoded(t, tc.want); string(tc.got) != want {
			t.Errorf("preformatted ack %q, json.Encoder writes %q", tc.got, want)
		}
	}
	for _, round := range []int{1, 9, 10, 123456, math.MaxInt32} {
		w := httptest.NewRecorder()
		writeExcluded(w, round)
		if want := encoded(t, roundReply{State: StateOpen, T: round, Excluded: true}); w.Body.String() != want ||
			w.Code != http.StatusOK || w.Header().Get("Content-Type") != contentTypeJSON {
			t.Errorf("excluded reply for round %d: %d %q %q, want %q", round, w.Code, w.Header().Get("Content-Type"), w.Body, want)
		}
	}

	// Served: an async round with participant 4 lagged and 6 on time.
	theta := tensor.NewRNG(5).NormalVec(11, 0, 1)
	c := &Coordinator{N: 8, Cfg: testConfig()}
	h := c.Handler()
	openTestRound(c, newRound(&hfl.RoundSpec{T: 3, LR: 0.25, Theta: theta}, []int{4, 6}, &asyncMode{deltas: make([][]float64, 2),
		sched: &hfl.AsyncSchedule{Fresh: []int{4, 6}, Lag: map[int]int{4: 2, 6: 0}}}))
	serve := func(method, target string, body []byte) *httptest.ResponseRecorder {
		return serveOnce(h, method, target, contentTypeBinary, body)
	}
	for _, tc := range []struct {
		index, status int
		want          any
	}{
		{4, http.StatusAccepted, updateReply{Accepted: true, Reason: "buffered"}},
		{6, http.StatusOK, updateReply{Accepted: true}},
		{6, http.StatusOK, updateReply{Accepted: true}}, // the idempotent retry
		{5, http.StatusOK, updateReply{Reason: "not-active"}},
	} {
		w := serve("POST", "/v1/update", updateFrame(t, 3, tc.index, theta))
		if w.Code != tc.status || w.Body.String() != encoded(t, tc.want) || w.Header().Get("Content-Type") != contentTypeJSON {
			t.Errorf("update from %d: %d %q %q, want %d %q", tc.index, w.Code, w.Header().Get("Content-Type"),
				w.Body, tc.status, encoded(t, tc.want))
		}
	}
	if w := serve("GET", "/v1/round?t=2&i=5", nil); w.Body.String() != encoded(t, roundReply{State: StateOpen, T: 3, Excluded: true}) {
		t.Errorf("excluded poll: %q", w.Body)
	}
}

// TestRoundQueryParsing: the poll handler reads its query off the raw string
// and must read it as url.Values.Get does — first value wins, a bare key is
// empty, empty pairs are skipped — and anything escaped still goes through
// the general parser: ?t=%33 is round 3, as it always was.
func TestRoundQueryParsing(t *testing.T) {
	for _, raw := range []string{"", "t=3", "t=3&i=4&c=2", "i=4&t=3", "t=1&t=2", "&&t=5&", "t", "t=", "t=&t=4",
		"=x&t=1", "t=a=b", "tt=9&t=1", "vg=1&h=1&t=12&i=0", "i=-1&t=2"} {
		want, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", raw, err)
		}
		for _, key := range []string{"t", "i", "h", "vg", "c"} {
			if got := queryGet(&url.URL{RawQuery: raw}, key); got != want.Get(key) {
				t.Errorf("queryGet(%q, %q) = %q, url.Values.Get gives %q", raw, key, got, want.Get(key))
			}
		}
	}

	theta := tensor.NewRNG(5).NormalVec(11, 0, 1)
	c := &Coordinator{N: 8, Cfg: testConfig()}
	openTestRound(c, c.newRoundLocked(&hfl.RoundSpec{T: 3, LR: 0.25, Theta: theta, Active: []int{4, 6}}))
	frame := encodeRoundFrame(3, 0.25, 0, theta, 0, 0)
	for query, want := range map[string]int{
		"t=%33&i=%34":    http.StatusOK, // escaped digits
		"t=3&i=4&x=a+b":  http.StatusOK, // an escape elsewhere in the query
		"t=3;i=4":        http.StatusBadRequest,
		"t=+3":           http.StatusBadRequest, // '+' is a space: " 3" is no number
		"t=%zz":          http.StatusBadRequest,
		"t=3&i=%34&i=99": http.StatusOK, // first value wins on the parsed path too
	} {
		w := pollRound(c, query)
		if w.Code != want || (want == http.StatusOK && !bytes.Equal(w.Body.Bytes(), frame)) {
			t.Errorf("poll ?%s: status %d, want %d (and the round frame)", query, w.Code, want)
		}
	}
	if w := pollRound(c, "t=%33&i=%34&h=%31"); w.Header().Get("Content-Type") != contentTypeJSON {
		t.Errorf("escaped header-only poll: content type %q %s", w.Header().Get("Content-Type"), w.Body)
	}
}

// TestInstanceHeaderAcrossRecover: every reply names the incarnation, read
// without the coordinator's lock. A fresh coordinator says 1; once Recover
// has replayed a journal of incarnation n the very next reply says n+1, and
// a reply racing the Recover says one or the other, never going back.
func TestInstanceHeaderAcrossRecover(t *testing.T) {
	var journal bytes.Buffer
	wl := newWAL(&journal, nil)
	if err := wl.appendJSON(walRecord{Kind: walKindRunOpen, Protocol: WALProtocol, Instance: 4,
		N: 8, Epochs: testEpochs, Params: 11}); err != nil {
		t.Fatal(err)
	}
	c := &Coordinator{N: 8, Cfg: testConfig()}
	h := c.Handler()
	instance := func() string {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/score", nil))
		if v := w.Header().Values(instanceHeader); len(v) == 1 {
			return v[0]
		}
		return "header missing or repeated"
	}
	if got := instance(); got != "1" {
		t.Fatalf("fresh coordinator: instance %q, want 1", got)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := "1"
			for {
				select {
				case <-stop:
					return
				default:
				}
				got := instance()
				if got != "1" && got != "5" || last == "5" && got != "5" {
					t.Errorf("racing reply: instance %q after %q", got, last)
					return
				}
				last = got
			}
		}()
	}
	if _, err := c.Recover(bytes.NewReader(journal.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := instance(); got != "5" {
		t.Errorf("first reply after Recover: instance %q, want 5", got)
	}
	close(stop)
	wg.Wait()
	// The recovering coordinator refuses round traffic, under the new number.
	w := pollRound(c, "t=1")
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("poll while recovering: status %d", w.Code)
	}
}
