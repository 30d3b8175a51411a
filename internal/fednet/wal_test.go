package fednet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"digfl/internal/core"
	"digfl/internal/dataset"
	"digfl/internal/framing"
	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/sampling"
)

// tearAtBinary journals cleanly until the target-th update-frame record,
// which it tears in half — the canonical mid-write crash artifact —
// before taking the front down and failing the append.
type tearAtBinary struct {
	mu     sync.Mutex
	buf    *bytes.Buffer
	left   int
	onTear func()
}

func (w *tearAtBinary) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.left > 0 && len(p) > framing.HdrLen+4 && [4]byte(p[framing.HdrLen:]) == magicUpdate {
		w.left--
		if w.left == 0 {
			n, _ := w.buf.Write(p[:len(p)/2])
			w.onTear()
			return n, errors.New("wal test: injected crash")
		}
	}
	return w.buf.Write(p)
}

// loopbackThroughCrashes serves the participants of parts against successive
// incarnations of a journaled coordinator behind front: whenever Run fails
// (the journal writer tore a record and took the front down), the harness
// recovers a fresh coordinator from the journal's clean prefix, until a Run
// completes. It requires exactly wantRestarts crashes and returns the result
// with the incarnation that produced it.
func loopbackThroughCrashes(t *testing.T, model nn.Model, parts []dataset.Dataset, journal *bytes.Buffer,
	front *Front, wantRestarts int, newCoord func() *Coordinator) (*hfl.Result, *Coordinator) {
	t.Helper()
	return loopbackThroughCrashesWith(t, model, parts, journal, front, wantRestarts, newCoord, nil)
}

// loopbackThroughCrashesWith is loopbackThroughCrashes with the participants
// attacker names (nil: none) posting flipTamper'd updates.
func loopbackThroughCrashesWith(t *testing.T, model nn.Model, parts []dataset.Dataset, journal *bytes.Buffer,
	front *Front, wantRestarts int, newCoord func() *Coordinator, attacker func(i int) bool) (*hfl.Result, *Coordinator) {
	t.Helper()
	coord := newCoord()
	restarts := 0
	res, perrs, err := Chaos{
		Front: front, Journal: journal,
		Next: func(n int, runErr error) (*Coordinator, error) {
			restarts = n
			if n > wantRestarts+1 {
				return nil, runErr
			}
			coord = newCoord()
			return coord, nil
		},
	}.Loopback(context.Background(), coord, func(i int) *Participant {
		p := &Participant{
			Index: i, Model: model, Data: parts[i],
			Retries: 400, Base: time.Millisecond, Cap: 20 * time.Millisecond,
		}
		if attacker != nil && attacker(i) {
			p.Tamper = flipTamper
		}
		return p
	})
	if err != nil {
		t.Fatalf("coordinator incarnation %d: %v", restarts, err)
	}
	for i, perr := range perrs {
		if perr != nil {
			t.Fatalf("participant %d: %v", i, perr)
		}
	}
	if restarts != wantRestarts {
		t.Errorf("expected exactly %d injected crashes, saw %d restarts", wantRestarts, restarts)
	}
	return res, coord
}

// TestStreamedWALMidRoundRecovery kills a journaled fold-mode coordinator
// in the middle of round 2 — after some updates were folded on arrival and
// their raw deltas exist only in the journal — and recovers it. The graft
// must re-fold the committed updates in slot order, so the finished run is
// bit-identical to the uninterrupted in-process streamed trainer. This is
// the one recovery path the buffered chaos harness cannot reach: a fold
// releases each delta immediately, so only the journal can rebuild the
// partial round.
func TestStreamedWALMidRoundRecovery(t *testing.T) {
	streamedCrashRecovery(t, testN, nil, false)
}

// TestSampledStreamedWALRecoveryTotalsOnly is the same kill on the
// large-population configuration: a sampled cohort and a TotalsOnly
// estimator. Recover reinstalls a snapshot that carries no per-epoch rows,
// and the estimator's observation scratch restarts clean, so the recovered
// φ totals are those of the uninterrupted run.
func TestSampledStreamedWALRecoveryTotalsOnly(t *testing.T) {
	streamedCrashRecovery(t, streamN, sampling.MustNew(sampling.Config{Seed: 11, Size: 4}), true)
}

// streamedCrashRecovery runs n participants against a journaled streamed
// coordinator (sampled when smp is set — a sampler holds no mutable state,
// so every incarnation and the reference share it), tears the journal at
// the second update of round 2, recovers, and checks the finished run
// against the in-process streamed trainer.
func streamedCrashRecovery(t *testing.T, n int, smp *sampling.Sampler, totalsOnly bool) {
	const seed = 5
	cohort := n
	if smp != nil {
		cohort = smp.Size()
	}
	want, wantAttr := localStreamRun(t, seed, n, smp)

	model, parts, val := problemN(seed, n)
	journal := &bytes.Buffer{}
	front := &Front{}
	// Round 1 journals one update frame per cohort member; tearing the
	// second frame of round 2 leaves a round with some committed updates
	// and some missing.
	writer := &tearAtBinary{buf: journal, left: cohort + 2, onTear: front.Kill}

	newCoord := func() *Coordinator {
		est := core.NewHFLEstimator(n, model.NumParams(), core.ResourceSaving, nil)
		est.TotalsOnly = totalsOnly
		cfg := testConfig()
		cfg.Sample = smp
		return &Coordinator{
			N: n, Model: model, Val: val, Cfg: cfg,
			Estimator: est,
			Stream:    hfl.MeanStream{},
			Journal:   writer,
		}
	}

	res, coord := loopbackThroughCrashes(t, model, parts, journal, front, 1, newCoord)
	est := coord.Estimator
	checkSameRun(t, "streamed crash-recovery vs in-process", res, want, est.Attribution(), wantAttr)
	if totalsOnly {
		// The journal's cost follows the cohort, not the population: a close
		// frame is the model, one curve point and the cohort's (index, φ)
		// pairs, at every epoch, before and after the crash.
		size := framing.HdrLen + closeSize(closeEst|closeTotalsOnly, model.NumParams(), 1, n, cohort, 0, 0)
		for j, rec := range closeFrames(journal.Bytes())[1:] {
			if len(rec) != size {
				t.Errorf("close frame of epoch %d is %d bytes, want %d", j+2, len(rec), size)
			}
		}
	}
}

// buildTestJournal assembles a minimal valid journal — run_open, an
// epoch_open for round 1, and one committed binary update frame — and
// returns it with the byte offset where the final record starts.
func buildTestJournal(tb testing.TB) (journal []byte, lastRecOff int, delta []float64) {
	tb.Helper()
	var buf bytes.Buffer
	wl := newWAL(&buf, nil)
	if err := wl.appendJSON(walRecord{Kind: walKindRunOpen, Protocol: WALProtocol,
		Instance: 1, N: 3, Epochs: 2, Params: 4}); err != nil {
		tb.Fatalf("run_open: %v", err)
	}
	if err := wl.appendJSON(walRecord{Kind: walKindEpochOpen, T: 1}); err != nil {
		tb.Fatalf("epoch_open: %v", err)
	}
	lastRecOff = buf.Len()
	delta = []float64{0.25, -1, 2, 0.5}
	frame, err := CodecV2.EncodeUpdate(1, 0, delta)
	if err != nil {
		tb.Fatalf("encoding update: %v", err)
	}
	if err := wl.Append(frame); err != nil {
		tb.Fatalf("appending update: %v", err)
	}
	return buf.Bytes(), lastRecOff, delta
}

// TestWALTornTail pins the replay contract: a journal whose final record is
// torn at any byte — the artifact of a crash mid-Write — replays cleanly up
// to the tear and reports the clean-prefix length, while a corrupted
// interior byte (payload or checksum) fails the whole replay.
func TestWALTornTail(t *testing.T) {
	journal, lastRecOff, delta := buildTestJournal(t)

	rep, err := replayWAL(bytes.NewReader(journal))
	if err != nil {
		t.Fatalf("intact journal: %v", err)
	}
	if rep.consumed != int64(len(journal)) || rep.records != 3 {
		t.Errorf("intact journal: consumed %d bytes, %d records; want %d, 3", rep.consumed, rep.records, len(journal))
	}
	if rep.openT != 1 || !sameVec(rep.updates[0], delta) {
		t.Errorf("intact journal: open round %d, update %v; want 1, %v", rep.openT, rep.updates[0], delta)
	}

	// Every possible tear point inside the final record — mid-header and
	// mid-payload — must replay as the two-record clean prefix.
	for cut := lastRecOff; cut < len(journal); cut++ {
		rep, err := replayWAL(bytes.NewReader(journal[:cut]))
		if err != nil {
			t.Fatalf("tear at byte %d: %v", cut, err)
		}
		if rep.consumed != int64(lastRecOff) || rep.records != 2 {
			t.Errorf("tear at byte %d: consumed %d bytes, %d records; want %d, 2",
				cut, rep.consumed, rep.records, lastRecOff)
		}
		if len(rep.updates) != 0 {
			t.Errorf("tear at byte %d: torn update replayed", cut)
		}
	}

	// Corruption on an interior record is not a crash artifact: flipping a
	// payload byte (CRC mismatch) or a stored-checksum byte must fail.
	for _, off := range []int{4, framing.HdrLen} {
		bad := bytes.Clone(journal)
		bad[off] ^= 0x40
		if _, err := replayWAL(bytes.NewReader(bad)); err == nil {
			t.Errorf("flipped byte %d: replay accepted a corrupt journal", off)
		}
	}
}

// TestRecoveringRetryAfterRecover pins the rejoin protocol's server side: a
// freshly recovered coordinator answers round polls with 503/"recovering"
// until its population re-joins, then runs to a bit-identical finish — and
// the barrier leaks no goroutines.
func TestRecoveringRetryAfterRecover(t *testing.T) {
	before := runtime.NumGoroutine()

	const seed = 7
	want, wantAttr := localRun(t, seed, testConfig())
	model, parts, val := problemN(seed, testN)

	// A journal holding only the first incarnation's run_open: the crash
	// landed before any round opened, so recovery restarts from scratch
	// but must still hold the rejoin barrier.
	journal := &bytes.Buffer{}
	wl := newWAL(journal, nil)
	if err := wl.appendJSON(walRecord{Kind: walKindRunOpen, Protocol: WALProtocol,
		Instance: 1, N: testN, Epochs: testEpochs, Params: model.NumParams()}); err != nil {
		t.Fatalf("run_open: %v", err)
	}

	est := core.NewHFLEstimator(testN, model.NumParams(), core.ResourceSaving, nil)
	coord := &Coordinator{
		N: testN, Model: model, Val: val, Cfg: testConfig(),
		Estimator: est, Journal: journal,
	}
	consumed, err := coord.Recover(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if consumed != int64(journal.Len()) {
		t.Fatalf("recover consumed %d of %d journal bytes", consumed, journal.Len())
	}

	srv := httptest.NewServer(coord.Handler())

	// A dedicated transport keeps this test's keep-alive connections out
	// of the process-wide pool, so the goroutine accounting below sees
	// only its own clients.
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}

	// Before any participant re-joins, a round poll must be refused with
	// the machine-readable recovering code — the client's cue to re-join
	// rather than give up.
	resp, err := client.Get(srv.URL + "/v1/round?t=1&i=0")
	if err != nil {
		t.Fatalf("round poll: %v", err)
	}
	var reply struct {
		Code string `json:"code"`
	}
	err = json.NewDecoder(resp.Body).Decode(&reply)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decoding 503 body: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || reply.Code != CodeRecovering {
		t.Fatalf("pre-rejoin round poll: status %d code %q; want %d %q",
			resp.StatusCode, reply.Code, http.StatusServiceUnavailable, CodeRecovering)
	}

	// The population (re-)joins and the run must complete exactly as if
	// the coordinator had never crashed.
	ctx := context.Background()
	perrs := make([]error, testN)
	var wg sync.WaitGroup
	for i := 0; i < testN; i++ {
		p := &Participant{
			Index: i, Model: model, Data: parts[i], BaseURL: srv.URL,
			Client:  client,
			Retries: 100, Base: time.Millisecond, Cap: 20 * time.Millisecond,
		}
		wg.Add(1)
		go func(i int, p *Participant) { defer wg.Done(); perrs[i] = p.Run(ctx) }(i, p)
	}
	res, err := coord.Run(ctx)
	if err != nil {
		t.Fatalf("recovered run: %v", err)
	}
	wg.Wait()
	for i, perr := range perrs {
		if perr != nil {
			t.Fatalf("participant %d: %v", i, perr)
		}
	}
	checkSameRun(t, "recovered-from-run_open vs local", res, want, est.Attribution(), wantAttr)

	// No handler, long-poll, or connection goroutine may outlive the run:
	// flush the keep-alive pool, stop the server, and require the count
	// to drain back to the baseline.
	tr.CloseIdleConnections()
	srv.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// FuzzWALReplay feeds arbitrary bytes to the journal decoder: whatever the
// framing, lengths, checksums, or payload contents, replay must either
// succeed or fail with an error — never panic — because a recovery reads
// whatever the dying process left on disk.
func FuzzWALReplay(f *testing.F) {
	journal, lastRecOff, _ := buildTestJournal(f)
	f.Add(journal)
	f.Add(journal[:lastRecOff])
	for _, cut := range []int{0, 1, framing.HdrLen - 1, framing.HdrLen, lastRecOff + 3, len(journal) - 1} {
		f.Add(journal[:cut])
	}
	corrupt := bytes.Clone(journal)
	corrupt[framing.HdrLen] ^= 0x40
	f.Add(corrupt)
	// Real /2 journals from every round mode — whole, and cut inside a round
	// (the async one mid-quorum, its carry-over buffer in the close frames).
	for _, mode := range []string{"buffered", "streamed", "async"} {
		j := journalOfRun(f, mode)
		if rep, err := replayWAL(bytes.NewReader(j)); err != nil || !rep.runClosed {
			f.Fatalf("%s journal does not replay to a closed run: %v", mode, err)
		}
		f.Add(j)
		f.Add(j[:len(j)*3/5])
	}
	// A journal holding a retired edge partial, whole and cut inside it.
	j := partialJournal(f)
	f.Add(j)
	f.Add(j[:len(j)-5])
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := replayWAL(bytes.NewReader(data))
		if err == nil && rep == nil {
			t.Fatal("replayWAL returned neither state nor error")
		}
	})
}
