package fednet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"digfl/internal/core"
	"digfl/internal/faults"
	"digfl/internal/hfl"
	"digfl/internal/obs"
)

// asyncPolicy is the test policy: 2-of-3 quorum, two-epoch staleness window.
func asyncPolicy() hfl.AsyncConfig {
	return hfl.AsyncConfig{Quorum: 2, MaxStaleness: 2}
}

// localAsyncRun is the in-process async reference: a streaming trainer fed
// by AsyncLocalSource with an attached estimator.
func localAsyncRun(t *testing.T, seed int64, fcfg faults.Config, sink obs.Sink) (*hfl.Result, *core.Attribution) {
	t.Helper()
	model, parts, val := problem(seed)
	cfg := testConfig()
	cfg.Participants = testN
	cfg.Faults = faults.MustNew(fcfg)
	est := core.NewHFLEstimator(testN, model.NumParams(), core.ResourceSaving, nil)
	tr := &hfl.Trainer{
		Model: model, Val: val, Cfg: cfg,
		Rounds: &AsyncLocalSource{
			Model: model, Parts: parts, Async: asyncPolicy(),
			Faults: faults.MustNew(fcfg), Sink: sink,
		},
		Stream:   hfl.MeanStream{},
		Observer: func(ep *hfl.Epoch) { est.Observe(ep) },
	}
	res, err := tr.RunContext(context.Background())
	if err != nil {
		t.Fatalf("local async run (seed %d): %v", seed, err)
	}
	return res, est.Attribution()
}

// TestAsyncLoopbackBitIdenticalToLocal is the async tentpole gate: a
// loopback federation under the async commit policy — coordinator-scheduled
// lags, 202-buffered arrivals, staleness-discounted folds — must reproduce
// the in-process AsyncLocalSource reference bit for bit: model, loss curve,
// and per-epoch + total φ, across seeds. The collector check proves the
// runs actually exercised stale folds rather than degenerating to all-fresh
// commits.
func TestAsyncLoopbackBitIdenticalToLocal(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			fcfg := faults.Config{Seed: seed, Straggler: 0.5}
			want, wantAttr := localAsyncRun(t, seed, fcfg, nil)

			model, parts, val := problem(seed)
			cfg := testConfig()
			cfg.Faults = faults.MustNew(fcfg)
			col := &obs.Collector{}
			cfg.Runtime.Sink = col
			est := core.NewHFLEstimator(testN, model.NumParams(), core.ResourceSaving, nil)
			ac := asyncPolicy()
			coord := &Coordinator{
				N: testN, Model: model, Val: val, Cfg: cfg,
				Estimator: est,
				Async:     &ac, // Async alone streams the run: no Stream needed
			}
			got, perrs, err := Loopback(context.Background(), coord, func(i int) *Participant {
				return &Participant{Index: i, Model: model, Data: parts[i], Retries: 2}
			})
			if err != nil {
				t.Fatalf("async loopback: %v", err)
			}
			for i, perr := range perrs {
				if perr != nil {
					t.Fatalf("participant %d: %v", i, perr)
				}
			}

			if !sameVec(want.Model.Params(), got.Model.Params()) {
				t.Error("final model differs from AsyncLocalSource reference")
			}
			if !sameVec(want.ValLossCurve, got.ValLossCurve) {
				t.Errorf("loss curve differs:\nlocal %v\nnet   %v", want.ValLossCurve, got.ValLossCurve)
			}
			attr := est.Attribution()
			if !sameVec(wantAttr.Totals, attr.Totals) {
				t.Errorf("φ totals differ:\nlocal %v\nnet   %v", wantAttr.Totals, attr.Totals)
			}
			if len(attr.PerEpoch) != len(wantAttr.PerEpoch) {
				t.Fatalf("per-epoch φ count %d, want %d", len(attr.PerEpoch), len(wantAttr.PerEpoch))
			}
			for tt := range wantAttr.PerEpoch {
				if !sameVec(wantAttr.PerEpoch[tt], attr.PerEpoch[tt]) {
					t.Errorf("φ at epoch %d differs", tt+1)
				}
			}

			snap := col.Snapshot()
			if snap.AsyncCommits != int64(testEpochs) {
				t.Errorf("async commits %d, want %d", snap.AsyncCommits, testEpochs)
			}
			if snap.StaleFolds == 0 {
				t.Error("run scheduled no stale folds — the lag schedule never fired")
			}
		})
	}
}

// TestAsyncQuorumOneMatchesAcrossK: the policy is well-formed for every K —
// a K=1 run and a K=3 run both complete deterministically and reach a
// finite loss (their trajectories differ; determinism is per-K).
func TestAsyncQuorumSweepDeterministic(t *testing.T) {
	for _, k := range []int{1, 3} {
		fcfg := faults.Config{Seed: 4, Straggler: 0.5}
		run := func() *hfl.Result {
			model, parts, val := problem(4)
			cfg := testConfig()
			cfg.Participants = testN
			cfg.Faults = faults.MustNew(fcfg)
			tr := &hfl.Trainer{
				Model: model, Val: val, Cfg: cfg,
				Rounds: &AsyncLocalSource{
					Model: model, Parts: parts,
					Async:  hfl.AsyncConfig{Quorum: k, MaxStaleness: 2},
					Faults: faults.MustNew(fcfg),
				},
				Stream: hfl.MeanStream{},
			}
			res, err := tr.RunContext(context.Background())
			if err != nil {
				t.Fatalf("K=%d: %v", k, err)
			}
			return res
		}
		a, b := run(), run()
		if !sameVec(a.Model.Params(), b.Model.Params()) {
			t.Errorf("K=%d: reruns differ", k)
		}
	}
}

// TestAsyncWireBufferedAndTooStale drives the coordinator's update endpoint
// directly: a physically late update within the staleness window is
// admitted with 202/"buffered" (idempotently), and one beyond the window is
// refused with 409/too_stale.
func TestAsyncWireBufferedAndTooStale(t *testing.T) {
	model, _, val := problem(1)
	cfg := testConfig()
	cfg.Epochs = 3
	ac := hfl.AsyncConfig{Quorum: 1, MaxStaleness: 1}
	coord := &Coordinator{
		N: 1, Model: model, Val: val, Cfg: cfg,
		Stream: hfl.MeanStream{},
		Async:  &ac,
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	post := func(tt int, delta []float64) (int, string) {
		resp, err := http.Post(srv.URL+"/v1/update", contentTypeBinary, bytes.NewReader(updateFrame(t, tt, 0, delta)))
		if err != nil {
			t.Fatalf("POST /v1/update: %v", err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}
	joinBody, _ := json.Marshal(joinRequest{Protocol: Protocol, Index: 0})
	resp, err := http.Post(srv.URL+"/v1/join", "application/json", bytes.NewReader(joinBody))
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	resp.Body.Close() // an unclosed body pins its connection's goroutines past the test
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: status %d", resp.StatusCode)
	}

	done := make(chan error, 1)
	go func() {
		_, err := coord.Run(context.Background())
		done <- err
	}()

	// getRound long-polls until round tt opens and returns its broadcast.
	getRound := func(tt int) roundReply {
		resp, err := http.Get(srv.URL + fmt.Sprintf("/v1/round?t=%d&i=0", tt))
		if err != nil {
			t.Fatalf("round %d poll: %v", tt, err)
		}
		defer resp.Body.Close()
		var rr roundReply
		if err := decodeReply(resp, &rr); err != nil {
			t.Fatalf("round %d decode: %v", tt, err)
		}
		if rr.State != StateOpen {
			t.Fatalf("round %d: state %q", tt, rr.State)
		}
		return rr
	}

	r1 := getRound(1)
	if r1.Quorum != 1 || r1.MaxStale != 1 {
		t.Fatalf("round broadcast quorum=%d maxStale=%d, want 1, 1", r1.Quorum, r1.MaxStale)
	}
	p := len(r1.Theta)
	delta := make([]float64, p)
	for j := range delta {
		delta[j] = 0.001
	}
	if code, body := post(1, delta); code != http.StatusOK {
		t.Fatalf("fresh round-1 update: %d %s", code, body)
	}

	getRound(2)
	// Round-1 update arriving during round 2: staleness 1 ≤ window 1 →
	// buffered, and the retry is idempotent.
	for k := 0; k < 2; k++ {
		code, body := post(1, delta)
		if code != http.StatusAccepted {
			t.Fatalf("late admissible update (attempt %d): %d %s", k, code, body)
		}
		var ur updateReply
		if err := json.Unmarshal([]byte(body), &ur); err != nil || !ur.Accepted || ur.Reason != "buffered" {
			t.Fatalf("late admissible update reply (attempt %d): %s", k, body)
		}
	}
	if code, body := post(2, delta); code != http.StatusOK {
		t.Fatalf("fresh round-2 update: %d %s", code, body)
	}

	getRound(3)
	// Round-1 update arriving during round 3: staleness 2 > window 1 →
	// typed too_stale conflict.
	code, body := post(1, delta)
	if code != http.StatusConflict || !bytes.Contains([]byte(body), []byte(CodeTooStale)) {
		t.Fatalf("beyond-window update: %d %s, want %d %s", code, body, http.StatusConflict, CodeTooStale)
	}
	if code, body := post(3, delta); code != http.StatusOK {
		t.Fatalf("fresh round-3 update: %d %s", code, body)
	}

	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// bufferedRule stands for an aggregation rule that needs the materialized
// round buffer (a coordinate-wise median, say); the refusal comes before it
// could be called.
type bufferedRule struct{}

func (bufferedRule) Aggregate(*hfl.Epoch) ([]float64, error) {
	panic("fednet: a buffered aggregation rule ran on an async round")
}

// TestAsyncRefusesBufferedRules: an async run folds on arrival, so it cannot
// serve aggregation rules that need the materialized round buffer. The
// Coordinator has no field to hand it one; the in-process async reference —
// a streaming trainer fed by AsyncLocalSource — refuses such a rule before
// its first round.
func TestAsyncRefusesBufferedRules(t *testing.T) {
	model, parts, val := problem(1)
	cfg := testConfig()
	cfg.Participants = testN
	tr := &hfl.Trainer{
		Model: model, Val: val, Cfg: cfg,
		Rounds:     &AsyncLocalSource{Model: model, Parts: parts, Async: asyncPolicy()},
		Stream:     hfl.MeanStream{},
		Aggregator: bufferedRule{},
	}
	if _, err := tr.RunContext(context.Background()); err == nil || !strings.Contains(err.Error(), "Stream cannot compose with Aggregator") {
		t.Errorf("got %v, want the trainer's Stream × Aggregator refusal", err)
	}
}

// TestAsyncRoundDeadlineClosesRound: the coordinator's RoundDeadline is the
// async round's deadline too. A fresh member asleep well past it cannot hold
// round 1 open: the round closes over the two arrivals, both commit, and the
// sleeper's late update is admitted or refused as stale — never an error.
func TestAsyncRoundDeadlineClosesRound(t *testing.T) {
	model, parts, val := problem(4)
	ac := asyncPolicy()
	col := &obs.Collector{}
	coord := &Coordinator{
		N: testN, Model: model, Val: val, Cfg: testConfig(),
		Async:         &ac,
		RoundDeadline: 300 * time.Millisecond,
	}
	coord.Cfg.Runtime.Sink = col
	const sleeper = 2
	res, perrs, err := Loopback(context.Background(), coord, func(i int) *Participant {
		p := &Participant{Index: i, Model: model.Clone(), Data: parts[i]}
		if i == sleeper {
			p.Delay = func(tt int) {
				if tt == 1 {
					time.Sleep(time.Second)
				}
			}
		}
		return p
	})
	if err = errors.Join(append(perrs, err)...); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Log[0].Reported); got != "[0 1]" {
		t.Errorf("round 1 committed %s, want [0 1]: the deadline should close it without the sleeper", got)
	}
	if col.Snapshot().NetTimeouts == 0 {
		t.Error("no round timed out")
	}
}

// TestAsyncShutdownMidQuorumReleasesWaiters: a coordinator killed while an
// async round is holding for its fresh cohort — one arrival in, the rest
// outstanding, long-poll waiters parked on the next round — must release
// every parked poll with done/closed and leak no goroutines.
func TestAsyncShutdownMidQuorumReleasesWaiters(t *testing.T) {
	model, _, val := problem(2)
	ac := hfl.AsyncConfig{Quorum: 2, MaxStaleness: 2}
	coord := &Coordinator{
		N: 2, Model: model, Val: val, Cfg: testConfig(),
		Stream: hfl.MeanStream{},
		Async:  &ac,
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	before := runtime.NumGoroutine()

	// A dedicated transport keeps this test's keep-alive connections out of
	// the process-wide pool, so the goroutine accounting sees only its own
	// clients.
	htr := &http.Transport{}
	client := &http.Client{Transport: htr}

	for i := 0; i < 2; i++ {
		b, _ := json.Marshal(joinRequest{Protocol: Protocol, Index: i})
		resp, err := client.Post(srv.URL+"/v1/join", "application/json", bytes.NewReader(b))
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("join %d: %v status %v", i, err, resp.StatusCode)
		}
		resp.Body.Close()
	}

	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() {
		_, err := coord.Run(ctx)
		runDone <- err
	}()

	// Round 1 opens; submit exactly one of the two expected arrivals so the
	// round is parked mid-cohort.
	resp, err := client.Get(srv.URL + "/v1/round?t=1&i=0")
	if err != nil {
		t.Fatalf("round poll: %v", err)
	}
	var rr roundReply
	if err := decodeReply(resp, &rr); err != nil {
		t.Fatalf("round decode: %v", err)
	}
	resp.Body.Close()
	if rr.State != StateOpen {
		t.Fatalf("round state %q", rr.State)
	}
	delta := make([]float64, len(rr.Theta))
	uresp, err := client.Post(srv.URL+"/v1/update", contentTypeBinary, bytes.NewReader(updateFrame(t, 1, 0, delta)))
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	uresp.Body.Close()

	// Park long-poll waiters on the round that will never open.
	var wg sync.WaitGroup
	states := make([]string, 4)
	for i := range states {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := client.Get(srv.URL + fmt.Sprintf("/v1/round?t=2&i=%d", i%2))
			if err != nil {
				states[i] = err.Error()
				return
			}
			defer resp.Body.Close()
			var rr roundReply
			if err := readJSON(resp.Body, &rr); err != nil {
				states[i] = err.Error()
				return
			}
			states[i] = rr.State
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	cancel()
	if err := <-runDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("run err = %v, want context.Canceled", err)
	}

	waited := make(chan struct{})
	go func() { wg.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll waiters still parked 5s after shutdown")
	}
	for i, s := range states {
		if s != StateDone {
			t.Errorf("waiter %d: state %q, want %q", i, s, StateDone)
		}
	}
	htr.CloseIdleConnections()
	srv.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines did not drain: before=%d after=%d", before, runtime.NumGoroutine())
}

// TestAsyncWALMidQuorumRecovery is the async crash-safety gate: a journaled
// async coordinator killed mid-round — while earlier lagged updates sit in
// the carry-over buffer — must recover and finish bit-identically to the
// uninterrupted AsyncLocalSource reference: model, curve, and φ. The
// pre-crash buffer is reinstalled from the epoch-close frame and the
// grafted round re-derives the exact pre-crash schedule.
func TestAsyncWALMidQuorumRecovery(t *testing.T) {
	const seed = 3
	fcfg := faults.Config{Seed: seed, Straggler: 0.5}
	col := &obs.Collector{}
	want, wantAttr := localAsyncRun(t, seed, fcfg, col)
	if col.Snapshot().StaleFolds == 0 {
		t.Fatal("reference schedule produced no stale folds; pick another seed")
	}

	model, parts, val := problem(seed)
	journal := &bytes.Buffer{}
	front := &Front{}
	// Round 1 journals testN update frames (every fresh member posts, lagged
	// or not); tearing shortly after leaves round 2 mid-cohort with the
	// round-1 lag buffer journaled in the close frame of epoch 1.
	writer := &tearAtBinary{buf: journal, left: testN + 2, onTear: front.Kill}

	newCoord := func() *Coordinator {
		cfg := testConfig()
		cfg.Faults = faults.MustNew(fcfg)
		ac := asyncPolicy()
		return &Coordinator{
			N: testN, Model: model, Val: val, Cfg: cfg,
			Estimator: core.NewHFLEstimator(testN, model.NumParams(), core.ResourceSaving, nil),
			Stream:    hfl.MeanStream{},
			Async:     &ac,
			Journal:   writer,
		}
	}

	res, coord := loopbackThroughCrashes(t, model, parts, journal, front, 1, newCoord)
	est := coord.Estimator
	checkSameRun(t, "async crash-recovery vs AsyncLocalSource", res, want, est.Attribution(), wantAttr)
	attr := est.Attribution()
	for tt := range wantAttr.PerEpoch {
		if !sameVec(wantAttr.PerEpoch[tt], attr.PerEpoch[tt]) {
			t.Errorf("φ at epoch %d differs after recovery", tt+1)
		}
	}
}
