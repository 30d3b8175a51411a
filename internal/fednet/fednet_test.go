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
	"sync/atomic"
	"testing"
	"time"

	"digfl/internal/core"
	"digfl/internal/dataset"
	"digfl/internal/faults"
	"digfl/internal/hfl"
	"digfl/internal/logio"
	"digfl/internal/nn"
	"digfl/internal/obs"
	"digfl/internal/tensor"
)

const (
	testN      = 3
	testEpochs = 6
)

// problem builds a small n-participant softmax problem for a seed.
func problem(seed int64) (nn.Model, []dataset.Dataset, dataset.Dataset) {
	rng := tensor.NewRNG(seed)
	full := dataset.MNISTLike(300, seed)
	train, val := full.Split(0.2, rng)
	parts := dataset.PartitionIID(train, testN, rng)
	return nn.NewSoftmaxRegression(train.Dim(), train.Classes), parts, val
}

func testConfig() hfl.Config {
	return hfl.Config{Epochs: testEpochs, LR: 0.3, KeepLog: true}
}

// localRun is the in-process reference: a plain hfl.Trainer with an
// attached DIG-FL estimator.
func localRun(t *testing.T, seed int64, cfg hfl.Config) (*hfl.Result, *core.Attribution) {
	t.Helper()
	model, parts, val := problem(seed)
	est := core.NewHFLEstimator(testN, model.NumParams(), core.ResourceSaving, nil)
	tr := &hfl.Trainer{
		Model: model, Parts: parts, Val: val, Cfg: cfg,
		Observer: func(ep *hfl.Epoch) { est.Observe(ep) },
	}
	res, err := tr.RunContext(context.Background())
	if err != nil {
		t.Fatalf("local run (seed %d): %v", seed, err)
	}
	return res, est.Attribution()
}

func sameVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] { // exact: the contract is bit-identity
			return false
		}
	}
	return true
}

// TestLoopbackBitIdenticalToLocal is the tentpole acceptance test: a
// fault-free loopback run over real HTTP must reproduce the in-process
// trainer's model, loss curve, training-log archive, and per-participant
// contributions φ bit for bit, across seeds — with an observability sink
// attached, whose wire counters must show one round per epoch and no
// timeout.
func TestLoopbackBitIdenticalToLocal(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			want, wantAttr := localRun(t, seed, testConfig())

			model, parts, val := problem(seed)
			est := core.NewHFLEstimator(testN, model.NumParams(), core.ResourceSaving, nil)
			var archive bytes.Buffer
			col := &obs.Collector{}
			cfg := testConfig()
			cfg.Runtime.Sink = col
			coord := &Coordinator{
				N: testN, Model: model, Val: val, Cfg: cfg,
				Estimator: est, Archive: &archive,
			}
			got, perrs, err := Loopback(context.Background(), coord, func(i int) *Participant {
				return &Participant{Index: i, Model: model, Data: parts[i], Retries: 2}
			})
			if err != nil {
				t.Fatalf("loopback run: %v", err)
			}
			for i, perr := range perrs {
				if perr != nil {
					t.Fatalf("participant %d: %v", i, perr)
				}
			}

			if !sameVec(want.Model.Params(), got.Model.Params()) {
				t.Error("final model differs from local run")
			}
			if !sameVec(want.ValLossCurve, got.ValLossCurve) {
				t.Errorf("loss curve differs:\nlocal %v\nnet   %v", want.ValLossCurve, got.ValLossCurve)
			}
			if len(got.Log) != testEpochs {
				t.Fatalf("log has %d epochs, want %d", len(got.Log), testEpochs)
			}
			for k, ep := range got.Log {
				if ep.Reported != nil {
					t.Errorf("fault-free epoch %d marked degraded: %v", ep.T, ep.Reported)
				}
				for i := range ep.Deltas {
					if !sameVec(want.Log[k].Deltas[i], ep.Deltas[i]) {
						t.Errorf("epoch %d delta %d differs", ep.T, i)
					}
				}
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

			var wantArchive bytes.Buffer
			if err := logio.WriteHFL(&wantArchive, want.Log); err != nil {
				t.Fatalf("WriteHFL: %v", err)
			}
			if !bytes.Equal(wantArchive.Bytes(), archive.Bytes()) {
				t.Error("streamed archive differs from batch archive of the local log")
			}
			// The wire counters: one round per epoch, requests counted, no
			// timeout on a fault-free run.
			if snap := col.Snapshot(); snap.NetRounds != testEpochs || snap.NetRequests == 0 || snap.NetTimeouts != 0 {
				t.Errorf("wire counters: %d rounds for %d epochs, %d requests, %d timeouts",
					snap.NetRounds, testEpochs, snap.NetRequests, snap.NetTimeouts)
			}
		})
	}
}

// TestLocalSourceMatchesPlainTrainer pins the reference RoundSource: a
// trainer fed by LocalSource must match a trainer computing its own local
// updates, bit for bit.
func TestLocalSourceMatchesPlainTrainer(t *testing.T) {
	want, _ := localRun(t, 7, testConfig())

	model, parts, val := problem(7)
	cfg := testConfig()
	cfg.Participants = testN
	tr := &hfl.Trainer{
		Model: model, Val: val, Cfg: cfg,
		Rounds: &LocalSource{Model: model, Parts: parts},
	}
	got, err := tr.RunContext(context.Background())
	if err != nil {
		t.Fatalf("LocalSource run: %v", err)
	}
	if !sameVec(want.Model.Params(), got.Model.Params()) {
		t.Error("final model differs")
	}
	if !sameVec(want.ValLossCurve, got.ValLossCurve) {
		t.Error("loss curve differs")
	}
}

// TestStragglerDeadlineMatchesLocalDrop is the degraded-round acceptance
// test: a participant sleeping past the round deadline must yield exactly
// the survivor epoch an equivalent in-process run produces, Reported
// semantics included.
func TestStragglerDeadlineMatchesLocalDrop(t *testing.T) {
	const straggler, straggleT = 2, testEpochs

	// Reference: LocalSource dropping the straggler at the same round.
	model, parts, val := problem(11)
	cfg := testConfig()
	cfg.Participants = testN
	ref := &hfl.Trainer{
		Model: model, Val: val, Cfg: cfg,
		Rounds: &LocalSource{Model: model, Parts: parts,
			Drop: func(tt, i int) bool { return tt == straggleT && i == straggler }},
	}
	want, err := ref.RunContext(context.Background())
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	model2, parts2, val2 := problem(11)
	coord := &Coordinator{
		N: testN, Model: model2, Val: val2, Cfg: testConfig(),
		RoundDeadline: 2 * time.Second,
	}
	got, perrs, err := Loopback(context.Background(), coord, func(i int) *Participant {
		p := &Participant{Index: i, Model: model2, Data: parts2[i], Retries: 2}
		if i == straggler {
			p.Delay = func(tt int) {
				if tt == straggleT {
					time.Sleep(4 * time.Second) // well past the round deadline
				}
			}
		}
		return p
	})
	if err != nil {
		t.Fatalf("loopback run: %v", err)
	}
	for i, perr := range perrs {
		if perr != nil {
			t.Fatalf("participant %d: %v", i, perr)
		}
	}

	if !sameVec(want.Model.Params(), got.Model.Params()) {
		t.Error("survivor model differs from local-drop reference")
	}
	if !sameVec(want.ValLossCurve, got.ValLossCurve) {
		t.Errorf("loss curve differs:\nref %v\nnet %v", want.ValLossCurve, got.ValLossCurve)
	}
	last := got.Log[straggleT-1]
	wantRep := []int{0, 1}
	if len(last.Reported) != len(wantRep) || last.Reported[0] != 0 || last.Reported[1] != 1 {
		t.Errorf("straggled epoch Reported = %v, want %v", last.Reported, wantRep)
	}
	for k := 0; k < straggleT-1; k++ {
		if got.Log[k].Reported != nil {
			t.Errorf("epoch %d degraded unexpectedly: %v", k+1, got.Log[k].Reported)
		}
	}
}

// TestRetryTransparency injects deterministic request failures and checks
// the retry loop absorbs them without perturbing a single bit of the
// result.
func TestRetryTransparency(t *testing.T) {
	want, _ := localRun(t, 5, testConfig())

	model, parts, val := problem(5)
	inj := faults.MustNew(faults.Config{Seed: 99, NetFailure: 0.3})
	sink := &obs.Collector{}
	coord := &Coordinator{N: testN, Model: model, Val: val, Cfg: testConfig()}
	got, perrs, err := Loopback(context.Background(), coord, func(i int) *Participant {
		return &Participant{
			Index: i, Model: model, Data: parts[i],
			Retries: 10, Base: time.Millisecond, Cap: 10 * time.Millisecond,
			Faults: inj, Sink: sink,
		}
	})
	if err != nil {
		t.Fatalf("loopback run: %v", err)
	}
	for i, perr := range perrs {
		if perr != nil {
			t.Fatalf("participant %d: %v", i, perr)
		}
	}
	if !sameVec(want.Model.Params(), got.Model.Params()) {
		t.Error("lossy-link run differs from fault-free local run")
	}
	if !sameVec(want.ValLossCurve, got.ValLossCurve) {
		t.Error("loss curve differs under injected request failures")
	}
	snap := sink.Snapshot()
	if snap.Retries == 0 {
		t.Error("injected NetFailure=0.3 produced no retries — injection not exercised")
	}
}

// TestCoordinatorCancellation checks both blocking points honor the
// context: the join barrier and an open round.
func TestCoordinatorCancellation(t *testing.T) {
	model, _, val := problem(3)

	t.Run("join barrier", func(t *testing.T) {
		coord := &Coordinator{N: 2, Model: model, Val: val, Cfg: testConfig()}
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		_, err := coord.Run(ctx) // no participants ever join
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
	})

	t.Run("open round", func(t *testing.T) {
		model2, parts2, val2 := problem(3)
		coord := &Coordinator{N: testN, Model: model2, Val: val2, Cfg: testConfig()}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(200 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		_, perrs, err := Loopback(ctx, coord, func(i int) *Participant {
			p := &Participant{Index: i, Model: model2, Data: parts2[i]}
			p.Delay = func(tt int) {
				if tt == 1 {
					time.Sleep(1500 * time.Millisecond) // everyone stalls round 1
				}
			}
			return p
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		// Participants must still drain cleanly off the done broadcast.
		for i, perr := range perrs {
			if perr != nil && !errors.Is(perr, context.Canceled) {
				t.Errorf("participant %d: %v", i, perr)
			}
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Errorf("cancellation took %v", elapsed)
		}
	})
}

// updateFrame encodes a hand-built update as the digfl-fednet/2 frame a
// client posts to /v1/update.
func updateFrame(tb testing.TB, t, index int, delta []float64) []byte {
	tb.Helper()
	b, err := CodecV2.EncodeUpdate(t, index, delta)
	if err != nil {
		tb.Fatalf("EncodeUpdate: %v", err)
	}
	return b
}

// TestWireValidation drives the handler directly: protocol and shape
// errors must be rejected with JSON errors, and the score endpoint must be
// gated on an attached estimator.
func TestWireValidation(t *testing.T) {
	model, _, val := problem(1)
	coord := &Coordinator{N: testN, Model: model, Val: val, Cfg: testConfig()}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	post := func(path string, body any) (*http.Response, string) {
		b, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		return resp, buf.String()
	}

	// Protocol is checked at join, the one request that names it.
	if resp, body := post("/v1/join", joinRequest{Protocol: "digfl-fednet/999", Index: 0}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("version-mismatch join: status %d body %s", resp.StatusCode, body)
	}
	if resp, _ := post("/v1/join", joinRequest{Protocol: Protocol, Index: testN}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-range index accepted: status %d", resp.StatusCode)
	}
	// Idempotent join: the retry of a lost reply succeeds.
	for k := 0; k < 2; k++ {
		resp, body := post("/v1/join", joinRequest{Protocol: Protocol, Index: 0})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("join attempt %d: status %d body %s", k, resp.StatusCode, body)
		}
	}
	// An update with no open round is a typed stale-round conflict — benign
	// for a well-behaved participant, but no longer a silent 200.
	uresp, err := http.Post(srv.URL+"/v1/update", contentTypeBinary, bytes.NewReader(updateFrame(t, 1, 0, []float64{1})))
	if err != nil {
		t.Fatalf("POST /v1/update: %v", err)
	}
	var ubody bytes.Buffer
	_, _ = ubody.ReadFrom(uresp.Body)
	uresp.Body.Close()
	if uresp.StatusCode != http.StatusConflict || !strings.Contains(ubody.String(), CodeStaleRound) {
		t.Errorf("update with no round: status %d body %s", uresp.StatusCode, ubody.String())
	}

	get := func(path string) (*http.Response, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		return resp, buf.String()
	}
	if resp, _ := get("/v1/round?t=zero"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad round param accepted: status %d", resp.StatusCode)
	}
	if resp, _ := get("/v1/score"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("score without estimator: status %d, want 404", resp.StatusCode)
	}
}

// TestScoreAndAggregateEndpoints runs a full loopback training and then
// reads φ back over the wire. The model has one way across the wire — the
// round broadcast — so the last round's frame is compared with the run's
// own log, and the retired /v1/aggregate route must answer 404.
func TestScoreAndAggregateEndpoints(t *testing.T) {
	model, parts, val := problem(13)
	est := core.NewHFLEstimator(testN, model.NumParams(), core.ResourceSaving, nil)
	coord := &Coordinator{N: testN, Model: model, Val: val, Cfg: testConfig(), Estimator: est}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	// Participant 0 re-polls the last round before answering it: the round
	// cannot close without its update, so the poll sees that round's frame.
	var lastTheta []float64
	done := make(chan error, testN)
	for i := 0; i < testN; i++ {
		p := &Participant{Index: i, BaseURL: srv.URL, Model: model, Data: parts[i], Retries: 2}
		if i == 0 {
			p.Delay = func(tt int) {
				if tt != testEpochs {
					return
				}
				resp, err := http.Get(fmt.Sprintf("%s/v1/round?t=%d", srv.URL, tt))
				if err != nil {
					t.Errorf("last-round poll: %v", err)
					return
				}
				defer resp.Body.Close()
				var rr roundReply
				if err := decodeReply(resp, &rr); err != nil || rr.T != tt {
					t.Errorf("last-round poll: t=%d err=%v", rr.T, err)
				}
				lastTheta = rr.Theta
			}
		}
		go func() { done <- p.Run(context.Background()) }()
	}
	res, err := coord.Run(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for i := 0; i < testN; i++ {
		if perr := <-done; perr != nil {
			t.Fatalf("participant: %v", perr)
		}
	}

	var score scoreReply
	getJSON(t, srv.URL+"/v1/score", &score)
	if score.Epochs != testEpochs {
		t.Errorf("score epochs = %d, want %d", score.Epochs, testEpochs)
	}
	if !sameVec(score.totals(), est.Attribution().Totals) {
		t.Errorf("wire φ = %v, want %v", score.totals(), est.Attribution().Totals)
	}

	if !sameVec(lastTheta, res.Log[testEpochs-1].Theta) {
		t.Error("last round's broadcast theta differs from the run's logged model")
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/aggregate?t=%d", srv.URL, testEpochs))
	if err != nil {
		t.Fatalf("GET /v1/aggregate: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/v1/aggregate: status %d, want 404", resp.StatusCode)
	}
}

// TestScoreReadersBesideLiveRun: 32 readers alternating GET /v1/score with
// header-only long-polls of /v1/round beside a live 3-participant run get
// nothing but 200s, are all released by state "done", leave no goroutine
// behind, and do not perturb the run — θ, loss curve and φ are bit-identical
// to the same run with no readers.
func TestScoreReadersBesideLiveRun(t *testing.T) {
	before := runtime.NumGoroutine()
	live := func(readers int) (*hfl.Result, []float64) {
		model, parts, val := problem(17)
		est := core.NewHFLEstimator(testN, model.NumParams(), core.ResourceSaving, nil)
		coord := &Coordinator{N: testN, Model: model, Val: val, Cfg: testConfig(), Estimator: est}
		srv := httptest.NewServer(coord.Handler())
		defer srv.Close()
		htr := &http.Transport{MaxIdleConnsPerHost: readers + testN}
		defer htr.CloseIdleConnections()
		client := &http.Client{Transport: htr, Timeout: 30 * time.Second}
		var bad atomic.Int64
		get := func(url string, out any) {
			resp, err := client.Get(url)
			if err == nil {
				defer resp.Body.Close()
			}
			if err != nil || resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(out) != nil {
				bad.Add(1)
			}
		}
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				next, state := 1, ""
				for state != StateDone && bad.Load() == 0 {
					get(srv.URL+"/v1/score", &scoreReply{})
					var rr roundReply
					get(fmt.Sprintf("%s/v1/round?t=%d&h=1", srv.URL, next), &rr)
					if state = rr.State; state == StateOpen {
						next = rr.T + 1
					}
				}
			}()
		}
		perrs := make(chan error, testN)
		for i := range parts {
			p := &Participant{Index: i, BaseURL: srv.URL, Model: model, Data: parts[i], Retries: 2, Client: client,
				Delay: func(int) { time.Sleep(2 * time.Millisecond) }}
			go func() { perrs <- p.Run(context.Background()) }()
		}
		res, err := coord.Run(context.Background())
		for range parts {
			if perr := <-perrs; err != nil || perr != nil {
				t.Fatalf("run beside %d readers: coordinator %v, participant %v", readers, err, perr)
			}
		}
		wg.Wait() // a watcher the finished run never released trips the client timeout into bad
		if n := bad.Load(); n != 0 {
			t.Errorf("%d reader requests failed or answered non-200", n)
		}
		return res, est.Attribution().Totals
	}
	quiet, quietPhi := live(0)
	busy, busyPhi := live(32)
	if !sameVec(quiet.Model.Params(), busy.Model.Params()) || !sameVec(quiet.ValLossCurve, busy.ValLossCurve) ||
		!sameVec(quietPhi, busyPhi) {
		t.Error("readers perturbed the run: θ, curve or φ differ from the reader-free run")
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before+2; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain: before=%d after=%d", before, runtime.NumGoroutine())
		}
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}
