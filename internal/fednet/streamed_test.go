package fednet

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"digfl/internal/core"
	"digfl/internal/dataset"
	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/sampling"
	"digfl/internal/tensor"
)

// streamN is the population of the six-participant streamed runs.
const streamN = 6

// problemN builds an n-participant softmax problem for a seed.
func problemN(seed int64, n int) (nn.Model, []dataset.Dataset, dataset.Dataset) {
	rng := tensor.NewRNG(seed)
	full := dataset.MNISTLike(300, seed)
	train, val := full.Split(0.2, rng)
	parts := dataset.PartitionIID(train, n, rng)
	return nn.NewSoftmaxRegression(train.Dim(), train.Classes), parts, val
}

// localStreamRun is the in-process streamed reference: Trainer.Stream
// folding with MeanStream{}, with an optional cohort sampler and an
// estimator attached.
func localStreamRun(t *testing.T, seed int64, n int, smp *sampling.Sampler) (*hfl.Result, *core.Attribution) {
	t.Helper()
	model, parts, val := problemN(seed, n)
	cfg := testConfig()
	cfg.Sample = smp
	est := core.NewHFLEstimator(n, model.NumParams(), core.ResourceSaving, nil)
	tr := &hfl.Trainer{
		Model: model, Parts: parts, Val: val, Cfg: cfg,
		Stream:   hfl.MeanStream{},
		Observer: func(ep *hfl.Epoch) { est.Observe(ep) },
	}
	res, err := tr.RunContext(context.Background())
	if err != nil {
		t.Fatalf("local streamed run (seed %d): %v", seed, err)
	}
	return res, est.Attribution()
}

// loopbackRun runs a loopback federation — buffered (stream nil) or
// streamed — returning the result and attribution.
func loopbackRun(t *testing.T, seed int64, n int, stream hfl.StreamAggregator, smp *sampling.Sampler) (*hfl.Result, *core.Attribution) {
	t.Helper()
	model, parts, val := problemN(seed, n)
	cfg := testConfig()
	cfg.Sample = smp
	est := core.NewHFLEstimator(n, model.NumParams(), core.ResourceSaving, nil)
	coord := &Coordinator{
		N: n, Model: model, Val: val, Cfg: cfg,
		Estimator: est,
		Stream:    stream,
	}
	res, perrs, err := Loopback(context.Background(), coord, func(i int) *Participant {
		return &Participant{Index: i, Model: model, Data: parts[i], Retries: 2}
	})
	if err != nil {
		t.Fatalf("loopback (seed %d): %v", seed, err)
	}
	for i, perr := range perrs {
		if perr != nil {
			t.Fatalf("worker %d: %v", i, perr)
		}
	}
	return res, est.Attribution()
}

func checkSameRun(t *testing.T, label string, got, want *hfl.Result, gotAttr, wantAttr *core.Attribution) {
	t.Helper()
	if !sameVec(got.Model.Params(), want.Model.Params()) {
		t.Errorf("%s: model params differ", label)
	}
	if !sameVec(got.ValLossCurve, want.ValLossCurve) {
		t.Errorf("%s: loss curves differ", label)
	}
	if !sameVec(gotAttr.Totals, wantAttr.Totals) {
		t.Errorf("%s: contribution totals differ: got %v want %v", label, gotAttr.Totals, wantAttr.Totals)
	}
}

// TestStreamedLoopbackBitIdenticalToInProcess: a flat streamed loopback run
// (fold-on-arrival ingest over real HTTP) must reproduce the in-process
// streamed trainer bit for bit — model, loss curve, and φ — across seeds.
func TestStreamedLoopbackBitIdenticalToInProcess(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			want, wantAttr := localStreamRun(t, seed, testN, nil)
			got, gotAttr := loopbackRun(t, seed, testN, hfl.MeanStream{}, nil)
			checkSameRun(t, "flat-streamed vs in-process", got, want, gotAttr, wantAttr)
		})
	}
}

// TestBufferedLoopbackMatchesStreamed: the buffered round's mean is the
// fold's one-segment order, so a buffered loopback run and a MeanStream{}
// loopback run agree bit for bit — model, loss curve, and φ — across seeds.
func TestBufferedLoopbackMatchesStreamed(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			streamed, streamedAttr := loopbackRun(t, seed, streamN, hfl.MeanStream{}, nil)
			buffered, bufferedAttr := loopbackRun(t, seed, streamN, nil, nil)
			checkSameRun(t, "buffered vs streamed", buffered, streamed, bufferedAttr, streamedAttr)
		})
	}
}

// TestSampledStreamedLoopback: cohort sampling composes with streaming over
// the wire — excluded participants learn their exclusion from the ?i= poll
// (no theta download, no local compute) and the run stays bit-identical to
// the in-process sampled streamed trainer.
func TestSampledStreamedLoopback(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			smpL := sampling.MustNew(sampling.Config{Seed: 11, Size: 4})
			smpN := sampling.MustNew(sampling.Config{Seed: 11, Size: 4})
			want, wantAttr := localStreamRun(t, seed, streamN, smpL)
			got, gotAttr := loopbackRun(t, seed, streamN, hfl.MeanStream{}, smpN)
			checkSameRun(t, "sampled streamed vs in-process", got, want, gotAttr, wantAttr)
		})
	}
}

// TestRoundLongPollShutdownReleasesWaiters: long-poll waiters parked in
// /v1/round must be released when the run ends, not leaked — a coordinator
// that stops mid-wait (canceled before its participants join) must answer
// every parked poll with done/closed and let the handler goroutines exit.
func TestRoundLongPollShutdownReleasesWaiters(t *testing.T) {
	model, _, val := problemN(1, testN)
	coord := &Coordinator{N: testN, Model: model, Val: val, Cfg: testConfig()}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	before := runtime.NumGoroutine()
	const waiters = 8
	var wg sync.WaitGroup
	states := make([]string, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(srv.URL + fmt.Sprintf("/v1/round?t=1&i=%d", i%testN))
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
	// Let the polls park in the long-poll wait, then kill the run: no
	// participant ever joins, so Run is blocked on the join barrier.
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := coord.Run(ctx); err == nil {
		t.Fatal("canceled run returned nil error")
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll waiters still parked 5s after the run ended")
	}
	for i, s := range states {
		if s != StateDone {
			t.Errorf("waiter %d: got state %q, want %q", i, s, StateDone)
		}
	}
	// The handler goroutines must drain; allow the runtime a moment. The
	// client's idle keep-alive connections are not handlers: drop them, or
	// their read/write loops are counted as a leak.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines did not drain: before=%d after=%d", before, runtime.NumGoroutine())
}
