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
	"digfl/internal/obs"
	"digfl/internal/sampling"
	"digfl/internal/tensor"
)

const treeN = 6

// problemN builds an n-participant softmax problem for a seed.
func problemN(seed int64, n int) (nn.Model, []dataset.Dataset, dataset.Dataset) {
	rng := tensor.NewRNG(seed)
	full := dataset.MNISTLike(300, seed)
	train, val := full.Split(0.2, rng)
	parts := dataset.PartitionIID(train, n, rng)
	return nn.NewSoftmaxRegression(train.Dim(), train.Classes), parts, val
}

// segStream is a cohort tree's reduction order as a flat fold: the round's
// slots are cut into segments of width slots, each summed in slot order by
// its own hfl.SegmentFold, and the partials merge in segment order into a
// zero total that is scaled once by 1/m — what the root does with its edges'
// partials when every edge owns width consecutive slots.
type segStream struct{ width int }

func (s segStream) NewFold(p, k int, valGrad []float64) hfl.Fold {
	return &segFold{width: s.width, p: p, valGrad: valGrad, segs: make([]*hfl.SegmentFold, (k+s.width-1)/s.width)}
}

type segFold struct {
	width, p int
	valGrad  []float64
	segs     []*hfl.SegmentFold
}

func (f *segFold) Add(slot int, delta []float64) error {
	if slot < 0 || slot/f.width >= len(f.segs) || len(delta) != f.p {
		return fmt.Errorf("segFold: slot %d of %d, %d params for %d", slot, len(f.segs)*f.width, len(delta), f.p)
	}
	s := slot / f.width
	if f.segs[s] == nil {
		f.segs[s] = hfl.NewSegmentFold(s*f.width, make([]float64, f.p), f.valGrad)
	}
	f.segs[s].Add(slot, delta)
	return nil
}

func (f *segFold) Close() (*hfl.FoldResult, error) {
	res := &hfl.FoldResult{}
	var acc []float64
	for _, sf := range f.segs {
		if sf == nil {
			continue
		}
		sum, slots, dots := sf.Close()
		if acc == nil {
			acc = make([]float64, f.p)
		}
		tensor.AXPY(1, sum, acc)
		res.Slots = append(res.Slots, slots...)
		res.Dots = append(res.Dots, dots...)
	}
	if len(res.Slots) > 0 {
		tensor.Scale(1/float64(len(res.Slots)), acc)
		res.Sum = acc
	}
	return res, nil
}

// localStreamRun is the in-process streamed reference: Trainer.Stream folding
// segments of the given width (0: MeanStream{}), with an optional cohort
// sampler and an estimator attached.
func localStreamRun(t *testing.T, seed int64, n, seg int, smp *sampling.Sampler) (*hfl.Result, *core.Attribution) {
	t.Helper()
	model, parts, val := problemN(seed, n)
	cfg := testConfig()
	cfg.Sample = smp
	est := core.NewHFLEstimator(n, model.NumParams(), core.ResourceSaving, nil)
	var stream hfl.StreamAggregator = hfl.MeanStream{}
	if seg > 0 {
		stream = segStream{seg}
	}
	tr := &hfl.Trainer{
		Model: model, Parts: parts, Val: val, Cfg: cfg,
		Stream:   stream,
		Observer: func(ep *hfl.Epoch) { est.Observe(ep) },
	}
	res, err := tr.RunContext(context.Background())
	if err != nil {
		t.Fatalf("local streamed run (seed %d): %v", seed, err)
	}
	return res, est.Attribution()
}

// loopbackRun runs a loopback topology — buffered (stream nil, edges 0),
// streamed flat (edges 0) or a two-level tree (edges > 0, which streams with
// any stream) — returning the result and attribution.
func loopbackRun(t *testing.T, seed int64, n int, stream hfl.StreamAggregator, edges int, smp *sampling.Sampler) (*hfl.Result, *core.Attribution) {
	t.Helper()
	model, parts, val := problemN(seed, n)
	cfg := testConfig()
	cfg.Sample = smp
	est := core.NewHFLEstimator(n, model.NumParams(), core.ResourceSaving, nil)
	coord := &Coordinator{
		N: n, Model: model, Val: val, Cfg: cfg,
		Estimator: est,
		Stream:    stream,
		Edges:     edges,
	}
	res, perrs, err := Loopback(context.Background(), coord, func(i int) *Participant {
		return &Participant{Index: i, Model: model, Data: parts[i], Retries: 2}
	})
	if err != nil {
		t.Fatalf("loopback (seed %d, edges %d): %v", seed, edges, err)
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
			want, wantAttr := localStreamRun(t, seed, testN, 0, nil)
			got, gotAttr := loopbackRun(t, seed, testN, hfl.MeanStream{}, 0, nil)
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
			streamed, streamedAttr := loopbackRun(t, seed, treeN, hfl.MeanStream{}, 0, nil)
			buffered, bufferedAttr := loopbackRun(t, seed, treeN, nil, 0, nil)
			checkSameRun(t, "buffered vs streamed", buffered, streamed, bufferedAttr, streamedAttr)
		})
	}
}

// TestTreeLoopbackBitIdenticalToFlatAndLocal is the cohort-tree equivalence
// gate: a two-level tree (3 edge sub-aggregators × 2 members, every hop a
// real TCP connection) must be bit-identical to a flat streamed loopback
// run and to the in-process streamed trainer with the same segment width,
// across 3 seeds. The tree sets Edges alone: Edges streams the run, and the
// edges' segments fix the reduction order whatever Stream names.
func TestTreeLoopbackBitIdenticalToFlatAndLocal(t *testing.T) {
	const edges = 3
	width := (treeN + edges - 1) / edges
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			local, localAttr := localStreamRun(t, seed, treeN, width, nil)
			flat, flatAttr := loopbackRun(t, seed, treeN, segStream{width}, 0, nil)
			tree, treeAttr := loopbackRun(t, seed, treeN, nil, edges, nil)
			checkSameRun(t, "flat vs local", flat, local, flatAttr, localAttr)
			checkSameRun(t, "tree vs local", tree, local, treeAttr, localAttr)
			checkSameRun(t, "tree vs flat", tree, flat, treeAttr, flatAttr)
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
			want, wantAttr := localStreamRun(t, seed, treeN, 0, smpL)
			got, gotAttr := loopbackRun(t, seed, treeN, hfl.MeanStream{}, 0, smpN)
			checkSameRun(t, "sampled streamed vs in-process", got, want, gotAttr, wantAttr)
		})
	}
}

// TestSampledTreeLoopback: sampling composes with the cohort tree — edges
// discover their active members via header-only ?i= polls and fold only the
// cohort. A sampled tree is bit-identical tree-to-tree (rerunning it
// reproduces every float), but only ulp-close to the segmented in-process
// run: the tree's segments follow population blocks while segStream's follow
// cohort slots, and a sampled cohort spreads unevenly across edges, so the
// two reduction geometries differ. With full participation the geometries
// coincide and the bit-identity gate above applies.
func TestSampledTreeLoopback(t *testing.T) {
	const edges = 3
	width := (treeN + edges - 1) / edges
	seed := int64(2)
	newSmp := func() *sampling.Sampler {
		return sampling.MustNew(sampling.Config{Seed: 7, Size: 4})
	}
	want, wantAttr := localStreamRun(t, seed, treeN, width, newSmp())
	got, gotAttr := loopbackRun(t, seed, treeN, segStream{width}, edges, newSmp())
	got2, gotAttr2 := loopbackRun(t, seed, treeN, segStream{width}, edges, newSmp())
	checkSameRun(t, "sampled tree rerun", got2, got, gotAttr2, gotAttr)
	if !approxVec(got.Model.Params(), want.Model.Params(), 1e-9) {
		t.Error("sampled tree model drifted past reduction-order tolerance")
	}
	if !approxVec(gotAttr.Totals, wantAttr.Totals, 1e-9) {
		t.Errorf("sampled tree φ drifted past tolerance: got %v want %v", gotAttr.Totals, wantAttr.Totals)
	}
}

// roundEndSink closes done when the root closes round t.
type roundEndSink struct {
	t    int
	once sync.Once
	done chan struct{}
}

func (s *roundEndSink) Emit(e obs.Event) {
	if e.Kind == obs.KindNetRoundEnd && e.T == s.t {
		s.once.Do(func() { close(s.done) })
	}
}

// TestTreeStragglerEdgeClosesAtDeadline: a tree member that never posts in a
// round must not cost its edge the round. Member 1 of edge 0 stays silent in
// round straggleT until the root has closed it; edge 0 closes at the
// RoundDeadline its poll announced, less edgeCloseMargin, and submits its
// other members, whom the root counts. The edge then serves the next round
// in full, the late member included.
func TestTreeStragglerEdgeClosesAtDeadline(t *testing.T) {
	const edges, straggler, straggleT = 2, 1, 3
	model, parts, val := problemN(4, treeN)
	closed := &roundEndSink{t: straggleT, done: make(chan struct{})}
	cfg := testConfig()
	cfg.Runtime.Sink = closed
	coord := &Coordinator{N: treeN, Model: model, Val: val, Cfg: cfg, Edges: edges,
		RoundDeadline: 2 * time.Second}
	res, perrs, err := Loopback(context.Background(), coord, func(i int) *Participant {
		p := &Participant{Index: i, Model: model, Data: parts[i], Retries: 2}
		if i == straggler {
			p.Delay = func(tt int) {
				if tt == straggleT {
					<-closed.done // silent for the whole round; its late post is refused as stale
				}
			}
		}
		return p
	})
	if err != nil {
		t.Fatalf("loopback tree: %v", err)
	}
	for i, perr := range perrs {
		if perr != nil {
			t.Fatalf("worker %d: %v", i, perr)
		}
	}
	want := []int{0, 2, 3, 4, 5}
	if got := res.Log[straggleT-1].Reported; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("round %d counted %v, want %v: the straggler's edge lost its other members", straggleT, got, want)
	}
	for k, ep := range res.Log {
		if k != straggleT-1 && ep.Reported != nil {
			t.Errorf("round %d degraded to %v", k+1, ep.Reported)
		}
	}
}

// approxVec reports element-wise agreement within a relative-or-absolute
// tolerance — for cross-geometry comparisons where only the reduction order
// differs.
func approxVec(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		diff := a[i] - b[i]
		if diff < 0 {
			diff = -diff
		}
		scale := 1.0
		if s := b[i]; s > 1 || s < -1 {
			if s < 0 {
				s = -s
			}
			scale = s
		}
		if diff > tol*scale {
			return false
		}
	}
	return true
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
