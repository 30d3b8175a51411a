package experiments

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"digfl/internal/core"
	"digfl/internal/dataset"
	"digfl/internal/faults"
	"digfl/internal/fednet"
	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/obs"
	"digfl/internal/robust"
	"digfl/internal/tensor"
)

// ChaosResult summarizes the deterministic chaos harness: seeded coordinator
// kills with WAL recovery, an edge-aggregator death with root failover, and
// the bit-identity of every interrupted run against its uninterrupted
// reference.
type ChaosResult struct {
	Participants, Epochs int
	Seeds                []int64
	// Kills holds each seed's crash schedule (drawn from the DomainChaos
	// hash stream, so reruns replay the identical kills).
	Kills [][]faults.CrashAt
	// Restarts counts coordinator incarnations beyond the first, summed
	// over the crash runs.
	Restarts int
	// WALTransparent: an uninterrupted journaled run produced the same
	// model, curve, phi, and archive bytes as the unjournaled reference.
	WALTransparent bool
	// CrashIdentical: every killed-and-recovered run reproduced the
	// reference bit for bit (model, curve, per-epoch and total phi,
	// archive bytes).
	CrashIdentical bool
	// EdgeIdentical: the tree run whose edge died mid-round reproduced the
	// uninterrupted tree bit for bit through direct-submission failover.
	EdgeIdentical bool
	// AsyncIdentical: the async (K-of-N buffered) loopback run under
	// dropout + stragglers, killed at the same scheduled points and
	// recovered mid-quorum from the journal, reproduced the in-process
	// AsyncLocalSource reference bit for bit (model, curve, phi).
	AsyncIdentical bool
	// AsyncRestarts counts the async runs' coordinator incarnations beyond
	// the first; AsyncStaleFolds counts their staleness-discounted commits
	// (proof the runs exercised the buffer, not just the fresh path).
	AsyncRestarts   int
	AsyncStaleFolds int64
	// WALBytes totals the journal bytes written by the uninterrupted
	// journaled runs.
	WALBytes int64
	// Crash-safety event counts observed across the interrupted runs.
	Recoveries, Rejoins, Failovers int64
}

// errChaosCrash is the injected journal-write failure that kills a
// coordinator incarnation.
var errChaosCrash = errors.New("chaos: injected crash during journal append")

// chaosFront is the kill switch the harness places in front of a server: a
// swappable inner handler plus a down flag and an incarnation counter.
// While down, every request — and every in-flight response write from a
// previous incarnation's handler — aborts its connection, so a killed
// process's half-written replies and stale long-poll wakeups can never
// reach a client, exactly as if the process had died.
type chaosFront struct {
	mu    sync.RWMutex
	inner http.Handler
	gen   int
	down  bool
}

// install swaps in a new incarnation's handler and brings the front up.
func (f *chaosFront) install(h http.Handler) {
	f.mu.Lock()
	f.inner = h
	f.gen++
	f.down = false
	f.mu.Unlock()
}

// kill takes the front down; in-flight handlers abort at their next write.
func (f *chaosFront) kill() {
	f.mu.Lock()
	f.down = true
	f.mu.Unlock()
}

func (f *chaosFront) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	f.mu.RLock()
	inner, gen, down := f.inner, f.gen, f.down
	f.mu.RUnlock()
	if down || inner == nil {
		panic(http.ErrAbortHandler)
	}
	inner.ServeHTTP(&fencedWriter{front: f, gen: gen, w: w}, req)
}

// fencedWriter aborts the connection on any write attempted after the front
// went down or moved to a newer incarnation — the handler goroutine is
// treated as part of the killed process.
type fencedWriter struct {
	front *chaosFront
	gen   int
	w     http.ResponseWriter
}

func (fw *fencedWriter) check() {
	fw.front.mu.RLock()
	ok := !fw.front.down && fw.front.gen == fw.gen
	fw.front.mu.RUnlock()
	if !ok {
		panic(http.ErrAbortHandler)
	}
}

func (fw *fencedWriter) Header() http.Header { return fw.w.Header() }

func (fw *fencedWriter) WriteHeader(code int) {
	fw.check()
	fw.w.WriteHeader(code)
}

func (fw *fencedWriter) Write(p []byte) (int, error) {
	fw.check()
	return fw.w.Write(p)
}

// killAfter kills its front (and cancels the victim's run context) once the
// target-th member update has been fully served — deterministic placement
// of an edge death relative to the round's ack sequence.
type killAfter struct {
	front  *chaosFront
	inner  http.Handler
	target int32
	onKill func()
	n      atomic.Int32
}

func (k *killAfter) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	k.inner.ServeHTTP(w, req)
	if req.URL.Path == "/v1/update" && k.n.Add(1) == k.target {
		k.front.kill()
		k.onKill()
	}
}

// walControl is the slice of the journal's JSON control records the crash
// trigger needs (kind and epoch).
type walControl struct {
	Kind string `json:"kind"`
	T    int    `json:"t"`
}

// walCloseMagic opens the journal's binary epoch-close frame; the epoch is
// the little-endian u32 that follows it.
const walCloseMagic = "D2CK"

// crashWriter is the coordinator's journal sink with scheduled violence: it
// parses each appended record (the WAL writes exactly one record per Write),
// and at each scheduled (epoch, phase) it writes only half the record —
// a torn tail, the canonical crash artifact — takes the front down, and
// fails the append. Everything before the torn record is a clean prefix,
// which is precisely what Recover's replay contract promises to resume from.
type crashWriter struct {
	mu      sync.Mutex
	buf     *bytes.Buffer
	sched   []faults.CrashAt
	mid     int // which update ordinal a mid-round kill tears
	openT   int
	updates int
	onCrash func()
}

func (w *crashWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.hit(p) {
		w.sched = w.sched[1:]
		n, _ := w.buf.Write(p[:len(p)/2])
		w.onCrash()
		return n, errChaosCrash
	}
	return w.buf.Write(p)
}

// hit decides whether this record is a scheduled kill point, tracking the
// open epoch and its update count as a side effect. Record framing is the
// digfl-fednet-wal/2 wire: an 8-byte length+CRC header, then a payload that
// is a JSON control record ('{': run_open, epoch_open, ...) or a binary
// frame named by its four-byte magic — the D2CK epoch close, or a D2UP
// member update.
func (w *crashWriter) hit(rec []byte) bool {
	if len(rec) < 16 {
		return false
	}
	payload := rec[8:]
	due := func(phase faults.CrashPhase, t int) bool {
		return len(w.sched) > 0 && w.sched[0].Phase == phase && w.sched[0].Epoch == t
	}
	switch {
	case string(payload[:4]) == walCloseMagic:
		return due(faults.CrashAtClose, int(binary.LittleEndian.Uint32(payload[4:])))
	case payload[0] != '{':
		// One committed member update (the buffered chaos topology journals
		// no edge partials).
		w.updates++
		return due(faults.CrashMidRound, w.openT) && w.updates == w.mid
	}
	var c walControl
	if json.Unmarshal(payload, &c) != nil || c.Kind != "epoch_open" {
		return false
	}
	w.openT, w.updates = c.T, 0
	return due(faults.CrashAtOpen, c.T)
}

// chaosProblem builds the 4-participant softmax problem each chaos seed
// trains on.
func chaosProblem(seed int64, o Opts) (nn.Model, []dataset.Dataset, dataset.Dataset) {
	rng := tensor.NewRNG(seed)
	full := imageData("MNIST", o.samples(600), seed, 0)
	train, val := full.Split(0.1, rng)
	parts := dataset.PartitionIID(train, 4, rng)
	return nn.NewSoftmaxRegression(train.Dim(), train.Classes), parts, val
}

// crashLoop serves one federation — a participant per element of parts —
// over a loopback listener behind a chaosFront, and runs newCoord's
// coordinator to completion. With a journal, every append goes through a
// crashWriter armed with kills; each time it tears a record and takes the
// front down, the process "died": crashLoop builds a fresh coordinator,
// replays the journal's clean prefix into it through Recover, truncates the
// torn tail, and swaps it in behind the same address. A nil journal runs a
// single unjournaled incarnation. It returns the finishing incarnation's
// result and estimator, and the number of restarts.
func crashLoop(parts []dataset.Dataset, newCoord func() *fednet.Coordinator,
	journal *bytes.Buffer, kills []faults.CrashAt, sink obs.Sink,
) (*hfl.Result, *core.HFLEstimator, int, error) {
	n := len(parts)
	front := &chaosFront{}
	var jw io.Writer
	if journal != nil {
		jw = &crashWriter{buf: journal, sched: kills, mid: (n + 1) / 2, onCrash: front.kill}
	}
	incarnate := func() *fednet.Coordinator {
		c := newCoord()
		c.Journal = jw
		c.Cfg.Runtime.Sink = sink
		return c
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, 0, fmt.Errorf("experiments: chaos listener: %w", err)
	}
	srv := &http.Server{Handler: front}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	coord := incarnate()
	front.install(coord.Handler())

	ctx := context.Background()
	perrs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		p := &fednet.Participant{
			Index: i, Model: coord.Model, Data: parts[i], BaseURL: base,
			Retries: 400, Base: time.Millisecond, Cap: 20 * time.Millisecond, Sink: sink,
		}
		wg.Add(1)
		go func(i int, p *fednet.Participant) { defer wg.Done(); perrs[i] = p.Run(ctx) }(i, p)
	}

	restarts := 0
	var res *hfl.Result
	for {
		res, err = coord.Run(ctx)
		if err == nil {
			break
		}
		restarts++
		if journal == nil || restarts > len(kills)+1 {
			return nil, nil, restarts, fmt.Errorf("experiments: chaos coordinator (incarnation %d): %w", restarts, err)
		}
		coord = incarnate()
		consumed, rerr := coord.Recover(bytes.NewReader(journal.Bytes()))
		if rerr != nil {
			return nil, nil, restarts, fmt.Errorf("experiments: chaos recovery %d: %w", restarts, rerr)
		}
		journal.Truncate(int(consumed))
		front.install(coord.Handler())
	}
	wg.Wait()
	for i, perr := range perrs {
		if perr != nil {
			return nil, nil, restarts, fmt.Errorf("experiments: chaos participant %d: %w", i, perr)
		}
	}
	return res, coord.Estimator, restarts, nil
}

// chaosBuffered is crashLoop's buffered leg: the full crash-safety stack —
// estimator, quarantine and an archive shared by every incarnation. A nil
// journal gives the plain pre-WAL coordinator, the reference.
func chaosBuffered(model nn.Model, parts []dataset.Dataset, val dataset.Dataset, cfg hfl.Config,
	journal *bytes.Buffer, kills []faults.CrashAt, sink obs.Sink,
) (*hfl.Result, *core.HFLEstimator, *bytes.Buffer, int, error) {
	archive := &bytes.Buffer{}
	res, est, restarts, err := crashLoop(parts, func() *fednet.Coordinator {
		return &fednet.Coordinator{
			N: len(parts), Model: model, Val: val, Cfg: cfg,
			Estimator:  core.NewHFLEstimator(len(parts), model.NumParams(), core.ResourceSaving, nil),
			Quarantine: robust.MustNewQuarantine(robust.Quarantine{}),
			Archive:    archive,
		}
	}, journal, kills, sink)
	return res, est, archive, restarts, err
}

// chaosAsyncPolicy is the async leg's commit policy, and chaosAsyncFaults
// its fault mix: dropout composes with the lag schedule, so buffered
// entries can sit out epochs and age inside the staleness window.
func chaosAsyncPolicy() hfl.AsyncConfig {
	return hfl.AsyncConfig{Quorum: 2, MaxStaleness: 2}
}

func chaosAsyncFaults(seed int64) faults.Config {
	return faults.Config{Seed: seed, Dropout: 0.15, Straggler: 0.5}
}

// chaosAsyncLocal is the async leg's uninterrupted reference: the
// in-process AsyncLocalSource feeding a streaming trainer, with the same
// estimator the loopback coordinator attaches.
func chaosAsyncLocal(seed int64, o Opts, cfg hfl.Config, n int, sink obs.Sink,
) (*hfl.Result, *core.HFLEstimator, error) {
	model, parts, val := chaosProblem(seed, o)
	est := core.NewHFLEstimator(n, model.NumParams(), core.ResourceSaving, nil)
	cfg.Participants = n
	cfg.Faults = faults.MustNew(chaosAsyncFaults(seed))
	cfg.Runtime.Sink = sink
	tr := &hfl.Trainer{
		Model: model, Val: val, Cfg: cfg,
		Rounds: &fednet.AsyncLocalSource{
			Model: model, Parts: parts, Async: chaosAsyncPolicy(),
			Faults: faults.MustNew(chaosAsyncFaults(seed)), Sink: sink,
		},
		Stream:   hfl.MeanStream{},
		Observer: func(ep *hfl.Epoch) { est.Observe(ep) },
	}
	res, err := tr.RunE()
	return res, est, err
}

// chaosAsync is crashLoop's async leg: the K-of-N commit policy under
// dropout + stragglers with the WAL attached, so a kill can land mid-quorum
// with updates buffered but uncommitted. The async path requires Stream and
// forbids Archive, so bit-identity is model + curve + estimator state.
func chaosAsync(seed int64, o Opts, cfg hfl.Config,
	journal *bytes.Buffer, kills []faults.CrashAt, sink obs.Sink,
) (*hfl.Result, *core.HFLEstimator, int, error) {
	model, parts, val := chaosProblem(seed, o)
	cfg.Faults = faults.MustNew(chaosAsyncFaults(seed))
	ac := chaosAsyncPolicy()
	return crashLoop(parts, func() *fednet.Coordinator {
		return &fednet.Coordinator{
			N: len(parts), Model: model, Val: val, Cfg: cfg,
			Estimator: core.NewHFLEstimator(len(parts), model.NumParams(), core.ResourceSaving, nil),
			Stream:    hfl.MeanStream{},
			Async:     &ac,
		}
	}, journal, kills, sink)
}

// chaosTreeRun runs a two-level cohort tree; killRound > 0 kills edge 0
// immediately after it acks the first member update of that round, so one
// member must be re-solicited by the root (grace-timer resubmission) and the
// rest fail over to direct submission on their own.
func chaosTreeRun(model nn.Model, parts []dataset.Dataset, val dataset.Dataset, cfg hfl.Config,
	n, edges, killRound int, sink obs.Sink,
) (*hfl.Result, *core.HFLEstimator, error) {
	est := core.NewHFLEstimator(n, model.NumParams(), core.ResourceSaving, nil)
	width := (n + edges - 1) / edges
	coord := &fednet.Coordinator{
		N: n, Model: model, Val: val, Cfg: cfg,
		Estimator: est,
		Stream:    hfl.MeanStream{Seg: width},
		Edges:     edges,
	}
	if killRound > 0 {
		coord.FailoverGrace = 250 * time.Millisecond
	}
	coord.Cfg.Runtime.Sink = sink

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: chaos tree listener: %w", err)
	}
	srv := &http.Server{Handler: coord.Handler()}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	root := "http://" + ln.Addr().String()

	ctx := context.Background()
	ectx, stopEdges := context.WithCancel(ctx)
	defer stopEdges()
	kctx, kcancel := context.WithCancel(ectx)
	defer kcancel()

	edgeURL := make([]string, n)
	eerrs := make([]error, edges)
	var ewg sync.WaitGroup
	for e := 0; e < edges; e++ {
		lo, hi := e*width, min((e+1)*width, n)
		if lo >= hi {
			break
		}
		members := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			members = append(members, i)
		}
		ea := &fednet.EdgeAggregator{
			Root: root, Edge: e, Members: members, Sink: sink,
			Retries: 4, Base: time.Millisecond, Cap: 50 * time.Millisecond,
		}
		var h http.Handler = ea.Handler()
		runCtx := ectx
		if e == 0 && killRound > 0 {
			// The victim: serve exactly width*(killRound-1)+1 member acks —
			// every update of the earlier rounds plus one of round killRound
			// — then drop dead, leaving one acked member (resubmit path) and
			// the rest unacked (transport-failover path).
			front := &chaosFront{}
			front.install(&killAfter{
				front: front, inner: h,
				target: int32(width*(killRound-1) + 1),
				onKill: kcancel,
			})
			h = front
			runCtx = kctx
		}
		eln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: chaos edge %d listener: %w", e, err)
		}
		esrv := &http.Server{Handler: h}
		go func() { _ = esrv.Serve(eln) }()
		defer esrv.Close()
		url := "http://" + eln.Addr().String()
		for i := lo; i < hi; i++ {
			edgeURL[i] = url
		}
		ewg.Add(1)
		go func(e int, ea *fednet.EdgeAggregator, ctx context.Context) {
			defer ewg.Done()
			eerrs[e] = ea.Run(ctx)
		}(e, ea, runCtx)
	}

	perrs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		p := &fednet.Participant{
			Index: i, Model: model, Data: parts[i], BaseURL: root, UpdateURL: edgeURL[i],
			Retries: 100, Base: time.Millisecond, Cap: 20 * time.Millisecond, Sink: sink,
		}
		wg.Add(1)
		go func(i int, p *fednet.Participant) { defer wg.Done(); perrs[i] = p.Run(ctx) }(i, p)
	}

	res, runErr := coord.Run(ctx)
	wg.Wait()
	stopEdges()
	ewg.Wait()
	if runErr != nil {
		return nil, nil, fmt.Errorf("experiments: chaos tree coordinator: %w", runErr)
	}
	for i, perr := range perrs {
		if perr != nil {
			return nil, nil, fmt.Errorf("experiments: chaos tree participant %d: %w", i, perr)
		}
	}
	for e, eerr := range eerrs {
		if eerr != nil && !errors.Is(eerr, context.Canceled) {
			return nil, nil, fmt.Errorf("experiments: chaos tree edge %d: %w", e, eerr)
		}
	}
	return res, est, nil
}

// sameFed reports whether two federation runs match bit for bit: model
// parameters, validation-loss curve, and the estimator's full attribution
// state (per-epoch phi, totals, and the exact-mode accumulators).
func sameFed(a, b *hfl.Result, ae, be *core.HFLEstimator) bool {
	return reflect.DeepEqual(a.Model.Params(), b.Model.Params()) &&
		reflect.DeepEqual(a.ValLossCurve, b.ValLossCurve) &&
		reflect.DeepEqual(ae.State(), be.State())
}

// Chaos runs the deterministic chaos harness over three seeds: for each, an
// unjournaled reference run, an uninterrupted journaled run (WAL
// transparency), a run whose coordinator is killed at two seeded points and
// recovered from the journal, and a cohort tree whose edge 0 dies mid-round
// — asserting every interrupted run is bit-identical to its reference.
func Chaos(o Opts) *ChaosResult {
	o.validate()
	const n = 4
	const edges = 2
	epochs := o.epochs(10)
	seeds := []int64{o.Seed, o.Seed + 1, o.Seed + 2}

	collector := &obs.Collector{}
	sink := obs.Tee(o.Sink, collector)

	r := &ChaosResult{
		Participants: n, Epochs: epochs, Seeds: seeds,
		WALTransparent: true, CrashIdentical: true, EdgeIdentical: true,
		AsyncIdentical: true,
	}
	fail := func(err error) {
		panic(fmt.Sprintf("experiments: chaos: %v", err))
	}

	for _, seed := range seeds {
		model, parts, val := chaosProblem(seed, o)
		cfg := hfl.Config{Epochs: epochs, LR: 0.3}

		// Unjournaled reference: the pre-WAL coordinator, bit for bit.
		refRes, refEst, refArch, _, err := chaosBuffered(model, parts, val, cfg, nil, nil, o.Sink)
		if err != nil {
			fail(err)
		}

		// Uninterrupted journaled run: the WAL must be invisible in the
		// results.
		walBuf := &bytes.Buffer{}
		walRes, walEst, walArch, _, err := chaosBuffered(model, parts, val, cfg, walBuf, nil, o.Sink)
		if err != nil {
			fail(err)
		}
		r.WALBytes += int64(walBuf.Len())
		if !sameFed(walRes, refRes, walEst, refEst) || !bytes.Equal(walArch.Bytes(), refArch.Bytes()) {
			r.WALTransparent = false
		}

		// Killed-and-recovered run: two seeded kills per seed.
		kills := faults.ChaosSchedule(seed, epochs, 2)
		r.Kills = append(r.Kills, kills)
		crashRes, crashEst, crashArch, restarts, err := chaosBuffered(
			model, parts, val, cfg, &bytes.Buffer{}, kills, sink)
		if err != nil {
			fail(err)
		}
		r.Restarts += restarts
		if !sameFed(crashRes, refRes, crashEst, refEst) || !bytes.Equal(crashArch.Bytes(), refArch.Bytes()) {
			r.CrashIdentical = false
		}

		// Cohort tree with edge 0 dying in round 2, vs the intact tree.
		treeRefRes, treeRefEst, err := chaosTreeRun(model, parts, val, cfg, n, edges, 0, o.Sink)
		if err != nil {
			fail(err)
		}
		treeRes, treeEst, err := chaosTreeRun(model, parts, val, cfg, n, edges, 2, sink)
		if err != nil {
			fail(err)
		}
		if !sameFed(treeRes, treeRefRes, treeEst, treeRefEst) {
			r.EdgeIdentical = false
		}

		// Async leg: the same kill schedule against a K-of-N buffered run
		// under dropout + stragglers, recovered mid-quorum from the WAL,
		// vs the uninterrupted in-process reference.
		asyncRefRes, asyncRefEst, err := chaosAsyncLocal(seed, o, cfg, n, o.Sink)
		if err != nil {
			fail(err)
		}
		asyncRes, asyncEst, asyncRestarts, err := chaosAsync(seed, o, cfg, &bytes.Buffer{}, kills, sink)
		if err != nil {
			fail(err)
		}
		r.AsyncRestarts += asyncRestarts
		if !sameFed(asyncRes, asyncRefRes, asyncEst, asyncRefEst) {
			r.AsyncIdentical = false
		}
	}

	snap := collector.Snapshot()
	r.Recoveries, r.Rejoins, r.Failovers = snap.Recoveries, snap.Rejoins, snap.EdgeFailovers
	r.AsyncStaleFolds = snap.StaleFolds
	return r
}

// Passed reports whether every bit-identity gate held.
func (r *ChaosResult) Passed() bool {
	return r.WALTransparent && r.CrashIdentical && r.EdgeIdentical && r.AsyncIdentical
}

// Render writes the chaos-harness summary.
func (r *ChaosResult) Render(w io.Writer) {
	writeHeader(w, "Chaos harness — crashes and failover vs uninterrupted reference")
	fmt.Fprintf(w, "%d participants, %d epochs, seeds %v\n", r.Participants, r.Epochs, r.Seeds)
	for i, kills := range r.Kills {
		fmt.Fprintf(w, "seed %d coordinator kills: %v\n", r.Seeds[i], kills)
	}
	fmt.Fprintf(w, "restarts=%d recoveries=%d rejoins=%d edge-failovers=%d async-restarts=%d async-stale-folds=%d\n",
		r.Restarts, r.Recoveries, r.Rejoins, r.Failovers, r.AsyncRestarts, r.AsyncStaleFolds)
	fmt.Fprintf(w, "WAL transparent (journaled == unjournaled): %v\n", r.WALTransparent)
	fmt.Fprintf(w, "crash+recover bit-identical (model, curve, phi, archive): %v\n", r.CrashIdentical)
	fmt.Fprintf(w, "edge-death tree bit-identical: %v\n", r.EdgeIdentical)
	fmt.Fprintf(w, "async crash+recover bit-identical (dropout+stragglers, mid-quorum kills): %v\n", r.AsyncIdentical)
	fmt.Fprintf(w, "journal bytes (uninterrupted): %d\n", r.WALBytes)
}

// Tables returns the CSV rendering.
func (r *ChaosResult) Tables() map[string][][]string {
	rows := [][]string{
		{"metric", "value"},
		{"participants", strconv.Itoa(r.Participants)},
		{"epochs", strconv.Itoa(r.Epochs)},
		{"restarts", strconv.Itoa(r.Restarts)},
		{"recoveries", strconv.FormatInt(r.Recoveries, 10)},
		{"rejoins", strconv.FormatInt(r.Rejoins, 10)},
		{"edge_failovers", strconv.FormatInt(r.Failovers, 10)},
		{"wal_transparent", strconv.FormatBool(r.WALTransparent)},
		{"crash_identical", strconv.FormatBool(r.CrashIdentical)},
		{"edge_identical", strconv.FormatBool(r.EdgeIdentical)},
		{"async_identical", strconv.FormatBool(r.AsyncIdentical)},
		{"async_restarts", strconv.Itoa(r.AsyncRestarts)},
		{"async_stale_folds", strconv.FormatInt(r.AsyncStaleFolds, 10)},
		{"wal_bytes", strconv.FormatInt(r.WALBytes, 10)},
	}
	return map[string][][]string{"chaos": rows}
}
