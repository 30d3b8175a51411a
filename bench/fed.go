package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sync"
	"time"

	"digfl/internal/core"
	"digfl/internal/dataset"
	"digfl/internal/faults"
	"digfl/internal/fednet"
	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/robust"
	"digfl/internal/sampling"
	"digfl/internal/tensor"
)

// fedSpec is one networked-coordinator workload: the shape of the
// federation, the round mode, and how many rounds ten seconds measure.
type fedSpec struct {
	name             string
	pop, cohort, dim int
	// A run sets up segments coordinators one after another and drives each
	// for rounds rounds. Every segment replays the same seed-derived rounds,
	// so round k of each segment is the same work, every set-up is a timed
	// sample of setup_s, and a traced run can spend half its segments
	// untraced. rounds is the count at the reference run length
	// (refSeconds); it scales with --seconds, so the counts repeat exactly
	// for a given run length.
	segments, rounds int
	// stream folds on arrival (hfl.MeanStream); async adds the K-of-N
	// commit policy with straggler-scheduled lags on top of it.
	stream    bool
	async     *hfl.AsyncConfig
	straggler float64
	// quarantine runs the paper's Eq. 17–18 rectified reweighting through
	// the live φ stream; journal turns the write-ahead log on.
	quarantine, journal bool
	// growing says a round costs more the later it comes in its segment (the
	// journal's epoch-close record grows with the epoch number), so the
	// quiet estimate compares round k with round k of the other segments and
	// not with its neighbours.
	growing bool
	// readEvery > 0 adds one reader goroutine issuing GET /v1/score, one
	// read due at every readEvery-th round close.
	readEvery int
}

// smoke returns the workload at smoke scale: the same modes and seams on a
// federation small enough for the package test.
func (s *fedSpec) smoke() *fedSpec {
	c := *s
	c.pop, c.dim, c.segments = min(s.pop, 2000), 256, 2
	return &c
}

// Delta pool geometry: poolClasses participant roles × poolPerClass vectors
// each. buffered-wal's 64 participants own one class apiece; the 100k
// populations hash onto them. Every eighth class is adversarial.
const (
	poolClasses  = 64
	poolPerClass = 16
	poolSize     = poolClasses * poolPerClass
)

// fedInputs are everything a fednet workload derives from --seed before the
// clock starts: the validation set, the delta pool, and — from the
// reference run — each round's cohort.
type fedInputs struct {
	spec *fedSpec
	seed int64
	val  dataset.Dataset
	pool [][]float64
}

func newFedInputs(spec *fedSpec, seed int64) *fedInputs {
	in := &fedInputs{spec: spec, seed: seed}
	in.val = dataset.SynthTabular(dataset.TabularConfig{
		Name: "benchval", N: 24, D: spec.dim, Task: dataset.Regression,
		Informative: 8, Noise: 0.3, Seed: seed,
	})
	// Each pool vector is a small step along the initial validation
	// gradient (against it, for an adversarial class) plus unit-norm noise:
	// distinct, full-precision, and with a φ sign the quarantine policy can
	// act on. The scale keeps the model near θ₀ for the whole run, so roles
	// stay stable however many rounds are measured.
	g := nn.NewLinearRegression(spec.dim, false).Grad(in.val.X, in.val.Y)
	tensor.Scale(1/tensor.Norm2(g), g)
	rng := tensor.NewRNG(seed ^ 0x5eed)
	in.pool = make([][]float64, poolSize)
	for j := range in.pool {
		v := rng.NormalVec(spec.dim, 0, 1/math.Sqrt(float64(spec.dim)))
		sign := 0.5
		if (j/poolPerClass)%8 == 7 {
			sign = -0.5
		}
		tensor.AXPY(sign, g, v)
		tensor.Scale(1e-5, v)
		in.pool[j] = v
	}
	return in
}

// delta is participant i's round-t update: a pool vector chosen by a pure
// function of (t, i), so the driver and the reference agree without
// synthesising anything inside the timed loop.
func (in *fedInputs) delta(t, i int) []float64 {
	class := i % poolClasses
	if in.spec.pop > poolClasses {
		class = int((uint64(i) * 0x9E3779B97F4A7C15) >> 58)
	}
	return in.pool[class*poolPerClass+t%poolPerClass]
}

func (in *fedInputs) cfg(rounds int) hfl.Config {
	cfg := hfl.Config{
		Epochs: rounds, LR: 0.05,
		Participants: in.spec.pop,
		RetainDeltas: hfl.ReleaseAfterObserve,
	}
	if in.spec.cohort < in.spec.pop {
		cfg.Sample = sampling.MustNew(sampling.Config{Seed: in.seed, Size: in.spec.cohort})
	}
	if in.spec.straggler > 0 {
		cfg.Faults = faults.MustNew(faults.Config{Seed: in.seed, Straggler: in.spec.straggler})
	}
	return cfg
}

func (in *fedInputs) estimator() *core.HFLEstimator {
	est := core.NewHFLEstimator(in.spec.pop, in.spec.dim, core.ResourceSaving, nil)
	// Streamed large-population rounds keep only the running totals; the
	// journaled buffered run keeps the φ matrix so its journal replays
	// through Coordinator.Recover (which validates one row per epoch).
	est.TotalsOnly = in.spec.stream
	return est
}

// fedReference is the in-process run every networked phase must equal bit
// for bit, plus the cohort schedule it discovered.
type fedReference struct {
	cohorts     [][]int
	params      []float64
	curve       []float64
	totals      []float64
	quarantined []int
}

// refSource feeds the reference trainer the same pool deltas the driver
// posts, through the same public seams the coordinator is built on:
// hfl.MeanStream for streamed rounds, hfl.AsyncPlanner for async ones, raw
// deltas for buffered ones. It records each round's cohort as it goes.
type refSource struct {
	in      *fedInputs
	plan    *hfl.AsyncPlanner
	cohorts [][]int
}

func (s *refSource) Round(_ context.Context, spec *hfl.RoundSpec) (*hfl.RoundResult, error) {
	s.cohorts = append(s.cohorts, spec.Active)
	switch {
	case s.plan != nil:
		sched := s.plan.Schedule(spec.T, spec.Active)
		arrivals := make(map[int][]float64, len(sched.Fresh))
		for _, i := range sched.Fresh {
			// Commit scales committed deltas in place and buffers lagged
			// ones; the coordinator hands it decoded copies, so copy too.
			arrivals[i] = tensor.Clone(s.in.delta(spec.T, i))
		}
		ac, err := s.plan.Commit(spec.T, len(spec.Theta), hfl.MeanStream{}, spec.ValGrad, sched, arrivals)
		if err != nil {
			return nil, err
		}
		return &hfl.RoundResult{Reported: ac.Reported, Agg: ac.Agg, Dots: ac.Dots}, nil
	case s.in.spec.stream:
		fold := hfl.MeanStream{}.NewFold(len(spec.Theta), len(spec.Active), spec.ValGrad)
		for k, i := range spec.Active {
			if err := fold.Add(k, s.in.delta(spec.T, i)); err != nil {
				return nil, err
			}
		}
		fr, err := fold.Close()
		if err != nil {
			return nil, err
		}
		return &hfl.RoundResult{Agg: fr.Sum, Dots: fr.Dots}, nil
	default:
		deltas := make([][]float64, len(spec.Active))
		for k, i := range spec.Active {
			deltas[k] = s.in.delta(spec.T, i)
		}
		return &hfl.RoundResult{Deltas: deltas}, nil
	}
}

// reference runs the in-process trainer for the given number of rounds.
func (in *fedInputs) reference(rounds int) (*fedReference, error) {
	spec := in.spec
	src := &refSource{in: in}
	cfg := in.cfg(rounds)
	est := in.estimator()
	tr := &hfl.Trainer{
		Model: nn.NewLinearRegression(spec.dim, false),
		Val:   in.val, Cfg: cfg, Rounds: src,
	}
	if spec.stream {
		tr.Stream = hfl.MeanStream{}
	}
	if spec.async != nil {
		pl, err := hfl.NewAsyncPlanner(*spec.async, cfg.Faults, nil)
		if err != nil {
			return nil, err
		}
		src.plan = pl
	}
	var quar *robust.Quarantine
	if spec.quarantine {
		quar = robust.MustNewQuarantine(robust.Quarantine{Estimator: est})
		tr.Reweighter = quar
	} else {
		tr.Observer = func(ep *hfl.Epoch) { est.Observe(ep) }
	}
	res, err := tr.RunContext(context.Background())
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	ref := &fedReference{
		cohorts: src.cohorts,
		params:  res.Model.Params(),
		curve:   res.ValLossCurve,
		totals:  est.Attribution().Totals,
	}
	if quar != nil {
		ref.quarantined = quar.Quarantined()
	}
	return ref, nil
}

// fedSetup is one built-and-joined coordinator, ready for its rounds.
type fedSetup struct {
	coord   *fednet.Coordinator
	cl      *client
	journal *countingWriter
	cancel  context.CancelFunc
	done    chan fedRunOut
	// blocks are the set-up's equal pieces, in seconds: building the
	// coordinator plus the first joinBlock joins, then each further
	// joinBlock joins.
	blocks []float64
}

// joinBlock is how many joins one timed piece of set-up covers.
const joinBlock = 1000

// smallSetupJoins is how many joins the set-ups of a population smaller
// than joinBlock add up to over a run.
const smallSetupJoins = 40_000

type fedRunOut struct {
	res *hfl.Result
	err error
}

// coordinator builds the workload's coordinator; traced runs get the
// decorated seams, untraced runs the bare implementations, and nothing else
// differs.
func (in *fedInputs) coordinator(rounds int, tr *tracer, retainJournal bool) *fedSetup {
	spec := in.spec
	coord := &fednet.Coordinator{
		N:         spec.pop,
		Model:     nn.NewLinearRegression(spec.dim, false),
		Val:       in.val,
		Cfg:       in.cfg(rounds),
		Estimator: in.estimator(),
	}
	if spec.stream {
		coord.Stream = hfl.MeanStream{}
		if tr != nil {
			coord.Stream = tracedStream{inner: hfl.MeanStream{}, tr: tr}
		}
	}
	if spec.async != nil {
		ac := *spec.async
		coord.Async = &ac
	}
	if spec.quarantine {
		coord.Quarantine = robust.MustNewQuarantine(robust.Quarantine{})
	}
	s := &fedSetup{coord: coord}
	if spec.journal {
		s.journal = &countingWriter{retain: retainJournal}
		coord.Journal = s.journal
		if tr != nil {
			coord.Journal = tracedWriter{inner: s.journal, tr: tr}
		}
	}
	s.cl = newClient(coord.Handler())
	return s
}

// setup builds a coordinator for the workload, starts its Run, and joins
// the whole population — the system's set-up — timing it piece by piece.
func (in *fedInputs) setup(rounds int, tr *tracer, retainJournal bool) (*fedSetup, error) {
	t0 := time.Now()
	s := in.coordinator(rounds, tr, retainJournal)
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.done = make(chan fedRunOut, 1)
	go func() {
		res, err := s.coord.Run(ctx)
		s.done <- fedRunOut{res, err}
	}()
	for i := 0; i < in.spec.pop; i++ {
		if err := s.cl.join(i); err != nil {
			s.discard()
			return nil, err
		}
		if (i+1)%joinBlock == 0 || i+1 == in.spec.pop {
			now := time.Now()
			s.blocks = append(s.blocks, now.Sub(t0).Seconds())
			t0 = now
		}
	}
	return s, nil
}

// discard stops a set-up coordinator whose run has not been collected.
func (s *fedSetup) discard() {
	if s.done != nil {
		s.cancel()
		<-s.done
		s.done = nil
	}
}

// fedPhase is what the measured phases of a run observed; add folds one
// segment's phase into the run's totals.
type fedPhase struct {
	rounds     int
	wall       time.Duration
	latencies  []float64
	wireBytes  int64
	requests   int64
	failures   int64
	mem        memDelta
	buffered   int64
	excluded   int64
	journal    int64
	scoreLat   []float64 // ms, from due instant to reply
	scoreBusy  time.Duration
	scoreBytes int64
}

func (p *fedPhase) add(q *fedPhase) {
	p.rounds += q.rounds
	p.wall += q.wall
	p.latencies = append(p.latencies, q.latencies...)
	p.wireBytes += q.wireBytes
	p.requests += q.requests
	p.failures += q.failures
	p.mem.add(q.mem)
	p.buffered += q.buffered
	p.excluded += q.excluded
	p.journal += q.journal
	p.scoreLat = append(p.scoreLat, q.scoreLat...)
	p.scoreBusy += q.scoreBusy
	p.scoreBytes += q.scoreBytes
}

// scoreReader is score-readers' one extra goroutine: it issues GET
// /v1/score once per due instant, in order, never skipping one, and times
// each read from the instant it was due.
type scoreReader struct {
	cl  *client
	pop int
	due chan time.Time
	wg  sync.WaitGroup
	tr  *tracer

	latencies []float64 // ms, from due instant to reply
	busy      time.Duration
	replyB    int64
	lastEpoch int
	last      []byte
	err       error
}

func (r *scoreReader) run() {
	defer r.wg.Done()
	n := 0
	for due := range r.due {
		if r.err != nil {
			continue
		}
		n++
		start := time.Now()
		st := r.cl.do("GET", "/v1/score", nil, "", nil)
		end := time.Now()
		r.tr.root("fednet.score_read", start, n)
		r.latencies = append(r.latencies, ms(end.Sub(due)))
		r.busy += end.Sub(start)
		if st != http.StatusOK {
			r.err = r.cl.fail("score read %d: status %d", n, st)
			continue
		}
		body := r.cl.rw.buf
		r.replyB += int64(len(body))
		epochs, totals, err := scanScore(body)
		switch {
		case err != nil:
			r.err = r.cl.fail("score read %d: %v", n, err)
		case totals != r.pop:
			r.err = r.cl.fail("score read %d: %d totals for %d participants", n, totals, r.pop)
		case epochs < r.lastEpoch:
			r.err = r.cl.fail("score read %d: epoch went back from %d to %d", n, r.lastEpoch, epochs)
		}
		r.lastEpoch = epochs
	}
	r.last = append(r.last, r.cl.rw.buf...)
}

// scanScore checks a /v1/score reply's structure without allocating:
// {"epochs":E,"totals":[v,...],...}. It returns E and the number of totals.
// The reader validates every reply this way so that parsing megabytes of
// JSON does not compete with the round loop for the second core; the last
// reply is additionally decoded with encoding/json after the clock stops.
func scanScore(b []byte) (epochs, totals int, err error) {
	const pre, mid = `{"epochs":`, `,"totals":[`
	if len(b) < len(pre) || string(b[:len(pre)]) != pre {
		return 0, 0, fmt.Errorf("score reply does not start with %s", pre)
	}
	i := len(pre)
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		epochs = epochs*10 + int(b[i]-'0')
	}
	if i == len(pre) || len(b) < i+len(mid) || string(b[i:i+len(mid)]) != mid {
		return 0, 0, fmt.Errorf("score reply has no totals array")
	}
	i += len(mid)
	if i < len(b) && b[i] != ']' {
		totals = 1
	}
	for ; i < len(b) && b[i] != ']'; i++ {
		if b[i] == ',' {
			totals++
		}
	}
	if i == len(b) {
		return 0, 0, fmt.Errorf("score reply totals array is not closed")
	}
	return epochs, totals, nil
}

// runPhase drives every round of a set-up coordinator, collects the
// phase's measurements, and checks the outputs against the reference.
func (in *fedInputs) runPhase(s *fedSetup, ref *fedReference, rounds int, tr *tracer) (*fedPhase, error) {
	ph := &fedPhase{rounds: rounds}
	loop := &roundLoop{
		c: s.cl, tr: tr,
		cohort: func(t int) []int { return ref.cohorts[t-1] },
		delta:  in.delta,
	}
	var rd *scoreReader
	if every := in.spec.readEvery; every > 0 {
		rd = &scoreReader{
			cl: newClient(s.cl.h), pop: in.spec.pop, tr: tr,
			// One send per due read; the buffer holds them all so the
			// driver never blocks on the reader.
			due: make(chan time.Time, rounds/every+1),
		}
		rd.wg.Add(1)
		go rd.run()
		loop.onOpen = func(t int, at time.Time) {
			// Round t opening means round t-1 closed.
			if t > 1 && (t-1)%every == 0 {
				rd.due <- at
			}
		}
	}
	req0, fail0 := s.cl.requests, s.cl.failures
	bytes0 := s.cl.reqBytes + s.cl.respBytes
	var journal0 int64
	if s.journal != nil {
		journal0 = s.journal.bytes.Load()
	}
	m0 := readMem(true)
	err := loop.run(rounds)
	if rd != nil {
		close(rd.due)
		rd.wg.Wait()
	}
	if err != nil {
		return nil, err
	}
	out := <-s.done
	ph.mem = readMem(false).since(m0)
	s.cancel()
	s.done = nil
	if out.err != nil {
		return nil, fmt.Errorf("coordinator run: %w", out.err)
	}
	ph.wall = loop.opened[rounds].Sub(loop.opened[0])
	ph.latencies = loop.latencies()
	ph.requests = s.cl.requests - req0
	ph.failures = s.cl.failures - fail0
	ph.wireBytes = s.cl.reqBytes + s.cl.respBytes - bytes0
	ph.buffered, ph.excluded = loop.buffered, loop.excluded
	if s.journal != nil {
		ph.journal = s.journal.bytes.Load() - journal0
	}
	if rd != nil {
		ph.requests += rd.cl.requests
		ph.failures += rd.cl.failures
		ph.wireBytes += rd.cl.reqBytes + rd.cl.respBytes
		ph.scoreLat, ph.scoreBusy, ph.scoreBytes = rd.latencies, rd.busy, rd.replyB
	}
	return ph, in.check(s, out.res, ref, rd, rounds)
}

// check compares a networked phase's outputs with the reference.
func (in *fedInputs) check(s *fedSetup, res *hfl.Result, ref *fedReference, rd *scoreReader, rounds int) error {
	if !equalBits(res.Model.Params(), ref.params) {
		return fmt.Errorf("model parameters differ from the in-process reference")
	}
	if !equalBits(res.ValLossCurve, ref.curve) {
		return fmt.Errorf("validation-loss curve differs from the in-process reference")
	}
	if !equalBits(s.coord.Estimator.Attribution().Totals, ref.totals) {
		return fmt.Errorf("φ totals differ from the in-process reference")
	}
	if s.coord.Quarantine != nil {
		if got := s.coord.Quarantine.Quarantined(); !slices.Equal(got, ref.quarantined) {
			return fmt.Errorf("quarantined %v, reference %v", got, ref.quarantined)
		}
	}
	if rd != nil {
		if rd.err != nil {
			return rd.err
		}
		if want := rounds / in.spec.readEvery; len(rd.latencies) != want {
			return fmt.Errorf("%d score reads completed, %d were due", len(rd.latencies), want)
		}
		var reply struct {
			Epochs int       `json:"epochs"`
			Totals []float64 `json:"totals"`
		}
		if err := json.Unmarshal(rd.last, &reply); err != nil {
			return fmt.Errorf("last score reply: %v", err)
		}
		if reply.Epochs != rd.lastEpoch || len(reply.Totals) != in.spec.pop {
			return fmt.Errorf("last score reply decodes to %d epochs, %d totals", reply.Epochs, len(reply.Totals))
		}
	}
	return nil
}

// equalBits reports whether two float vectors are bit-identical.
func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// scaleRounds sizes a measured count to the requested run length, keeping
// at least min rounds (the smoke test runs at a fraction of a second).
func scaleRounds(base int, seconds float64, min int) int {
	n := int(math.Round(float64(base) * seconds / refSeconds))
	if n < min {
		n = min
	}
	return n
}

// fedRounds is the measured round count of one segment.
func fedRounds(spec *fedSpec, o runOpts) int {
	return scaleRounds(spec.rounds, o.seconds, 2*max(spec.readEvery, 8))
}

// runFed runs one fednet workload: inputs and reference, then per segment a
// timed set-up, the measured rounds and the checks. A traced run traces
// every other segment, so that a drift of the host falls on both halves; the
// ratio of the two halves' walls is the tracing overhead.
func runFed(spec *fedSpec, o runOpts) (*result, error) {
	if o.smoke {
		spec = spec.smoke()
	}
	rounds := fedRounds(spec, o)
	res := newResult(spec.name, o)
	res.stamp["rounds"] = spec.segments * rounds
	res.stamp["segments"] = spec.segments
	in := newFedInputs(spec, o.seed)
	ref, err := in.reference(rounds)
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if o.trace {
		tr = newTracer(spec.segments / 2 * rounds * (4*spec.cohort + 8))
	}
	var plain, traced fedPhase
	var setupBlocks []float64
	// The host is probed before every few segments and after the last.
	probeEvery := (spec.segments + 3) / 4
	// A set-up of fewer joins than one block lasts a fraction of a
	// millisecond, and one per segment does not place a low quantile: each
	// segment first times spare set-ups, so that over the run they add up to
	// as many joins as the large populations' set-ups make.
	spareSetups := 0
	if spec.pop < joinBlock {
		spareSetups = smallSetupJoins / spec.pop / spec.segments
	}
	for seg := 0; seg < spec.segments; seg++ {
		var str *tracer
		into := &plain
		if o.trace && seg%2 == 1 {
			str, into = tr, &traced
		}
		if seg%probeEvery == 0 {
			res.host.sample()
		}
		for rep := 0; rep < spareSetups; rep++ {
			s, err := in.setup(rounds, nil, false)
			if err != nil {
				return nil, err
			}
			setupBlocks = append(setupBlocks, s.blocks...)
			s.discard()
		}
		s, err := in.setup(rounds, str, o.retainJournal)
		if err != nil {
			return nil, err
		}
		setupBlocks = append(setupBlocks, s.blocks...)
		ph, err := in.runPhase(s, ref, rounds, str)
		if ph == nil {
			s.discard()
			return nil, err
		}
		if err != nil {
			res.fail(err)
		}
		into.add(ph)
		if s.journal != nil && o.retainJournal {
			res.journal = s.journal.buf
		}
	}
	res.host.sample()
	res.attempted = plain.requests + traced.requests
	res.failed = plain.failures + traced.failures

	blocksPerSetup := (spec.pop + joinBlock - 1) / joinBlock
	period := 1
	if spec.growing {
		period = rounds
	}
	res.timing(quiet(setupBlocks, 1)*float64(blocksPerSetup), plain.rounds, plain.wall, plain.latencies, period)
	res.e2e(plain.rounds, float64(plain.wireBytes)/float64(plain.rounds), plain.mem)
	if !o.trace {
		return res, nil
	}

	calls, gaps := driverTimeline(tr)
	total, children := tr.totals()
	perRound := func(d time.Duration) float64 { return ms(d) / float64(traced.rounds) }
	res.layer("fednet.turnaround_ms_per_round", perRound(calls["fednet.turnaround"]))
	res.layer("fednet.poll_ms_per_round", perRound(calls["fednet.poll"]))
	res.layer("fednet.update_self_ms_per_round", perRound(calls["fednet.update"]-children["fednet.update"]))
	res.layer("fednet.journal_write_ms_per_round", perRound(total["fednet.journal_write"]))
	res.layer("fednet.journal_bytes_per_round", float64(traced.journal)/float64(traced.rounds))
	res.layer("fednet.join_us", median(setupBlocks)*1e6/float64(min(spec.pop, joinBlock)))
	res.layer("fednet.buffered_acks_per_round", float64(traced.buffered)/float64(traced.rounds))
	res.layer("fednet.excluded_polls_per_round", float64(traced.excluded)/float64(traced.rounds))
	res.layer("hfl.fold_add_ms_per_round", perRound(total["hfl.fold_add"]))
	res.layer("hfl.fold_close_ms_per_round", perRound(total["hfl.fold_close"]))
	if len(traced.scoreLat) > 0 {
		lat := sortedCopy(traced.scoreLat)
		res.layer("score_p50_ms", quantile(lat, 0.50))
		res.layer("score_p90_ms", quantile(lat, 0.90))
		res.layer("fednet.score_reply_kb", float64(traced.scoreBytes)/1024/float64(len(lat)))
		res.layer("fednet.score_busy_frac", traced.scoreBusy.Seconds()/traced.wall.Seconds())
		res.stamp["score_reads"] = len(lat)
	}
	// The driver's timeline is its handler calls and the gaps between them:
	// turnaround + polls + updates + driver self must rebuild the rounds the
	// driver observed, or a call ran outside a span or against the wrong one.
	sum := gaps
	for _, d := range calls {
		sum += d
	}
	if off := math.Abs(sum.Seconds()-traced.wall.Seconds()) / traced.wall.Seconds(); off > phaseSumTolerance {
		res.fail(fmt.Errorf("traced phases sum to %v, the driver observed %v (off by %.2f%%)", sum, traced.wall, 100*off))
	}
	selfFrac := gaps.Seconds() / traced.wall.Seconds()
	res.layer("bench.driver_self_frac", selfFrac)
	if selfFrac > maxDriverSelfFrac && !o.smoke {
		res.fail(fmt.Errorf("driver self time is %.3f of the round, limit %.2f", selfFrac, maxDriverSelfFrac))
	}
	res.layer("bench.trace_overhead_frac", traced.wall.Seconds()/plain.wall.Seconds()-1)
	res.gc(traced.mem)
	res.tracer = tr
	return res, nil
}

// driverTimeline walks the driver goroutine's spans — turnaround, poll,
// update, in the order the closed loop issued them — and returns the time
// inside each kind of call and the time between calls, which is the
// driver's own. Each segment is walked from the instant its round 1 opened
// (the end of its first turnaround) to the instant it reported done, so the
// set-up between segments is nobody's round.
func driverTimeline(tr *tracer) (calls map[string]time.Duration, gaps time.Duration) {
	calls = map[string]time.Duration{}
	prevEnd := int64(-1)
	for _, s := range tr.spans {
		switch s.Name {
		case "fednet.turnaround", "fednet.poll", "fednet.update":
		default:
			continue
		}
		if s.Name == "fednet.turnaround" && s.Round == 1 {
			prevEnd = -1
		}
		if prevEnd >= 0 {
			gaps += time.Duration(s.Start - prevEnd)
			calls[s.Name] += time.Duration(s.End - s.Start)
		}
		prevEnd = s.End
	}
	return calls, gaps
}

// fedSpecs are the four networked workloads. The names are the contract
// later issues cite; the round counts are what refSeconds measures on the
// two-core reference machine.
var fedSpecs = []*fedSpec{
	{name: "stream-100k", pop: 100_000, cohort: 64, dim: 2000, segments: 4, rounds: 1000, stream: true},
	{name: "async-100k", pop: 100_000, cohort: 64, dim: 2000, segments: 4, rounds: 900, stream: true,
		async: &hfl.AsyncConfig{Quorum: 48, MaxStaleness: 3}, straggler: 0.3},
	{name: "buffered-wal", pop: 64, cohort: 64, dim: 2000, segments: 30, rounds: 60,
		quarantine: true, journal: true, growing: true},
	{name: "score-readers", pop: 100_000, cohort: 64, dim: 2000, segments: 4, rounds: 1000, stream: true,
		readEvery: 40},
}

func init() {
	for _, spec := range fedSpecs {
		spec := spec
		workloads[spec.name] = func(o runOpts) (*result, error) { return runFed(spec, o) }
	}
}
