package fednet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"digfl/internal/core"
	"digfl/internal/dataset"
	"digfl/internal/hfl"
	"digfl/internal/jsonf"
	"digfl/internal/logio"
	"digfl/internal/nn"
	"digfl/internal/obs"
	"digfl/internal/robust"
	"digfl/internal/shapley"
	"digfl/internal/tensor"
)

// Coordinator is the server side of the networked runtime: it owns the
// global model, the validation set, and the round loop, and serves the
// wire protocol to N participants. It implements hfl.RoundSource — Run
// drives an ordinary hfl.Trainer whose per-epoch local updates arrive over
// HTTP instead of from in-process dataset shards.
//
// Zero-valued fields mean: no reweighter, no aggregator override, no
// estimator (score endpoint disabled), no round deadline (each round waits
// for every active participant — appropriate only when participants are
// trusted to always report), no archive.
type Coordinator struct {
	// N is the expected participant count; Run blocks until all N joined.
	N int
	// Model is the global model prototype (the trainer clones it).
	Model nn.Model
	// Val is the server-side validation dataset.
	Val dataset.Dataset
	// Cfg holds the training hyperparameters. Cfg.Runtime.Sink also
	// receives the networked runtime's events: one NetRoundStart/End pair
	// per round, a NetRequest per wire request handled, and a NetTimeout
	// per participant that missed a round deadline.
	Cfg hfl.Config
	// Reweighter, Aggregator and Observer are passed through to the
	// underlying trainer.
	Reweighter hfl.Reweighter
	Aggregator hfl.Aggregator
	Observer   hfl.Observer
	// Screen, when non-nil, vets every round's collected updates before
	// aggregation (hfl.Trainer.Screen semantics) — the second line of
	// defense behind the wire-level shape and finiteness rejections.
	Screen hfl.Screener
	// Quarantine, when non-nil, is wired as the trainer's reweighter (the
	// Reweighter field must then be nil) and its ban state is surfaced on
	// /v1/score. When Quarantine.Estimator is nil and Estimator is set,
	// the coordinator hands its estimator to the policy, so one φ stream
	// feeds the score endpoint and the bans; the estimator is then fed
	// through the quarantine's Weights call instead of the Observer.
	Quarantine *robust.Quarantine
	// Estimator, when non-nil, observes every epoch (under the
	// coordinator's lock) and backs the /v1/score endpoint, so
	// contribution evaluation runs server-side inside the live round loop.
	Estimator *core.HFLEstimator
	// Engine, when non-nil, is a pluggable contribution engine
	// (internal/shapley) that observes every epoch under the coordinator's
	// lock; /v1/score reports its name, running φ totals, and utility-eval
	// cost alongside the DIG-FL estimator's attribution. Setting
	// Cfg.Engine is equivalent — the coordinator promotes a config-carried
	// engine here so all observation is race-free against score reads.
	// Engines need the round buffer's raw deltas, so Engine cannot compose
	// with Stream or Edges; engine state is not journaled, so Engine
	// cannot compose with Journal or Recover.
	Engine shapley.Engine
	// RoundDeadline bounds how long a round stays open once broadcast.
	// Participants that have not reported when it expires are dropped from
	// the epoch (Epoch.Reported survivor semantics); 0 waits for everyone.
	RoundDeadline time.Duration
	// Archive, when non-nil, streams every closed epoch to this writer in
	// the logio HFL training-log format as the run progresses. Archives
	// need the raw deltas, so Archive cannot compose with Stream.
	Archive io.Writer
	// Stream, when non-nil, switches /v1/update ingest to fold-on-arrival:
	// each accepted delta is folded into the round's accumulator under the
	// coordinator's lock and released, so round memory is O(d + cohort)
	// instead of O(cohort·d) — the networked half of hfl.Trainer.Stream.
	// Streaming rounds carry DeltaDots to the estimator (ResourceSaving
	// mode only) and cannot compose with Aggregator, Reweighter,
	// Quarantine, Screen, or Archive, which all need the round buffer.
	Stream hfl.StreamAggregator
	// IngestScreen, when non-nil (requires Stream), norm-clips each
	// accepted update at ingest against the screen's running
	// median-of-norms as of the previous round, advancing the median at
	// round close — the streaming form of the buffered Screen defense
	// (robust.UpdateScreen.ClipNow). Wire-level shape and finiteness
	// rejections still happen first.
	IngestScreen *robust.UpdateScreen
	// Edges, when positive (requires Stream), switches streaming rounds
	// from per-participant /v1/update ingest to /v1/partial ingest from
	// this many edge sub-aggregators (EdgeAggregator): each edge folds its
	// cohort segment and the root merges the partials in edge order, so a
	// two-level tree reduces in the canonical hfl.MeanStream segmented
	// order and stays bit-identical to a flat streamed run with Seg =
	// edge width.
	Edges int
	// Journal, when non-nil, turns on the coordinator's write-ahead log
	// (digfl-fednet-wal/1, see wal.go): every commit the round's outcome
	// depends on is journaled before it is acknowledged, so a coordinator
	// that dies mid-round can be rebuilt bit-identically — hand the journal
	// to a fresh Coordinator's Recover, then Run. Each record is written
	// with exactly one Write call; wrap the writer if it needs locking.
	// Journaling cannot compose with Screen or IngestScreen (clipping
	// rewrites updates after the journaled bytes, so replay would diverge)
	// or a user-set Cfg.Resume (the journal owns the resume point).
	Journal io.Writer
	// FailoverGrace, when positive on an edge-mode run, arms the root's
	// re-solicitation path: once the round has been open longer than the
	// grace with a participant's slot still unfolded, that participant's
	// next-round poll (?i=) answers Resubmit, telling it to re-send its
	// round-T update directly to the root — its edge aggregator died after
	// acknowledging the update, so the root never saw it. 0 (the default)
	// disables re-solicitation and keeps the pre-failover semantics: a dead
	// edge's whole cohort misses the round at the deadline.
	FailoverGrace time.Duration
	// EdgeWidth overrides the edge cohort width used to reconstruct a dead
	// edge's segment from direct submissions (global index i belongs to
	// edge i/EdgeWidth); 0 means ceil(N/Edges), the TreeLoopback partition.
	EdgeWidth int
	// Async, when non-nil (requires Stream), switches the round loop to the
	// asynchronous buffered commit policy (hfl.AsyncConfig): each round's
	// cohort is the planner's fresh set, a scheduled-lagged arrival buffers
	// across epochs (acknowledged 202 buffered), a late update for an older
	// round is admitted into the buffer while it is within MaxStaleness
	// epochs (202 buffered) and refused with 409 too_stale beyond it, and
	// the epoch commits the quorum's worth of candidates at a deterministic
	// staleness discount. Async cannot compose with Edges, and a
	// buffered-only Aggregator (median, trimmed mean, the Krum family)
	// refuses with hfl.BufferedRuleError. Cfg.Faults supplies the lag
	// schedule and tie-break seed.
	Async *hfl.AsyncConfig

	mu      sync.Mutex
	changed chan struct{}
	joined  []bool
	nJoined int
	started bool
	round   *openRound
	done    bool
	runErr  error

	// Crash-safety state: the journal's append side, the replayed state a
	// Recover call grafts into the first round, the coordinator incarnation
	// (1 for a fresh run, +1 per recovery), and the recovering flag that
	// 503s round traffic until the rejoin barrier refills.
	wal        *WAL
	rec        *walReplay
	instance   int
	recovering bool
	archStage  *bytes.Buffer

	// asyncPlan executes the Async commit policy; built by run, accessed
	// under mu (Round's schedule/commit, ingest's late admits, journalClose's
	// buffer snapshot).
	asyncPlan *hfl.AsyncPlanner
}

// openRound is the coordinator's mutable view of the in-flight round.
type openRound struct {
	t        int
	lr       float64
	theta    []float64
	deadline time.Time // zero = none
	slots    map[int]int
	order    []int
	deltas   [][]float64
	got      int
	closed   bool

	// bcast is the round's digfl-fednet/2 broadcast frame (theta, no
	// validation gradient, zero deadline), encoded by the first poll that
	// wants it and shared, immutable, by every later one. A poll may
	// still be writing it after the round closed, so it is never recycled.
	bcast []byte

	// Streaming-round state (Coordinator.Stream): the fold replaces the
	// deltas buffer, folded tracks which slots committed, valGrad is the
	// round's ∇loss^v(θ_{t-1}) (served to edges via ?vg=1), and norms
	// collects pre-clip update norms for IngestScreen.ObserveNorms.
	fold    hfl.Fold
	folded  []bool
	valGrad []float64
	norms   []float64

	// Edge-mode state (Coordinator.Edges): per-edge unscaled partial sums,
	// their slot positions, and their validation dot products. The root
	// merges them in edge order at round close.
	parts    [][]float64
	partIdx  [][]int
	partDots [][]float64

	// Edge-failover state: direct updates accepted on an edge-mode round
	// after the member's edge died, keyed by slot, with their validation
	// dot products. The close-time merge reconstructs the dead edge's
	// segment from them. openedAt arms FailoverGrace (zero when
	// re-solicitation is off).
	direct     map[int][]float64
	directDots map[int]float64
	openedAt   time.Time

	// Async-round state (Coordinator.Async): the epoch's arrival plan.
	// order/slots/deltas cover only the schedule's fresh cohort; the round
	// closes when every fresh member posted and the quorum cut happens in
	// the planner's Commit.
	async *hfl.AsyncSchedule
}

// streaming reports whether this round folds on arrival.
func (r *openRound) streaming() bool { return r.fold != nil || r.parts != nil }

// initLocked lazily initializes the shared state; callers hold mu.
func (c *Coordinator) initLocked() {
	if c.changed == nil {
		c.changed = make(chan struct{})
		c.joined = make([]bool, c.N)
		if c.instance == 0 {
			c.instance = 1
		}
	}
}

// bcastLocked wakes every waiter; callers hold mu.
func (c *Coordinator) bcastLocked() {
	close(c.changed)
	c.changed = make(chan struct{})
}

// arrivedLocked counts n more of round r's slots as reported and wakes the
// round loop if that completes the round. Round acts on no other arrival —
// it re-checks only r.got == len(r.order) — so waking it per update would buy
// one goroutine switch each and nothing else; deadline expiry, cancellation
// and a poisoned journal reach it through their own channels and broadcasts.
// Callers hold mu.
func (c *Coordinator) arrivedLocked(r *openRound, n int) {
	r.got += n
	if r.got == len(r.order) {
		c.bcastLocked()
	}
}

// Run waits for all N participants to join, trains Cfg.Epochs rounds over
// the wire, and returns the result — bit-identical to the in-process
// trainer when every participant reports every round. On return (success
// or failure) the protocol state is marked done, so polling participants
// exit cleanly. Run must be called exactly once.
func (c *Coordinator) Run(ctx context.Context) (*hfl.Result, error) {
	if c.N <= 0 {
		return nil, errors.New("fednet: coordinator needs N > 0 participants")
	}
	if c.Model == nil {
		return nil, errors.New("fednet: coordinator needs a model prototype")
	}
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return nil, errors.New("fednet: coordinator already run")
	}
	c.started = true
	c.initLocked()
	c.mu.Unlock()

	res, err := c.run(ctx)
	if err == nil && c.wal != nil {
		// Advisory close marker: a later Recover on this journal reports
		// the run complete instead of resuming it.
		_ = c.wal.appendJSON(walRecord{Kind: walKindRunClose})
	}
	c.mu.Lock()
	c.done = true
	c.runErr = err
	c.bcastLocked()
	c.mu.Unlock()
	return res, err
}

func (c *Coordinator) run(ctx context.Context) (*hfl.Result, error) {
	if c.Cfg.Engine != nil {
		// Promote a config-carried engine to the coordinator field: the
		// trainer's unlocked Observe would race with /v1/score reads, so
		// the coordinator observes it under c.mu instead (the trainer's
		// copy of the config is cleared below).
		eng, ok := c.Cfg.Engine.(shapley.Engine)
		if !ok {
			return nil, errors.New("fednet: Cfg.Engine must be a shapley.Engine (the coordinator reports it on /v1/score)")
		}
		if c.Engine != nil && c.Engine != eng {
			return nil, errors.New("fednet: set Engine or Cfg.Engine, not both")
		}
		// Score handlers may already be serving; the field write needs the
		// same lock the handler reads under.
		c.mu.Lock()
		c.Engine = eng
		c.mu.Unlock()
	}
	if c.Engine != nil {
		if c.Stream != nil {
			return nil, errors.New("fednet: Engine cannot compose with Stream — engines need the round buffer's raw deltas")
		}
		if c.Journal != nil || c.rec != nil {
			return nil, errors.New("fednet: Engine cannot compose with Journal or Recover — engine state is not journaled, so a recovery would replay a log gap")
		}
	}
	if c.Async != nil {
		if c.Stream == nil {
			return nil, errors.New("fednet: Async requires Stream (async commits are folded on acceptance, never buffered)")
		}
		if c.Edges > 0 {
			return nil, errors.New("fednet: Async cannot compose with Edges (edge partials pre-fold the cohort before the quorum cut)")
		}
		// The typed refusal precedes the generic Stream×Aggregator check so
		// callers can errors.As the buffered-rule incompatibility.
		if br, ok := c.Aggregator.(hfl.BufferedRule); ok && br.NeedsBuffer() {
			return nil, &hfl.BufferedRuleError{Rule: fmt.Sprintf("%T", c.Aggregator), Path: "Async"}
		}
		pl, err := hfl.NewAsyncPlanner(*c.Async, c.Cfg.Faults, c.Cfg.Runtime.Sink)
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.asyncPlan = pl
		c.mu.Unlock()
	}
	if c.Journal != nil {
		if c.Screen != nil || c.IngestScreen != nil {
			return nil, errors.New("fednet: Journal cannot compose with Screen or IngestScreen (clipping rewrites updates after the journaled bytes)")
		}
		if c.Cfg.Resume != nil {
			return nil, errors.New("fednet: Journal owns the resume point; clear Cfg.Resume and use Recover")
		}
		c.mu.Lock()
		c.initLocked()
		c.wal = newWAL(c.Journal, c.Cfg.Runtime.Sink)
		inst := c.instance
		c.mu.Unlock()
		// Every incarnation opens the run: replay learns the restart count
		// and validates the shape before trusting any older record.
		if err := c.wal.appendJSON(walRecord{Kind: walKindRunOpen, Protocol: WALProtocol,
			Instance: inst, N: c.N, Epochs: c.Cfg.Epochs, Params: c.Model.NumParams()}); err != nil {
			return nil, err
		}
	}

	// Join barrier: every round broadcast assumes the full population is
	// listening, so training starts only when all N slots are claimed.
	// A recovered coordinator holds this barrier too — its participants
	// see 503 recovering on every round poll until they re-join.
	for {
		c.mu.Lock()
		joined := c.nJoined
		ch := c.changed
		c.mu.Unlock()
		if joined == c.N {
			break
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, fmt.Errorf("fednet: waiting for %d/%d participants: %w", joined, c.N, ctx.Err())
		}
	}

	cfg := c.Cfg
	cfg.Participants = c.N
	// The coordinator observes a promoted engine under its lock; the
	// trainer must not observe it a second time.
	cfg.Engine = nil
	// Crash recovery: resume the trainer from the journal's last closed
	// epoch. The open round's commits (if the crash was mid-round) graft
	// into the first Round call. Note the recovered Result.Log carries only
	// post-recovery epochs — the journal checkpoints model, curve, and
	// estimator state, not raw per-epoch deltas.
	rec := c.rec
	if rec != nil && rec.lastClosed > 0 {
		cfg.Resume = &hfl.Checkpoint{Epoch: rec.lastClosed, Theta: rec.theta, ValLossCurve: rec.curve}
	}
	if c.asyncPlan != nil && rec != nil && len(rec.buffered) > 0 {
		// Reinstall the journaled carry-over buffer before the grafted round
		// re-derives its schedule: the buffer decides who is in flight.
		entries := make([]*hfl.AsyncEntry, 0, len(rec.buffered))
		for i, b := range rec.buffered {
			entries = append(entries, &hfl.AsyncEntry{Part: i, Origin: b.origin, Due: b.due, Delta: b.delta})
		}
		c.asyncPlan.SetBuffer(entries)
	}
	if c.wal != nil {
		// Journal every closed epoch before the next opens: the checkpoint
		// carries the exact state a recovery resumes from. A user
		// checkpoint hook still fires at its own cadence.
		userEvery, userFunc := cfg.CheckpointEvery, cfg.CheckpointFunc
		cfg.CheckpointEvery = 1
		cfg.CheckpointFunc = func(ck *hfl.Checkpoint) error {
			if err := c.journalClose(ck); err != nil {
				return err
			}
			if userFunc != nil && userEvery > 0 && ck.Epoch%userEvery == 0 {
				return userFunc(ck)
			}
			return nil
		}
	}
	if c.Stream != nil {
		if c.Aggregator != nil || c.Reweighter != nil || c.Quarantine != nil || c.Screen != nil {
			return nil, errors.New("fednet: Stream cannot compose with Aggregator, Reweighter, Quarantine, or Screen (they need the round buffer)")
		}
		if c.Archive != nil {
			return nil, errors.New("fednet: Stream cannot compose with Archive (the archive needs the raw deltas)")
		}
	} else {
		if c.IngestScreen != nil {
			return nil, errors.New("fednet: IngestScreen requires Stream (buffered rounds use Screen)")
		}
		if c.Edges > 0 {
			return nil, errors.New("fednet: Edges requires Stream (edge partials are pre-folded)")
		}
	}
	reweighter := c.Reweighter
	estimatorObserves := c.Estimator != nil
	if c.Quarantine != nil {
		if c.Reweighter != nil {
			return nil, errors.New("fednet: set Reweighter or Quarantine, not both")
		}
		if c.Quarantine.Estimator == nil && c.Estimator != nil {
			c.Quarantine.Estimator = c.Estimator
		}
		if c.Quarantine.Estimator == c.Estimator {
			// The quarantine's Weights call feeds the estimator; observing
			// again would double-count the epoch.
			estimatorObserves = false
		}
		// Weights mutates quarantine state read by /v1/score handlers, so
		// serialize it with the coordinator's lock.
		reweighter = &lockedReweighter{c: c, rw: c.Quarantine}
	}
	observer := c.Observer
	if estimatorObserves {
		est, user := c.Estimator, c.Observer
		observer = func(ep *hfl.Epoch) {
			c.mu.Lock()
			est.Observe(ep)
			c.mu.Unlock()
			if user != nil {
				user(ep)
			}
		}
	}
	if c.Engine != nil {
		// Engine φ state is read live by /v1/score, so observation happens
		// under the coordinator's lock, like the estimator's.
		eng, user := c.Engine, observer
		observer = func(ep *hfl.Epoch) {
			c.mu.Lock()
			eng.Observe(ep)
			c.mu.Unlock()
			if user != nil {
				user(ep)
			}
		}
	}
	if c.Archive != nil {
		var sw *logio.HFLWriter
		var err error
		if c.wal != nil {
			// Stage epochs in memory and flush to the real archive only
			// after the epoch's WAL commit: the journal, not the archive,
			// is the source of truth, and an epoch whose close record tore
			// must not reach the archive (its replay re-runs the epoch and
			// would archive it twice).
			c.archStage = &bytes.Buffer{}
			if rec != nil && rec.lastClosed > 0 {
				sw, err = logio.ResumeHFLWriter(c.archStage, c.Model.NumParams(), c.N, rec.lastClosed)
			} else {
				sw, err = logio.NewHFLWriter(c.archStage, c.Model.NumParams(), c.N)
			}
		} else {
			sw, err = logio.NewHFLWriter(c.Archive, c.Model.NumParams(), c.N)
		}
		if err != nil {
			return nil, fmt.Errorf("fednet: opening archive: %w", err)
		}
		user := observer
		observer = func(ep *hfl.Epoch) {
			// A poisoned archive must not abort training; the sticky error
			// surfaces through the writer's Err.
			_ = sw.WriteEpoch(ep)
			if user != nil {
				user(ep)
			}
		}
	}
	tr := &hfl.Trainer{
		Model: c.Model, Val: c.Val, Cfg: cfg,
		Reweighter: reweighter, Aggregator: c.Aggregator,
		Screen: c.Screen, Observer: observer, Rounds: c,
		Stream: c.Stream,
	}
	return tr.RunContext(ctx)
}

// lockedReweighter serializes a reweighter whose state is also read by the
// coordinator's HTTP handlers (the quarantine ban list).
type lockedReweighter struct {
	c  *Coordinator
	rw hfl.Reweighter
}

func (l *lockedReweighter) Weights(ep *hfl.Epoch) []float64 {
	l.c.mu.Lock()
	defer l.c.mu.Unlock()
	return l.rw.Weights(ep)
}

// Recover replays a write-ahead journal into this not-yet-run coordinator:
// the trainer resumes from the last journaled epoch close, the estimator
// and quarantine state reinstall from the same record, and the open
// round's committed updates (if the crash was mid-round) graft into the
// first Round call — so the recovered run is bit-identical to one that
// never crashed. Call it after the coordinator's fields are configured
// (the replay validates N, Epochs, and the model's parameter count) and
// before Run.
//
// Recover returns the number of journal bytes it consumed. A torn final
// record — the crash artifact — is skipped, not replayed; truncate the
// journal file to the returned length before handing its append side to
// Journal, so the next incarnation's records land on a clean prefix.
func (c *Coordinator) Recover(r io.Reader) (int64, error) {
	rep, err := replayWAL(r)
	if err != nil {
		return 0, err
	}
	if !rep.sawRunOpen {
		return 0, errors.New("fednet: WAL journal has no run_open record")
	}
	if rep.runClosed {
		return 0, errors.New("fednet: WAL journal records a completed run")
	}
	if rep.n != c.N || rep.epochs != c.Cfg.Epochs {
		return 0, fmt.Errorf("fednet: WAL journal is for n=%d epochs=%d, coordinator has n=%d epochs=%d",
			rep.n, rep.epochs, c.N, c.Cfg.Epochs)
	}
	if c.Model != nil && rep.params != c.Model.NumParams() {
		return 0, fmt.Errorf("fednet: WAL journal is for a %d-param model, coordinator has %d",
			rep.params, c.Model.NumParams())
	}
	if c.Estimator != nil && rep.est != nil {
		if err := c.Estimator.SetState(rep.est); err != nil {
			return 0, fmt.Errorf("fednet: reinstalling estimator state: %w", err)
		}
	}
	if c.Quarantine != nil && rep.quar != nil {
		if err := c.Quarantine.SetState(rep.quar); err != nil {
			return 0, fmt.Errorf("fednet: reinstalling quarantine state: %w", err)
		}
	}
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return 0, errors.New("fednet: Recover must precede Run")
	}
	c.rec = rep
	c.instance = rep.instance + 1
	c.recovering = true
	c.mu.Unlock()
	obs.Emit(c.Cfg.Runtime.Sink, obs.Event{Kind: obs.KindRecover,
		T: rep.lastClosed + 1, N: int64(rep.records)})
	return rep.consumed, nil
}

// journalClose appends an epoch's close record — model, curve, estimator
// and quarantine state — then flushes the staged archive epochs the commit
// just made durable.
func (c *Coordinator) journalClose(ck *hfl.Checkpoint) error {
	rec := walRecord{Kind: walKindEpochClose, T: ck.Epoch,
		Theta: jsonf.Vec(ck.Theta), Curve: jsonf.Vec(ck.ValLossCurve)}
	c.mu.Lock()
	if c.Estimator != nil {
		rec.Estimator = toWalEst(c.Estimator.State())
	}
	if c.Quarantine != nil {
		rec.Quarantine = toWalQuar(c.Quarantine.State())
	}
	if c.asyncPlan != nil {
		// Snapshot the post-commit carry-over buffer: replay resolves each
		// entry's delta from the round's journaled frames, so the checkpoint
		// stays metadata-sized. The buffer is stable here — late admits are
		// gated on an open round, and the next round has not opened yet.
		for _, e := range c.asyncPlan.Buffer() {
			rec.Buffered = append(rec.Buffered, walBufEntry{Part: e.Part, Origin: e.Origin, Due: e.Due})
		}
	}
	c.mu.Unlock()
	if err := c.wal.appendJSON(rec); err != nil {
		return err
	}
	if c.archStage != nil && c.archStage.Len() > 0 {
		// Best-effort, like the unjournaled archive path: a poisoned
		// archive must not abort training — the journal holds the truth.
		_, _ = c.Archive.Write(c.archStage.Bytes())
		c.archStage.Reset()
	}
	return nil
}

// journalUpdate appends one accepted update as its canonical
// digfl-fednet/2 frame. Callers hold mu and must not acknowledge the update
// if the append fails.
func (c *Coordinator) journalUpdate(t, index int, delta []float64) error {
	if c.wal == nil {
		return nil
	}
	frame, err := CodecV2.EncodeUpdate(t, index, delta)
	if err != nil {
		return err
	}
	err = c.wal.Append(frame)
	tensor.PutBytes(frame)
	return err
}

// journalPartial is journalUpdate for an edge partial.
func (c *Coordinator) journalPartial(t, edge int, indices []int, sum, dots []float64) error {
	if c.wal == nil {
		return nil
	}
	frame, err := CodecV2.EncodePartial(t, edge, indices, sum, dots)
	if err != nil {
		return err
	}
	err = c.wal.Append(frame)
	tensor.PutBytes(frame)
	return err
}

// Round implements hfl.RoundSource: it broadcasts the round to the polling
// participants, waits until every active participant has reported or the
// round deadline expires, and returns the collected deltas in active
// order. A deadline expiry degrades the epoch to the survivors.
func (c *Coordinator) Round(ctx context.Context, spec *hfl.RoundSpec) (*hfl.RoundResult, error) {
	sink := c.Cfg.Runtime.Sink
	r := &openRound{
		t: spec.T, lr: spec.LR, theta: spec.Theta,
		order: spec.Active,
		slots: make(map[int]int, len(spec.Active)),
	}
	for k, i := range spec.Active {
		r.slots[i] = k
	}
	switch {
	case c.Async != nil:
		// Async round: the cohort, slots, and arrival buffer derive from the
		// planner's schedule under the lock below (the carry-over buffer
		// decides who is in flight). Arrivals buffer like a plain round; the
		// quorum cut and discounted fold happen at close in the planner.
		r.valGrad = spec.ValGrad
	case c.Stream != nil && spec.ValGrad != nil:
		// Streaming round: fold on arrival instead of buffering. In edge
		// mode the fold is per-edge on the edge aggregators; the root only
		// merges the partial sums.
		r.valGrad = spec.ValGrad
		r.folded = make([]bool, len(spec.Active))
		if c.Edges > 0 {
			r.parts = make([][]float64, c.Edges)
			r.partIdx = make([][]int, c.Edges)
			r.partDots = make([][]float64, c.Edges)
			if c.FailoverGrace > 0 {
				r.openedAt = time.Now()
			}
		} else {
			r.fold = c.Stream.NewFold(len(spec.Theta), len(spec.Active), spec.ValGrad)
			r.norms = make([]float64, 0, len(spec.Active))
		}
	default:
		r.deltas = make([][]float64, len(spec.Active))
	}
	roundDeadline := c.RoundDeadline
	if c.Async != nil && c.Async.Deadline > 0 {
		// The async deadline is a real-failure safety valve only: a
		// deterministic run closes every round by arrival count, never by
		// timer (the schedule's every fresh member posts during its round).
		roundDeadline = c.Async.Deadline
	}
	var deadlineCh <-chan time.Time
	if roundDeadline > 0 {
		r.deadline = time.Now().Add(roundDeadline)
		timer := time.NewTimer(roundDeadline)
		defer timer.Stop()
		deadlineCh = timer.C
	}

	c.mu.Lock()
	c.initLocked()
	if c.asyncPlan != nil {
		// Plan the epoch's arrivals. Schedule is a pure read of (buffer,
		// seed), so a grafted round re-derives the exact pre-crash plan —
		// the journaled epoch_open carries the full active set, and the
		// carry-over buffer was reinstalled before Run's first Round call.
		sched := c.asyncPlan.Schedule(spec.T, spec.Active)
		r.async = sched
		r.order = sched.Fresh
		r.slots = make(map[int]int, len(sched.Fresh))
		for k, i := range sched.Fresh {
			r.slots[i] = k
		}
		r.deltas = make([][]float64, len(sched.Fresh))
	}
	// WAL: a fresh round journals its open before it is visible to any
	// client; a recovered round (the previous incarnation already journaled
	// this open and some commits) grafts the replayed commits instead.
	rec := c.rec
	c.rec = nil
	grafted := rec != nil && rec.openT == spec.T
	if c.wal != nil && !grafted {
		if err := c.wal.appendJSON(walRecord{Kind: walKindEpochOpen,
			T: spec.T, Active: spec.Active}); err != nil {
			c.recovering = false
			c.mu.Unlock()
			return nil, err
		}
	}
	if grafted {
		if r.async != nil {
			c.graftAsyncLocked(r, rec)
		} else {
			c.graftLocked(r, rec, spec)
		}
	}
	// Recovery complete: the rejoin barrier refilled and the round is
	// republishing, so stop 503ing round traffic.
	c.recovering = false
	c.round = r
	c.bcastLocked()
	c.mu.Unlock()
	obs.Emit(sink, obs.Event{Kind: obs.KindNetRoundStart, T: spec.T, N: int64(len(spec.Active))})
	start := obs.Start(sink)

	timedOut := false
	for !timedOut {
		c.mu.Lock()
		got := r.got
		ch := c.changed
		var walErr error
		if c.wal != nil {
			walErr = c.wal.Err()
		}
		c.mu.Unlock()
		if walErr != nil {
			// The journal is poisoned: an update the coordinator cannot
			// replay was refused its ack (the ingest dropped the
			// connection), and accepting more would fork the journaled
			// history from the applied one. Abort the run.
			c.mu.Lock()
			r.closed = true
			c.bcastLocked()
			c.mu.Unlock()
			return nil, walErr
		}
		if got == len(r.order) {
			break
		}
		select {
		case <-ch:
		case <-deadlineCh:
			timedOut = true
		case <-ctx.Done():
			c.mu.Lock()
			r.closed = true
			c.bcastLocked()
			c.mu.Unlock()
			return nil, ctx.Err()
		}
	}

	c.mu.Lock()
	r.closed = true
	res := &hfl.RoundResult{}
	var missed []int
	nAgg := 0
	switch {
	case r.async != nil:
		// Async close: hand the physical arrivals to the planner, which cuts
		// the quorum over them plus the due buffered entries, folds the
		// commit set at its staleness discounts, and re-buffers (or rejects)
		// the rest. A fresh member missing an arrival is possible only when
		// a real deadline fired.
		arrivals := make(map[int][]float64, r.got)
		for k, i := range r.order {
			if r.deltas[k] != nil {
				arrivals[i] = r.deltas[k]
			} else {
				missed = append(missed, i)
			}
		}
		ac, err := c.asyncPlan.Commit(spec.T, len(r.theta), c.Stream, r.valGrad, r.async, arrivals)
		if err != nil {
			c.mu.Unlock()
			return nil, fmt.Errorf("fednet: round %d: async commit: %w", spec.T, err)
		}
		res.Reported, res.Agg, res.Dots = ac.Reported, ac.Agg, ac.Dots
		nAgg = len(ac.Reported)
	case r.parts != nil:
		// Edge mode: merge the edge partials in edge order — exactly the
		// segment-flush order of hfl.MeanStream with Seg = edge width — and
		// apply the single 1/m scale. Dead edges whose members failed over
		// to direct submission are reconstructed first, so the merge sees
		// the partial the edge itself would have sent.
		dIdx, dSum, dDots := c.reconstructSegments(r)
		var acc []float64
		var rep []int
		var dots []float64
		last := -1
		for e := range r.parts {
			idx, part, pdots := r.partIdx[e], r.parts[e], r.partDots[e]
			if len(idx) == 0 && dIdx != nil && len(dIdx[e]) > 0 {
				idx, part, pdots = dIdx[e], dSum[e], dDots[e]
			}
			if len(idx) == 0 {
				continue
			}
			if idx[0] <= last {
				c.mu.Unlock()
				return nil, fmt.Errorf("fednet: round %d: edge %d slots overlap an earlier edge", spec.T, e)
			}
			last = idx[len(idx)-1]
			if acc == nil {
				acc = make([]float64, len(r.theta))
			}
			tensor.AXPY(1, part, acc)
			for _, s := range idx {
				rep = append(rep, r.order[s])
			}
			dots = append(dots, pdots...)
			nAgg += len(idx)
			// The merge copied everything out; the partial's vectors go
			// back to the pool for the next round's ingest.
			tensor.PutVec(part)
			tensor.PutVec(pdots)
			r.parts[e] = nil
			r.partDots[e] = nil
		}
		if nAgg > 0 {
			tensor.Scale(1/float64(nAgg), acc)
			res.Agg = acc
			res.Dots = dots
		}
		if nAgg != len(r.order) {
			if rep == nil {
				rep = []int{}
			}
			res.Reported = rep
			for k, i := range r.order {
				if !r.folded[k] {
					missed = append(missed, i)
				}
			}
		}
	case r.fold != nil:
		fr, err := r.fold.Close()
		if err != nil {
			c.mu.Unlock()
			return nil, fmt.Errorf("fednet: round %d: closing fold: %w", spec.T, err)
		}
		nAgg = len(fr.Slots)
		res.Agg, res.Dots = fr.Sum, fr.Dots
		if nAgg != len(r.order) {
			rep := make([]int, 0, nAgg)
			for _, s := range fr.Slots {
				rep = append(rep, r.order[s])
			}
			res.Reported = rep
			for k, i := range r.order {
				if !r.folded[k] {
					missed = append(missed, i)
				}
			}
		}
		if c.IngestScreen != nil {
			c.IngestScreen.ObserveNorms(r.norms)
		}
	case r.got == len(r.order):
		res.Deltas = r.deltas
		nAgg = r.got
	default:
		reported := make([]int, 0, r.got)
		deltas := make([][]float64, 0, r.got)
		for k, i := range r.order {
			if r.deltas[k] != nil {
				reported = append(reported, i)
				deltas = append(deltas, r.deltas[k])
			} else {
				missed = append(missed, i)
			}
		}
		res.Deltas, res.Reported = deltas, reported
		nAgg = r.got
	}
	c.bcastLocked()
	c.mu.Unlock()
	for _, i := range missed {
		obs.Emit(sink, obs.Event{Kind: obs.KindNetTimeout, T: spec.T, Part: i})
	}
	obs.Emit(sink, obs.Event{Kind: obs.KindNetRoundEnd, T: spec.T,
		N: int64(nAgg), Dur: obs.Since(sink, start)})
	return res, nil
}

// graftLocked reinstalls a replayed journal's open-round commits into a
// freshly built round: the restarted coordinator resumes mid-round with
// every acknowledged update already committed, so clients that saw an ack
// never recompute and the closed round is bit-identical to an
// uninterrupted one. The fold's state is a pure function of the committed
// (slot, delta) set, so re-adding in ascending slot order reproduces it.
// Callers hold mu.
func (c *Coordinator) graftLocked(r *openRound, rec *walReplay, spec *hfl.RoundSpec) {
	switch {
	case r.parts != nil:
		for e, p := range rec.partials {
			if e < 0 || e >= len(r.parts) || r.partIdx[e] != nil {
				continue
			}
			slots := make([]int, len(p.indices))
			ok := true
			for j, i := range p.indices {
				k, active := r.slots[i]
				if !active {
					ok = false
					break
				}
				slots[j] = k
			}
			if !ok {
				continue
			}
			for _, k := range slots {
				r.folded[k] = true
			}
			r.partIdx[e] = slots
			if len(slots) > 0 {
				r.parts[e] = p.sum
				r.partDots[e] = p.dots
			}
			r.got += len(slots)
		}
		for i, delta := range rec.updates {
			k, active := r.slots[i]
			if !active || r.folded[k] {
				continue
			}
			if r.direct == nil {
				r.direct = make(map[int][]float64)
				r.directDots = make(map[int]float64)
			}
			r.direct[k] = delta
			r.directDots[k] = tensor.Dot(spec.ValGrad, delta)
			r.folded[k] = true
			r.got++
		}
	case r.fold != nil:
		slots := make([]int, 0, len(rec.updates))
		byIdx := make(map[int][]float64, len(rec.updates))
		for i, delta := range rec.updates {
			if k, active := r.slots[i]; active && !r.folded[k] {
				slots = append(slots, k)
				byIdx[k] = delta
			}
		}
		sort.Ints(slots)
		for _, k := range slots {
			if err := r.fold.Add(k, byIdx[k]); err != nil {
				// The journaled commits folded once already; a replay
				// failure means the journal and the fold disagree on
				// shape, which Recover's validation precludes.
				continue
			}
			r.folded[k] = true
			r.got++
		}
	default:
		for i, delta := range rec.updates {
			if k, active := r.slots[i]; active && r.deltas[k] == nil {
				r.deltas[k] = delta
				r.got++
			}
		}
	}
}

// graftAsyncLocked reinstalls a replayed journal's open async round: the
// round's late admits re-enter the planner's buffer (after Schedule, which
// must see the pre-admit buffer the epoch opened with), and the journaled
// fresh arrivals graft into their slots. The close-time Commit is a pure
// function of (buffer, arrivals, seed), so the recovered round commits
// bit-identically to an uninterrupted one. Callers hold mu.
func (c *Coordinator) graftAsyncLocked(r *openRound, rec *walReplay) {
	for i, la := range rec.lateAdmits {
		c.asyncPlan.Admit(i, la.origin, r.t, la.delta)
	}
	for i, delta := range rec.updates {
		if k, active := r.slots[i]; active && r.deltas[k] == nil {
			r.deltas[k] = delta
			r.got++
		}
	}
}

// reconstructSegments groups an edge-mode round's direct submissions into
// their dead edge's segment, rebuilding the partial the edge would have
// folded: member deltas summed in ascending slot order from a zero
// accumulator, dots in the same order — bit-identical to the edge's own
// fold over the same reporters. Returns nil when no one failed over.
// Callers hold mu.
func (c *Coordinator) reconstructSegments(r *openRound) (idx [][]int, sum, dots [][]float64) {
	if len(r.direct) == 0 {
		return nil, nil, nil
	}
	width := c.EdgeWidth
	if width <= 0 {
		width = (c.N + c.Edges - 1) / c.Edges
	}
	ne := len(r.parts)
	idx = make([][]int, ne)
	sum = make([][]float64, ne)
	dots = make([][]float64, ne)
	slots := make([]int, 0, len(r.direct))
	for k := range r.direct {
		slots = append(slots, k)
	}
	sort.Ints(slots)
	for _, k := range slots {
		e := r.order[k] / width
		if e >= ne {
			e = ne - 1
		}
		if sum[e] == nil {
			sum[e] = make([]float64, len(r.theta))
		}
		tensor.AXPY(1, r.direct[k], sum[e])
		idx[e] = append(idx[e], k)
		dots[e] = append(dots[e], r.directDots[k])
		tensor.PutVec(r.direct[k])
		delete(r.direct, k)
	}
	return idx, sum, dots
}

// Handler returns the coordinator's wire-protocol handler, mountable on
// any http.Server (or httptest server). Safe to call before Run; requests
// arriving before the run starts simply wait.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/join", c.handleJoin)
	mux.HandleFunc("GET /v1/round", c.handleRound)
	mux.HandleFunc("POST /v1/update", c.handleUpdate)
	mux.HandleFunc("POST /v1/partial", c.handlePartial)
	mux.HandleFunc("GET /v1/score", c.handleScore)
	sink := c.Cfg.Runtime.Sink
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		// Every response carries the coordinator incarnation, so a client
		// detects a restart from any reply — not just a join.
		c.mu.Lock()
		c.initLocked()
		inst := c.instance
		c.mu.Unlock()
		w.Header().Set(instanceHeader, strconv.Itoa(inst))
		if sink == nil {
			mux.ServeHTTP(w, req)
			return
		}
		obs.Emit(sink, obs.Event{Kind: obs.KindNetRequest, N: 1})
		cr := &countingReader{rc: req.Body}
		req.Body = cr
		cw := &countingWriter{ResponseWriter: w}
		mux.ServeHTTP(cw, req)
		obs.Emit(sink, obs.Event{Kind: obs.KindNetBytesRx, N: cr.n})
		obs.Emit(sink, obs.Event{Kind: obs.KindNetBytesTx, N: cw.n})
	})
}

// countingReader counts request-body bytes actually read by a handler.
type countingReader struct {
	rc io.ReadCloser
	n  int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.rc.Close() }

// countingWriter counts response-body bytes written by a handler.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, req *http.Request) {
	var jr joinRequest
	if err := readJSON(req.Body, &jr); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if jr.Protocol != Protocol {
		writeError(w, http.StatusBadRequest, "protocol %q, want %q", jr.Protocol, Protocol)
		return
	}
	if jr.Index < 0 || jr.Index >= c.N {
		writeError(w, http.StatusBadRequest, "participant index %d outside [0,%d)", jr.Index, c.N)
		return
	}
	c.mu.Lock()
	c.initLocked()
	inst := c.instance
	// Idempotent: a retried join (the first reply was lost) succeeds. Join
	// never answers 503 recovering — re-joining is how recovery completes.
	if !c.joined[jr.Index] {
		c.joined[jr.Index] = true
		c.nJoined++
		c.bcastLocked()
	}
	c.mu.Unlock()
	steps := c.Cfg.LocalSteps
	if steps < 1 {
		steps = 1
	}
	writeJSON(w, http.StatusOK, joinReply{
		Protocol: Protocol, N: c.N, Epochs: c.Cfg.Epochs, LocalSteps: steps,
		Instance: inst, Prox: c.Cfg.Prox,
	})
}

// longPollWait bounds one server-side long-poll leg; clients re-poll on a
// pending reply.
const longPollWait = 10 * time.Second

// longPollTimer is a handler's longPollWait clock, started by the first
// wait rather than on entry: most polls find their answer ready and never
// block, and those should not pay for a timer. The zero value is ready;
// defer stop.
type longPollTimer struct{ t *time.Timer }

// expired returns the channel that fires longPollWait after the first call.
func (l *longPollTimer) expired() <-chan time.Time {
	if l.t == nil {
		l.t = time.NewTimer(longPollWait)
	}
	return l.t.C
}

func (l *longPollTimer) stop() {
	if l.t != nil {
		l.t.Stop()
	}
}

func (c *Coordinator) handleRound(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	t, err := strconv.Atoi(q.Get("t"))
	if err != nil || t < 1 {
		writeError(w, http.StatusBadRequest, "bad round number %q", q.Get("t"))
		return
	}
	// ?i= lets a participant learn it is outside the round's cohort without
	// downloading theta or computing an update; ?vg=1 asks for the round's
	// validation gradient (edge sub-aggregators on streaming rounds).
	pollIdx, hasIdx := -1, false
	if s := q.Get("i"); s != "" {
		if pollIdx, err = strconv.Atoi(s); err != nil {
			writeError(w, http.StatusBadRequest, "bad participant index %q", s)
			return
		}
		hasIdx = true
	}
	wantVG := q.Get("vg") == "1"
	headerOnly := q.Get("h") == "1"
	sink := c.Cfg.Runtime.Sink
	var wait longPollTimer
	defer wait.stop()
	for {
		c.mu.Lock()
		c.initLocked()
		if c.done {
			c.mu.Unlock()
			writeJSON(w, http.StatusOK, roundReply{State: StateDone})
			return
		}
		if c.recovering {
			// The coordinator restarted and is replaying its journal; the
			// join barrier must refill before any round republishes. The
			// client re-joins and retries with backoff.
			c.mu.Unlock()
			writeCodedError(w, http.StatusServiceUnavailable, CodeRecovering,
				"coordinator is recovering; re-join and retry")
			return
		}
		// A round at or past the requested one serves the request: a
		// participant that missed rounds must jump forward, never wait for
		// a round that already closed.
		if r := c.round; r != nil && !r.closed && r.t >= t {
			if hasIdx {
				if _, active := r.slots[pollIdx]; !active {
					c.mu.Unlock()
					writeJSON(w, http.StatusOK, roundReply{State: StateOpen, T: r.t, Excluded: true})
					return
				}
			}
			reply := roundReply{State: StateOpen, T: r.t, LR: jsonf.F64(r.lr)}
			if c.Async != nil {
				reply.Quorum = c.Async.Quorum
				reply.MaxStale = c.Async.MaxStaleness
			}
			if !headerOnly {
				reply.Theta = r.theta
			}
			// A header-only poll can still carry the validation gradient:
			// edges need ∇loss^v but not theta, so ?h=1&vg=1 skips the
			// model download entirely.
			if wantVG && r.valGrad != nil {
				reply.ValGrad = r.valGrad
			}
			if !r.deadline.IsZero() {
				if rem := time.Until(r.deadline); rem > 0 {
					reply.DeadlineMS = rem.Milliseconds()
				}
			}
			if reply.Theta != nil && reply.ValGrad == nil {
				// The participants' poll: every cohort member downloads the
				// same frame but for the deadline field, so the round encodes
				// it once and each poll patches its own header.
				if r.bcast == nil {
					r.bcast = encodeRoundFrame(r.t, r.lr, 0, r.theta, nil, reply.Quorum, reply.MaxStale)
				}
				frame := r.bcast
				c.mu.Unlock()
				obs.Emit(sink, obs.Event{Kind: obs.KindCodecV2Frame, T: reply.T, N: 1})
				writeRoundBroadcast(w, frame, reply.DeadlineMS)
				return
			}
			c.mu.Unlock()
			if reply.ValGrad != nil {
				// A vector always travels as a frame; JSON is left with the
				// header-only open reply.
				frame := encodeRoundFrame(reply.T, float64(reply.LR), reply.DeadlineMS,
					reply.Theta, reply.ValGrad, reply.Quorum, reply.MaxStale)
				obs.Emit(sink, obs.Event{Kind: obs.KindCodecV2Frame, T: reply.T, N: 1})
				writeBinary(w, frame)
				return
			}
			writeJSON(w, http.StatusOK, reply)
			return
		}
		// Failover re-solicitation: a participant polling for round t
		// whose round t-1 slot is still unfolded past the grace gets told
		// to re-send its t-1 update directly to the root — its edge
		// aggregator acknowledged the update and then died with it.
		var graceTimer *time.Timer
		var graceCh <-chan time.Time
		if hasIdx && c.FailoverGrace > 0 {
			if r := c.round; r != nil && !r.closed && r.parts != nil && r.t == t-1 {
				if k, active := r.slots[pollIdx]; active && !r.folded[k] {
					rem := time.Until(r.openedAt.Add(c.FailoverGrace))
					if rem <= 0 {
						c.mu.Unlock()
						writeJSON(w, http.StatusOK, roundReply{State: StateOpen, T: r.t, Resubmit: true})
						return
					}
					graceTimer = time.NewTimer(rem)
					graceCh = graceTimer.C
				}
			}
		}
		ch := c.changed
		c.mu.Unlock()
		select {
		case <-ch:
		case <-graceCh:
			// Re-evaluate: the slot may have folded in the meantime.
		case <-wait.expired():
			if graceTimer != nil {
				graceTimer.Stop()
			}
			writeJSON(w, http.StatusOK, roundReply{State: StatePending})
			return
		case <-req.Context().Done():
			if graceTimer != nil {
				graceTimer.Stop()
			}
			return
		}
		if graceTimer != nil {
			graceTimer.Stop()
		}
	}
}

func (c *Coordinator) handleUpdate(w http.ResponseWriter, req *http.Request) {
	body, ok := readFrame(w, req)
	if !ok {
		return
	}
	defer tensor.PutBytes(body)
	t, index, d, err := decodeUpdateHeader(body)
	if err != nil {
		writeCodedError(w, http.StatusUnprocessableEntity, CodeBadFrame, "%v", err)
		return
	}
	c.ingestUpdate(w, body, t, index, d)
}

// ingestUpdate runs the acceptance pipeline for one update frame whose
// header (t, index, d) already decoded: slot and duplicate checks from the
// header alone — a straggler's late megabyte costs a header peek, not a
// parsed buffer the 409 branch then drops on the floor — then the delta
// decode (only once the update is known to be wanted), then the shape and
// finiteness screen, then the streaming fold or round-buffer commit.
// Vectors the round does not retain go back to the tensor pool.
func (c *Coordinator) ingestUpdate(w http.ResponseWriter, body []byte, t, index, d int) {
	sink := c.Cfg.Runtime.Sink
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.recovering {
		// Not stale — the round may still be open once recovery finishes.
		// The client re-joins and retries; its committed update then gets
		// the idempotent ack from the grafted slot.
		writeCodedError(w, http.StatusServiceUnavailable, CodeRecovering,
			"coordinator is recovering; re-join and retry")
		return
	}
	r := c.round
	if c.asyncPlan != nil && r != nil && r.async != nil && !r.closed && t < r.t {
		// Async late path: an update for an older round reached an open
		// later one. Within the staleness window it is admitted into the
		// planner's buffer (202 buffered) and folds at a discount when due;
		// beyond the window it is refused as too stale.
		c.ingestLateLocked(w, r, body, t, index, d)
		return
	}
	if r == nil || r.t != t || r.closed {
		// The round is gone — the participant straggled past the deadline
		// (or submitted for a round that is not open). Benign for a
		// well-behaved client: the epoch proceeded with the survivors.
		writeCodedError(w, http.StatusConflict, CodeStaleRound,
			"round %d is not open", t)
		return
	}
	k, active := r.slots[index]
	switch {
	case !active:
		writeJSON(w, http.StatusOK, updateReply{Reason: "not-active"})
		return
	case r.streaming() && r.folded[k], !r.streaming() && r.deltas[k] != nil:
		// Idempotent: a retried submission (the first ack was lost) is
		// acknowledged without overwriting — and without re-decoding the
		// duplicate payload. On an edge-mode round this also covers a
		// failover resubmission whose slot the edge's partial already
		// folded: exactly-once either way.
		c.ackUpdateLocked(w, r, index)
		return
	}
	delta := decodeFrameVec(body[updateHdrLen:], d)
	obs.Emit(sink, obs.Event{Kind: obs.KindCodecV2Frame, T: t, N: 1})
	if !vetDelta(w, sink, t, index, delta, len(r.theta)) {
		return
	}
	switch {
	case r.parts != nil:
		// Edge-mode direct submission: the member's edge died, so it fell
		// back to the root (transport failure, or the re-solicitation
		// path). Journal, then commit into the round's direct set; the
		// close-time merge reconstructs the dead edge's segment.
		if err := c.journalUpdate(t, index, delta); err != nil {
			tensor.PutVec(delta)
			c.bcastLocked()
			panic(http.ErrAbortHandler)
		}
		if r.direct == nil {
			r.direct = make(map[int][]float64)
			r.directDots = make(map[int]float64)
		}
		r.direct[k] = delta
		r.directDots[k] = tensor.Dot(r.valGrad, delta)
		r.folded[k] = true
		obs.Emit(sink, obs.Event{Kind: obs.KindEdgeFailover, T: t, Part: index})
		c.arrivedLocked(r, 1)
		writeJSON(w, http.StatusOK, updateReply{Accepted: true})
	case r.fold != nil:
		// Journal before the fold consumes the delta: an update the
		// journal cannot replay must never be acknowledged, so a failed
		// append drops the connection without a reply (the client retries
		// against the aborting run and gets 503/stale, never a false ack).
		if err := c.journalUpdate(t, index, delta); err != nil {
			tensor.PutVec(delta)
			c.bcastLocked()
			panic(http.ErrAbortHandler)
		}
		if c.IngestScreen != nil {
			norm, clipped := c.IngestScreen.ClipNow(delta)
			r.norms = append(r.norms, norm)
			if clipped {
				obs.Emit(sink, obs.Event{Kind: obs.KindUpdateClipped, T: t,
					Part: index, Value: norm})
			}
		}
		// An in-order Add consumes the delta immediately; an out-of-order
		// one parks it inside the fold. Recycle only on consumption —
		// Pending tells the two apart (a fold without it keeps the slice).
		pend, canPend := r.fold.(interface{ Pending() int })
		before := 0
		if canPend {
			before = pend.Pending()
		}
		if err := r.fold.Add(k, delta); err != nil {
			writeError(w, http.StatusInternalServerError, "folding update: %v", err)
			return
		}
		if canPend && pend.Pending() <= before {
			tensor.PutVec(delta)
		}
		r.folded[k] = true
		c.arrivedLocked(r, 1)
		writeJSON(w, http.StatusOK, updateReply{Accepted: true})
	default:
		// Buffered round (including async arrivals): the epoch retains the
		// delta (estimator, archive, screens, quorum cut), so it stays off
		// the pool.
		if err := c.journalUpdate(t, index, delta); err != nil {
			tensor.PutVec(delta)
			c.bcastLocked()
			panic(http.ErrAbortHandler)
		}
		r.deltas[k] = delta
		c.arrivedLocked(r, 1)
		c.ackUpdateLocked(w, r, index)
	}
}

// ackUpdateLocked acknowledges an accepted (or idempotently retried) update:
// 200 on a commit-candidate arrival, 202 buffered when the async schedule
// lags the participant's update into a later epoch. Callers hold mu.
func (c *Coordinator) ackUpdateLocked(w http.ResponseWriter, r *openRound, index int) {
	if r.async != nil && r.async.Lag[index] > 0 {
		writeJSON(w, http.StatusAccepted, updateReply{Accepted: true, Reason: "buffered"})
		return
	}
	writeJSON(w, http.StatusOK, updateReply{Accepted: true})
}

// ingestLateLocked admits (or refuses) an async late update: one computed
// against closed round origin that physically arrived while round r.t is
// open. The delta is journaled as a D2UP frame at t = r.t followed by a
// stale_admit control record, so replay can tell it apart from the open
// round's fresh arrivals. Callers hold mu.
func (c *Coordinator) ingestLateLocked(w http.ResponseWriter, r *openRound, body []byte, origin, index, d int) {
	sink := c.Cfg.Runtime.Sink
	if s := r.t - origin; s > c.Async.MaxStaleness {
		obs.Emit(sink, obs.Event{Kind: obs.KindStaleReject, T: r.t, Part: index, N: int64(s)})
		writeCodedError(w, http.StatusConflict, CodeTooStale,
			"update for round %d is %d epochs stale (window %d)", origin, s, c.Async.MaxStaleness)
		return
	}
	if c.asyncPlan.InFlight(index) {
		// Idempotent: a retried admission (the first 202 was lost) — or a
		// second stale update racing the buffered one — leaves the buffer
		// untouched.
		writeJSON(w, http.StatusAccepted, updateReply{Accepted: true, Reason: "buffered"})
		return
	}
	delta := decodeFrameVec(body[updateHdrLen:], d)
	if !vetDelta(w, sink, r.t, index, delta, len(r.theta)) {
		return
	}
	if err := c.journalUpdate(r.t, index, delta); err != nil {
		tensor.PutVec(delta)
		c.bcastLocked()
		panic(http.ErrAbortHandler)
	}
	if c.wal != nil {
		if err := c.wal.appendJSON(walRecord{Kind: walKindStaleAdmit,
			T: r.t, Part: index, Origin: origin}); err != nil {
			c.bcastLocked()
			panic(http.ErrAbortHandler)
		}
	}
	c.asyncPlan.Admit(index, origin, r.t, delta)
	writeJSON(w, http.StatusAccepted, updateReply{Accepted: true, Reason: "buffered"})
}

// handlePartial ingests one edge sub-aggregator's cohort partial on an
// edge-mode streaming round (Coordinator.Edges > 0).
func (c *Coordinator) handlePartial(w http.ResponseWriter, req *http.Request) {
	body, ok := readFrame(w, req)
	if !ok {
		return
	}
	defer tensor.PutBytes(body)
	t, edge, indices, d, err := decodePartialHeader(body)
	if err != nil {
		writeCodedError(w, http.StatusUnprocessableEntity, CodeBadFrame, "%v", err)
		return
	}
	c.ingestPartial(w, body, t, edge, indices, d)
}

// ingestPartial runs the acceptance pipeline for one edge partial frame
// whose header already decoded — the same two-phase discipline as
// ingestUpdate: staleness, slot membership and ordering are validated from
// the header's indices before the bulk vectors decode. Accepted sums and
// dots are retained until the round closes (Round recycles them after the
// merge); rejected ones go straight back to the pool.
func (c *Coordinator) ingestPartial(w http.ResponseWriter, body []byte, t, edge int, indices []int, d int) {
	sink := c.Cfg.Runtime.Sink
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.recovering {
		writeCodedError(w, http.StatusServiceUnavailable, CodeRecovering,
			"coordinator is recovering; re-join and retry")
		return
	}
	r := c.round
	if r == nil || r.t != t || r.closed {
		writeCodedError(w, http.StatusConflict, CodeStaleRound,
			"round %d is not open", t)
		return
	}
	if r.parts == nil {
		writeError(w, http.StatusBadRequest,
			"round %d does not ingest edge partials", t)
		return
	}
	if edge < 0 || edge >= len(r.parts) {
		writeError(w, http.StatusBadRequest, "edge %d outside [0,%d)", edge, len(r.parts))
		return
	}
	if r.partIdx[edge] != nil {
		// Idempotent retry of a partial whose ack was lost.
		writeJSON(w, http.StatusOK, updateReply{Accepted: true})
		return
	}
	// Validate membership before decoding the vectors: every index must be
	// an active slot not yet claimed by another edge, in strictly increasing
	// slot order (edge cohorts are contiguous slot ranges).
	slots := make([]int, len(indices))
	for j, i := range indices {
		k, active := r.slots[i]
		if !active {
			writeError(w, http.StatusBadRequest, "edge %d claims inactive participant %d", edge, i)
			return
		}
		if r.folded[k] {
			if _, dir := r.direct[k]; dir {
				// The member failed over and reported directly while the
				// edge was presumed dead; the partial as a whole is
				// superseded. Benign for a recovering edge.
				writeCodedError(w, http.StatusConflict, CodeStaleRound,
					"participant %d already reported directly to the root", i)
				return
			}
			writeError(w, http.StatusBadRequest, "edge %d re-claims participant %d", edge, i)
			return
		}
		if j > 0 && k <= slots[j-1] {
			writeError(w, http.StatusBadRequest, "edge %d indices out of slot order", edge)
			return
		}
		slots[j] = k
	}
	sum, dots := decodePartialVecs(body, len(indices), d)
	obs.Emit(sink, obs.Event{Kind: obs.KindCodecV2Frame, T: t, N: 1})
	reject := func() {
		tensor.PutVec(sum)
		tensor.PutVec(dots)
	}
	switch {
	case len(indices) > 0 && len(sum) != len(r.theta):
		reject()
		writeCodedError(w, http.StatusUnprocessableEntity, CodeBadShape,
			"partial sum has %d params, model has %d", len(sum), len(r.theta))
		return
	case len(dots) != len(indices):
		reject()
		writeCodedError(w, http.StatusUnprocessableEntity, CodeBadShape,
			"partial carries %d dots for %d members", len(dots), len(indices))
		return
	case !finiteVec(sum) || !finiteVec(dots):
		reject()
		writeCodedError(w, http.StatusUnprocessableEntity, CodeNonFinite,
			"partial carries non-finite values")
		return
	}
	if err := c.journalPartial(t, edge, indices, sum, dots); err != nil {
		reject()
		c.bcastLocked()
		panic(http.ErrAbortHandler)
	}
	for _, k := range slots {
		r.folded[k] = true
	}
	r.partIdx[edge] = slots
	if len(slots) > 0 {
		r.parts[edge] = sum
		r.partDots[edge] = dots
	} else {
		reject()
	}
	c.arrivedLocked(r, len(slots))
	writeJSON(w, http.StatusOK, updateReply{Accepted: true})
}

// finiteVec reports whether every coordinate is finite: NaN and ±Inf are
// exactly the values whose eleven exponent bits are all set.
func finiteVec(v []float64) bool {
	const expMask = 0x7ff << 52
	for _, x := range v {
		if math.Float64bits(x)&expMask == expMask {
			return false
		}
	}
	return true
}

// vetDelta is the shape and finiteness screen every decoded update passes,
// on the root and on the edges: want is the model dimension (an honest
// client can never produce a wrong-length delta from its round's
// broadcast). A refused delta is recycled, counted as KindUpdateRejected
// against round t, and answered 422; vetDelta then returns false.
func vetDelta(w http.ResponseWriter, sink obs.Sink, t, index int, delta []float64, want int) bool {
	shapeOK := len(delta) == want
	if shapeOK && finiteVec(delta) {
		return true
	}
	n := len(delta)
	tensor.PutVec(delta)
	obs.Emit(sink, obs.Event{Kind: obs.KindUpdateRejected, T: t, Part: index})
	if !shapeOK {
		writeCodedError(w, http.StatusUnprocessableEntity, CodeBadShape,
			"delta has %d params, model has %d", n, want)
	} else {
		writeCodedError(w, http.StatusUnprocessableEntity, CodeNonFinite,
			"delta carries non-finite values")
	}
	return false
}

func (c *Coordinator) handleScore(w http.ResponseWriter, req *http.Request) {
	c.mu.Lock()
	if c.Estimator == nil && c.Engine == nil {
		c.mu.Unlock()
		writeError(w, http.StatusNotFound, "coordinator has no estimator or engine attached")
		return
	}
	if c.recovering {
		c.mu.Unlock()
		writeCodedError(w, http.StatusServiceUnavailable, CodeRecovering,
			"coordinator is recovering; re-join and retry")
		return
	}
	var reply scoreReply
	if c.Estimator != nil {
		attr := c.Estimator.Attribution()
		reply.Epochs = attr.Epochs
		reply.Totals = append([]float64(nil), attr.Totals...)
		reply.Engine = "dig-fl"
	}
	if c.Engine != nil {
		rep := c.Engine.Finalize()
		reply.Engine = rep.Name
		reply.EngineTotals = rep.Totals
		reply.EngineEpochs = rep.Epochs
		reply.EngineEvals = rep.Cost.UtilityEvals
		if c.Estimator == nil {
			reply.Epochs = rep.Epochs
		}
	}
	if c.Quarantine != nil {
		reply.Quarantined = c.Quarantine.Quarantined()
	}
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, reply)
}
