package fednet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"digfl/internal/core"
	"digfl/internal/dataset"
	"digfl/internal/hfl"
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
// Zero-valued fields mean: no quarantine (the plain mean), no estimator
// (score endpoint disabled), no round deadline (each round waits for every
// active participant — appropriate only when participants are trusted to
// always report), no archive. Which settings refuse each other, and why, is
// the composition table in compose.go (README "What composes with what");
// Run checks it before anything else happens.
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
	// per participant that missed a round deadline. Cfg.Engine, when set,
	// must be a shapley.Engine: the coordinator observes it under its lock
	// (not on the trainer) and /v1/score reports its name, running φ totals
	// and utility-eval cost alongside the DIG-FL estimator's attribution.
	Cfg hfl.Config
	// Observer is passed through to the underlying trainer.
	Observer hfl.Observer
	// Screen, when non-nil, vets every round's collected updates before
	// aggregation (hfl.Trainer.Screen semantics) — the second line of
	// defense behind the wire-level shape and finiteness rejections.
	Screen hfl.Screener
	// Quarantine, when non-nil, is the trainer's reweighter — the
	// coordinator's only one — and its ban state is surfaced on /v1/score.
	// When Quarantine.Estimator is nil and Estimator is set, the coordinator
	// hands its estimator to the policy, so one φ stream feeds the score
	// endpoint and the bans; the estimator is then fed through the
	// quarantine's Weights call instead of the Observer.
	Quarantine *robust.Quarantine
	// Estimator, when non-nil, observes every epoch (under the
	// coordinator's lock) and backs the /v1/score endpoint, so
	// contribution evaluation runs server-side inside the live round loop.
	Estimator *core.HFLEstimator
	// RoundDeadline bounds how long a round stays open once broadcast.
	// Participants that have not reported when it expires are dropped from
	// the epoch (Epoch.Reported survivor semantics); 0 waits for everyone.
	// It bounds async rounds too, where it is a real-failure safety valve
	// only: a deterministic async run closes every round by arrival count,
	// and a round the deadline closes forfeits the bit-identity contract.
	RoundDeadline time.Duration
	// Archive, when non-nil, streams every closed epoch to this writer in
	// the logio HFL training-log format as the run progresses.
	Archive io.Writer
	// Stream names the fold of a streamed round, and setting it streams the
	// run: each accepted delta is folded into the round's accumulator under
	// the coordinator's lock and released, so round memory is O(d + cohort)
	// instead of O(cohort·d) — the networked half of hfl.Trainer.Stream.
	// Async and Edges stream the run too; with Stream nil their rounds fold
	// with hfl.MeanStream{}. Streaming rounds carry DeltaDots to the
	// estimator (ResourceSaving mode only).
	Stream hfl.StreamAggregator
	// Edges, when positive, streams the run through a two-level tree:
	// /v1/partial ingest from this many edge sub-aggregators
	// (EdgeAggregator) instead of per-participant /v1/update ingest. Each
	// edge folds its cohort segment and the root merges the partials in edge
	// order, so the tree reduces in the canonical hfl.MeanStream segmented
	// order and stays bit-identical to a flat streamed run with Seg = edge
	// width. Global index i belongs to edge i/ceil(N/Edges), the Loopback
	// partition.
	Edges int
	// Journal, when non-nil, turns on the coordinator's write-ahead log
	// (digfl-fednet-wal/2, see wal.go): every commit the round's outcome
	// depends on is journaled before it is acknowledged, so a coordinator
	// that dies mid-round can be rebuilt bit-identically — hand the journal
	// to a fresh Coordinator's Recover, then Run. Each record is written
	// with exactly one Write call; wrap the writer if it needs locking.
	Journal io.Writer
	// FailoverGrace, when positive on an edge-mode run, arms the root's
	// re-solicitation path: once the round has been open longer than the
	// grace with a participant's slot still uncommitted, that participant's
	// next-round poll (?i=) answers Resubmit, telling it to re-send its
	// round-T update directly to the root — its edge aggregator died after
	// acknowledging the update, so the root never saw it. 0 (the default)
	// disables re-solicitation and keeps the pre-failover semantics: a dead
	// edge's whole cohort misses the round at the deadline.
	FailoverGrace time.Duration
	// Async, when non-nil, streams the run under the asynchronous
	// buffered commit policy (hfl.AsyncConfig): each round's cohort is the
	// planner's fresh set, a scheduled-lagged arrival buffers across epochs
	// (acknowledged 202 buffered), a late update for an older round is
	// admitted into the buffer while it is within MaxStaleness epochs (202
	// buffered) and refused with 409 too_stale beyond it, and the epoch
	// commits the quorum's worth of candidates at a deterministic staleness
	// discount. Cfg.Faults supplies the lag schedule and tie-break seed.
	Async *hfl.AsyncConfig

	mu      sync.Mutex
	changed chan struct{}
	joined  []bool
	nJoined int
	started bool
	round   *openRound
	done    bool

	// Crash-safety state: the journal's append side, the replayed state a
	// Recover call grafts into the first round, the coordinator incarnation
	// (1 for a fresh run, +1 per recovery), and the recovering flag that
	// 503s round traffic until the rejoin barrier refills.
	wal        *WAL
	rec        *walReplay
	instance   int
	recovering bool
	archStage  *bytes.Buffer
	// instHdr caches instance as the header value every reply carries (one
	// atomic load per request, not mu); Recover resets it.
	instHdr atomic.Pointer[[]string]

	// asyncPlan executes the Async commit policy; built by run, accessed
	// under mu (Round's schedule/commit, ingest's late admits, journalClose's
	// buffer snapshot).
	asyncPlan *hfl.AsyncPlanner

	// The /v1/score buffers, reused across reads: scoreTot is the
	// estimator's totals copied under mu, scoreBuf the reply written from
	// that copy once mu is released. scoreMu guards both and is taken
	// before mu, never after.
	scoreMu  sync.Mutex
	scoreTot []float64
	scoreBuf []byte
}

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

// instanceHeader returns the X-Digfl-Instance value of the current
// incarnation, a shared read-only slice. Only the first request of an
// incarnation finds none cached and formats it under mu.
func (c *Coordinator) instanceHeader() []string {
	v := c.instHdr.Load()
	if v == nil {
		c.mu.Lock()
		c.initLocked()
		v = &[]string{strconv.Itoa(c.instance)}
		c.instHdr.Store(v)
		c.mu.Unlock()
	}
	return *v
}

// bcastLocked wakes every waiter; callers hold mu.
func (c *Coordinator) bcastLocked() {
	close(c.changed)
	c.changed = make(chan struct{})
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
	c.bcastLocked()
	c.mu.Unlock()
	return res, err
}

func (c *Coordinator) run(ctx context.Context) (*hfl.Result, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	if c.Async != nil {
		pl, err := hfl.NewAsyncPlanner(*c.Async, c.Cfg.Faults, c.Cfg.Runtime.Sink)
		if err != nil {
			return nil, err
		}
		pl.Release = tensor.PutVec // every delta it sees was decoded into a pooled vector
		c.mu.Lock()
		c.asyncPlan = pl
		c.mu.Unlock()
	}
	if c.Journal != nil {
		c.mu.Lock()
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
	// The coordinator observes the engine under its lock, since /v1/score
	// reads it live; the trainer's unlocked Observe would race with it.
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
	var reweighter hfl.Reweighter
	estimatorObserves := c.Estimator != nil
	if c.Quarantine != nil {
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
	// Estimator and engine φ state is read live by /v1/score, so both
	// observe under the coordinator's lock.
	observer := c.Observer
	if estimatorObserves {
		est := c.Estimator
		observer = lockedObserver{c, func(ep *hfl.Epoch) { est.Observe(ep) }, observer}.observeEpoch
	}
	if eng := c.engine(); eng != nil {
		observer = lockedObserver{c, eng.Observe, observer}.observeEpoch
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
		Reweighter: reweighter, Screen: c.Screen, Observer: observer, Rounds: c,
		Stream: c.fold(),
	}
	return tr.RunContext(ctx)
}

// engine is the contribution engine the coordinator observes and reports:
// Cfg.Engine (the composition table refuses any other kind), or nil.
func (c *Coordinator) engine() shapley.Engine {
	eng, _ := c.Cfg.Engine.(shapley.Engine)
	return eng
}

// lockedObserver runs observe under the coordinator's lock, then hands the
// epoch on to next (which may be nil).
type lockedObserver struct {
	c             *Coordinator
	observe, next hfl.Observer
}

func (l lockedObserver) observeEpoch(ep *hfl.Epoch) {
	l.c.mu.Lock()
	l.observe(ep)
	l.c.mu.Unlock()
	if l.next != nil {
		l.next(ep)
	}
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
	// Every refusal precedes the first side effect, and the lock spans both:
	// a running coordinator, whose handlers read this state live, is refused
	// with it untouched. Estimator.SetState validates before it installs, and
	// a replayed quarantine state cannot fail its shape check.
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return 0, errors.New("fednet: Recover must precede Run")
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
	c.rec = rep
	c.instance = rep.instance + 1
	c.instHdr.Store(nil)
	c.recovering = true
	obs.Emit(c.Cfg.Runtime.Sink, obs.Event{Kind: obs.KindRecover,
		T: rep.lastClosed + 1, N: int64(rep.records)})
	return rep.consumed, nil
}

// journalClose appends an epoch's close frame — the model, the new curve
// point, and what the epoch added to the estimator, quarantine and async
// state, encoded under the lock straight from the live state — then
// flushes the staged archive epochs the commit just made durable.
func (c *Coordinator) journalClose(ck *hfl.Checkpoint) error {
	c.mu.Lock()
	var buffered []*hfl.AsyncEntry
	if c.asyncPlan != nil {
		// The post-commit carry-over buffer is stable here: late admits are
		// gated on an open round, and the next round has not opened yet.
		buffered = c.asyncPlan.Buffer()
	}
	rec, err := encodeClose(ck, c.Estimator, c.Quarantine, buffered)
	c.mu.Unlock()
	if err != nil {
		return err
	}
	err = c.wal.commit(rec)
	tensor.PutBytes(rec)
	if err != nil {
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
