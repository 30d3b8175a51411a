package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"digfl/internal/jsonf"
)

// Snapshot is a point-in-time aggregate of everything a Collector has seen.
// Counter fields are exact: for a run with known dimensions they match the
// closed-form operation counts of the instrumented algorithms (asserted for
// Algorithm 3 in internal/vfl's tests).
type Snapshot struct {
	// Epochs is the number of completed training rounds (EpochEnd events).
	Epochs int64
	// LocalUpdates counts per-participant local trainings.
	LocalUpdates int64
	// Aggregates counts server-side update combinations.
	Aggregates int64
	// EstimatorRounds counts DIG-FL estimator observations.
	EstimatorRounds int64
	// PaillierEnc/Dec/Add/MulPlain are exact homomorphic operation counts.
	PaillierEnc, PaillierDec, PaillierAdd, PaillierMulPlain int64
	// PoolBatches counts bounded-pool fan-outs, PoolTasks the tasks they
	// executed, and PoolWorkersMax the widest effective worker count seen.
	PoolBatches, PoolTasks int64
	PoolWorkersMax         int64
	// Dropouts, Stragglers, Retries, Crashes, Checkpoints and Resumes
	// count fault-tolerance events: degraded-epoch participations, secure
	// round retries, injected crashes, and checkpoint/resume boundaries.
	Dropouts, Stragglers, Retries int64
	Crashes, Checkpoints, Resumes int64
	// NetRounds, NetRequests and NetTimeouts count networked-runtime
	// events: closed coordinator rounds, wire-protocol requests, and
	// participants that missed a round deadline. NetRoundTime is the
	// summed open-to-close wall clock of the closed rounds.
	NetRounds, NetRequests, NetTimeouts int64
	NetRoundTime                        time.Duration
	// NetBytesRx and NetBytesTx are the request-body bytes received and
	// response-body bytes written by wire-protocol servers; their sum is the
	// run's bytes-on-wire. CodecV2Frames counts bulk payloads (updates,
	// round broadcasts) carried as digfl-fednet/2 binary frames.
	NetBytesRx, NetBytesTx int64
	CodecV2Frames          int64
	// WALAppends and WALBytes count coordinator journal records and their
	// total size; Recoveries and Rejoins count crash-safety events:
	// coordinator WAL replays and participant re-joins after a coordinator
	// restart.
	WALAppends, WALBytes int64
	Recoveries, Rejoins  int64
	// AsyncCommits, StaleFolds and StaleRejects count the asynchronous
	// commit policy's events: epoch quorum cuts, stale updates folded at a
	// staleness discount, and buffered updates rejected for exceeding the
	// staleness window.
	AsyncCommits, StaleFolds, StaleRejects int64
	// AttacksInjected, UpdatesRejected, UpdatesClipped and Quarantines
	// count adversarial-robustness events: simulated update corruptions,
	// updates dropped by screening or wire validation, updates norm-clipped
	// by the screen, and participants demoted by the quarantine policy.
	AttacksInjected, UpdatesRejected, UpdatesClipped, Quarantines int64
	// EpochTime, LocalUpdateTime, AggregateTime and EstimatorTime are the
	// summed durations of the corresponding timed events. LocalUpdateTime
	// can exceed EpochTime when local updates run in parallel — it is CPU
	// time across workers, not wall-clock.
	EpochTime, LocalUpdateTime, AggregateTime, EstimatorTime time.Duration
}

// PaillierOps returns the total homomorphic operation count.
func (s Snapshot) PaillierOps() int64 {
	return s.PaillierEnc + s.PaillierDec + s.PaillierAdd + s.PaillierMulPlain
}

// String renders the snapshot as the compact one-run summary the CLI
// prints.
func (s Snapshot) String() string {
	out := fmt.Sprintf("epochs=%d (%.3fs) local_updates=%d (%.3fs) aggregates=%d estimator_rounds=%d (%.3fs)",
		s.Epochs, s.EpochTime.Seconds(), s.LocalUpdates, s.LocalUpdateTime.Seconds(),
		s.Aggregates, s.EstimatorRounds, s.EstimatorTime.Seconds())
	if ops := s.PaillierOps(); ops > 0 {
		out += fmt.Sprintf(" paillier[enc=%d dec=%d add=%d mul=%d]",
			s.PaillierEnc, s.PaillierDec, s.PaillierAdd, s.PaillierMulPlain)
	}
	if s.PoolBatches > 0 {
		out += fmt.Sprintf(" pool[batches=%d tasks=%d max_workers=%d]",
			s.PoolBatches, s.PoolTasks, s.PoolWorkersMax)
	}
	if s.Dropouts+s.Stragglers+s.Retries+s.Crashes+s.Checkpoints+s.Resumes > 0 {
		out += fmt.Sprintf(" faults[drop=%d straggle=%d retry=%d crash=%d ckpt=%d resume=%d]",
			s.Dropouts, s.Stragglers, s.Retries, s.Crashes, s.Checkpoints, s.Resumes)
	}
	if s.NetRounds+s.NetRequests+s.NetTimeouts > 0 {
		out += fmt.Sprintf(" net[rounds=%d (%.3fs) reqs=%d timeouts=%d]",
			s.NetRounds, s.NetRoundTime.Seconds(), s.NetRequests, s.NetTimeouts)
	}
	if s.NetBytesRx+s.NetBytesTx+s.CodecV2Frames > 0 {
		out += fmt.Sprintf(" wire[rx=%dB tx=%dB v2=%d]",
			s.NetBytesRx, s.NetBytesTx, s.CodecV2Frames)
	}
	if s.WALAppends+s.Recoveries+s.Rejoins > 0 {
		out += fmt.Sprintf(" crash[wal=%d (%dB) recover=%d rejoin=%d]",
			s.WALAppends, s.WALBytes, s.Recoveries, s.Rejoins)
	}
	if s.AsyncCommits+s.StaleFolds+s.StaleRejects > 0 {
		out += fmt.Sprintf(" async[commits=%d folds=%d rejects=%d]",
			s.AsyncCommits, s.StaleFolds, s.StaleRejects)
	}
	if s.AttacksInjected+s.UpdatesRejected+s.UpdatesClipped+s.Quarantines > 0 {
		out += fmt.Sprintf(" adv[attacks=%d rejected=%d clipped=%d quarantined=%d]",
			s.AttacksInjected, s.UpdatesRejected, s.UpdatesClipped, s.Quarantines)
	}
	return out
}

// Collector is the in-memory aggregator sink: every counter is an atomic,
// so emission from concurrent pool workers never contends on a lock and
// Snapshot can be read while a run is in flight. The zero value is ready
// to use.
type Collector struct {
	epochs, localUpdates, aggregates, estimatorRounds       atomic.Int64
	paillierEnc, paillierDec, paillierAdd, paillierMulPlain atomic.Int64
	poolBatches, poolTasks, poolWorkersMax                  atomic.Int64
	epochNanos, localUpdateNanos, aggregateNanos, estNanos  atomic.Int64
	dropouts, stragglers, retries                           atomic.Int64
	crashes, checkpoints, resumes                           atomic.Int64
	netRounds, netRequests, netTimeouts, netRoundNanos      atomic.Int64
	attacksInjected, updatesRejected                        atomic.Int64
	updatesClipped, quarantines                             atomic.Int64
	netBytesRx, netBytesTx                                  atomic.Int64
	codecV2Frames                                           atomic.Int64
	walAppends, walBytes                                    atomic.Int64
	recoveries, rejoins                                     atomic.Int64
	asyncCommits, staleFolds, staleRejects                  atomic.Int64
}

// Emit implements Sink.
func (c *Collector) Emit(e Event) {
	switch e.Kind {
	case KindEpochStart:
		// Counted at EpochEnd so Epochs means completed rounds.
	case KindEpochEnd:
		c.epochs.Add(1)
		c.epochNanos.Add(int64(e.Dur))
	case KindLocalUpdate:
		c.localUpdates.Add(1)
		c.localUpdateNanos.Add(int64(e.Dur))
	case KindAggregate:
		c.aggregates.Add(1)
		c.aggregateNanos.Add(int64(e.Dur))
	case KindEstimatorRound:
		c.estimatorRounds.Add(1)
		c.estNanos.Add(int64(e.Dur))
	case KindPaillierEnc:
		c.paillierEnc.Add(e.N)
	case KindPaillierDec:
		c.paillierDec.Add(e.N)
	case KindPaillierAdd:
		c.paillierAdd.Add(e.N)
	case KindPaillierMulPlain:
		c.paillierMulPlain.Add(e.N)
	case KindPoolTask:
		c.poolBatches.Add(1)
		c.poolTasks.Add(e.N)
		for {
			cur := c.poolWorkersMax.Load()
			if int64(e.Workers) <= cur || c.poolWorkersMax.CompareAndSwap(cur, int64(e.Workers)) {
				break
			}
		}
	case KindDropout:
		c.dropouts.Add(1)
	case KindStraggler:
		c.stragglers.Add(1)
	case KindRetry:
		c.retries.Add(1)
	case KindCrash:
		c.crashes.Add(1)
	case KindCheckpoint:
		c.checkpoints.Add(1)
	case KindResume:
		c.resumes.Add(1)
	case KindNetRoundStart:
		// Counted at NetRoundEnd so NetRounds means closed rounds.
	case KindNetRoundEnd:
		c.netRounds.Add(1)
		c.netRoundNanos.Add(int64(e.Dur))
	case KindNetRequest:
		c.netRequests.Add(1)
	case KindNetTimeout:
		c.netTimeouts.Add(1)
	case KindAttackInjected:
		c.attacksInjected.Add(1)
	case KindUpdateRejected:
		c.updatesRejected.Add(1)
	case KindUpdateClipped:
		c.updatesClipped.Add(1)
	case KindQuarantine:
		c.quarantines.Add(1)
	case KindNetBytesRx:
		c.netBytesRx.Add(e.N)
	case KindNetBytesTx:
		c.netBytesTx.Add(e.N)
	case KindCodecV2Frame:
		c.codecV2Frames.Add(e.N)
	case KindWALAppend:
		c.walAppends.Add(1)
		c.walBytes.Add(e.N)
	case KindRecover:
		c.recoveries.Add(1)
	case KindRejoin:
		c.rejoins.Add(1)
	case KindAsyncCommit:
		c.asyncCommits.Add(1)
	case KindStaleFold:
		c.staleFolds.Add(1)
	case KindStaleReject:
		c.staleRejects.Add(1)
	}
}

// Snapshot returns the current aggregate. It is safe to call concurrently
// with Emit; counters are read individually, so a snapshot taken mid-run is
// approximate across fields but exact per field.
func (c *Collector) Snapshot() Snapshot {
	return Snapshot{
		Epochs:           c.epochs.Load(),
		LocalUpdates:     c.localUpdates.Load(),
		Aggregates:       c.aggregates.Load(),
		EstimatorRounds:  c.estimatorRounds.Load(),
		PaillierEnc:      c.paillierEnc.Load(),
		PaillierDec:      c.paillierDec.Load(),
		PaillierAdd:      c.paillierAdd.Load(),
		PaillierMulPlain: c.paillierMulPlain.Load(),
		PoolBatches:      c.poolBatches.Load(),
		PoolTasks:        c.poolTasks.Load(),
		PoolWorkersMax:   c.poolWorkersMax.Load(),
		Dropouts:         c.dropouts.Load(),
		Stragglers:       c.stragglers.Load(),
		Retries:          c.retries.Load(),
		Crashes:          c.crashes.Load(),
		Checkpoints:      c.checkpoints.Load(),
		Resumes:          c.resumes.Load(),
		NetRounds:        c.netRounds.Load(),
		NetRequests:      c.netRequests.Load(),
		NetTimeouts:      c.netTimeouts.Load(),
		NetRoundTime:     time.Duration(c.netRoundNanos.Load()),
		NetBytesRx:       c.netBytesRx.Load(),
		NetBytesTx:       c.netBytesTx.Load(),
		CodecV2Frames:    c.codecV2Frames.Load(),
		WALAppends:       c.walAppends.Load(),
		WALBytes:         c.walBytes.Load(),
		Recoveries:       c.recoveries.Load(),
		Rejoins:          c.rejoins.Load(),
		AsyncCommits:     c.asyncCommits.Load(),
		StaleFolds:       c.staleFolds.Load(),
		StaleRejects:     c.staleRejects.Load(),
		AttacksInjected:  c.attacksInjected.Load(),
		UpdatesRejected:  c.updatesRejected.Load(),
		UpdatesClipped:   c.updatesClipped.Load(),
		Quarantines:      c.quarantines.Load(),
		EpochTime:        time.Duration(c.epochNanos.Load()),
		LocalUpdateTime:  time.Duration(c.localUpdateNanos.Load()),
		AggregateTime:    time.Duration(c.aggregateNanos.Load()),
		EstimatorTime:    time.Duration(c.estNanos.Load()),
	}
}

// traceHeader pins the trace file format.
type traceHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
}

const (
	traceFormat  = "digfl-trace"
	traceVersion = 1
)

// traceEvent is the JSONL wire form of an Event. Value uses the shared
// sentinel encoding so NaN/±Inf validation losses (routine in diverged
// runs) cannot truncate the trace mid-stream.
type traceEvent struct {
	Kind    string    `json:"kind"`
	T       int       `json:"t,omitempty"`
	Part    int       `json:"part,omitempty"`
	N       int64     `json:"n,omitempty"`
	Workers int       `json:"workers,omitempty"`
	DurNS   int64     `json:"dur_ns,omitempty"`
	Value   jsonf.F64 `json:"value,omitempty"`
}

// TraceWriter is the JSONL trace sink: one header line, then one line per
// event, append- and stream-friendly like the training-log archive. It is
// safe for concurrent emission; events from parallel workers serialize on
// an internal mutex. Errors are sticky — the first write failure stops
// further output and is reported by Err, so a full disk never panics a
// training run.
type TraceWriter struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewTraceWriter starts a trace on w by writing the header line. The
// caller owns w; call Flush before closing it.
func NewTraceWriter(w io.Writer) *TraceWriter {
	bw := bufio.NewWriter(w)
	t := &TraceWriter{bw: bw, enc: json.NewEncoder(bw)}
	t.err = t.enc.Encode(traceHeader{Format: traceFormat, Version: traceVersion})
	return t
}

// Emit implements Sink.
func (t *TraceWriter) Emit(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	t.err = t.enc.Encode(traceEvent{
		Kind: e.Kind.String(), T: e.T, Part: e.Part, N: e.N,
		Workers: e.Workers, DurNS: int64(e.Dur), Value: jsonf.F64(e.Value),
	})
}

// Flush drains the internal buffer and returns the first error seen.
func (t *TraceWriter) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	t.err = t.bw.Flush()
	return t.err
}

// Err returns the sticky error, if any.
func (t *TraceWriter) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// ReadTrace parses a trace written by TraceWriter back into events — the
// offline half of trace-based analysis (and of the offline_audit example).
func ReadTrace(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var h traceHeader
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("obs: reading trace header: %w", err)
	}
	if h.Format != traceFormat {
		return nil, fmt.Errorf("obs: trace format %q, want %q", h.Format, traceFormat)
	}
	if h.Version < 1 || h.Version > traceVersion {
		return nil, fmt.Errorf("obs: unsupported trace version %d", h.Version)
	}
	kinds := make(map[string]Kind, numKinds)
	for k := Kind(0); k < numKinds; k++ {
		kinds[k.String()] = k
	}
	var events []Event
	for {
		var te traceEvent
		if err := dec.Decode(&te); err != nil {
			if errors.Is(err, io.EOF) {
				return events, nil
			}
			return nil, fmt.Errorf("obs: reading trace event %d: %w", len(events), err)
		}
		k, ok := kinds[te.Kind]
		if !ok {
			return nil, fmt.Errorf("obs: trace event %d has unknown kind %q", len(events), te.Kind)
		}
		events = append(events, Event{
			Kind: k, T: te.T, Part: te.Part, N: te.N,
			Workers: te.Workers, Dur: time.Duration(te.DurNS), Value: float64(te.Value),
		})
	}
}

// tee fans events out to several sinks in order.
type tee []Sink

func (t tee) Emit(e Event) {
	for _, s := range t {
		s.Emit(e)
	}
}

// Tee returns a sink that forwards every event to each of the given sinks
// in order, skipping nils. It returns nil when no non-nil sink remains, so
// Tee(nil, nil) keeps the zero-cost no-op path.
func Tee(sinks ...Sink) Sink {
	var out tee
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}
