// Package obs is the observability layer: a zero-dependency event substrate
// every hot path in the repository reports into — trainer epochs, local
// updates, aggregation, estimator rounds, Paillier ciphertext operations,
// and worker-pool batches. A run with no sink attached pays only a nil
// check per instrumentation point (no allocations, no clock reads); a run
// with a sink attached gets a full account of where its wall-clock and its
// ciphertext budget went, which is how the paper's computation- and
// communication-cost tables are produced from real counters instead of
// hand-derived formulas.
//
// The package ships two sinks: Collector, a lock-free atomic aggregator
// whose Snapshot is cheap enough to read mid-run, and TraceWriter, a JSONL
// trace using the same non-finite-safe float encoding as the /v1/score reply
// (internal/jsonf). Tee fans events out to several sinks.
//
// Observability never perturbs results: sinks only receive copies of
// scalar measurements, so attaching one leaves every output bit-identical.
package obs

import (
	"runtime"
	"time"
)

// Kind discriminates the event taxonomy.
type Kind uint8

const (
	// KindEpochStart marks the beginning of training round T.
	KindEpochStart Kind = iota
	// KindEpochEnd closes round T; Dur is the full round wall-clock and
	// Value the post-round validation loss.
	KindEpochEnd
	// KindLocalUpdate is one participant's local training in round T;
	// Part is the global participant index and Dur the local wall-clock.
	KindLocalUpdate
	// KindAggregate is the server's combination of local updates in round
	// T; N is the number of updates combined.
	KindAggregate
	// KindEstimatorRound is one DIG-FL estimator observation of round T;
	// Dur covers the whole per-participant loop (in Interactive mode,
	// dominated by the Hessian-vector products) and N is the number of
	// participants processed.
	KindEstimatorRound
	// KindPaillierEnc counts N Paillier encryptions.
	KindPaillierEnc
	// KindPaillierDec counts N Paillier decryptions.
	KindPaillierDec
	// KindPaillierAdd counts N homomorphic additions (ciphertext +
	// ciphertext or ciphertext + plaintext).
	KindPaillierAdd
	// KindPaillierMulPlain counts N ciphertext-by-plaintext multiplications.
	KindPaillierMulPlain
	// KindPoolTask is one bounded-pool batch: N tasks executed on Workers
	// goroutines.
	KindPoolTask
	// KindDropout marks participant Part dropping out of round T (an
	// injected or observed partial-participation epoch).
	KindDropout
	// KindStraggler marks participant Part straggling in round T; Dur is
	// the injected delay.
	KindStraggler
	// KindRetry marks a failed secure-protocol round in epoch T being
	// retried; N is the attempt number that failed (1-based).
	KindRetry
	// KindCrash marks an injected crash at the start of round T.
	KindCrash
	// KindCheckpoint marks trainer state persisted after round T.
	KindCheckpoint
	// KindResume marks training resuming from a checkpoint at round T.
	KindResume
	// KindNetRoundStart marks the networked coordinator opening round T to
	// its participants; N is the number of participants expected to report.
	KindNetRoundStart
	// KindNetRoundEnd marks the coordinator closing networked round T; N is
	// the number of participants that reported in time and Dur the round's
	// open-to-close wall clock (the paper's per-round network latency).
	KindNetRoundEnd
	// KindNetRequest is one wire-protocol request: handled, on the
	// coordinator side, or attempted, on the participant side. Part is the
	// participant index when known.
	KindNetRequest
	// KindNetTimeout marks participant Part missing networked round T's
	// deadline; the round proceeds with the survivors (Epoch.Reported).
	KindNetTimeout
	// KindAttackInjected marks an adversarial participant Part corrupting
	// its round-T update (internal/adversary simulators, or a poisoned shard
	// planted at setup, in which case T is 0).
	KindAttackInjected
	// KindUpdateRejected marks participant Part's round-T update being
	// dropped before aggregation — wrong shape, non-finite values, or a
	// wire-level validation failure on the networked coordinator. The epoch
	// proceeds without it (Epoch.Reported survivor semantics).
	KindUpdateRejected
	// KindUpdateClipped marks participant Part's round-T update being
	// norm-clipped by the server-side screen; Value is the pre-clip L2 norm.
	KindUpdateClipped
	// KindQuarantine marks participant Part being demoted to zero
	// aggregation weight after round T by the contribution-guided
	// quarantine policy.
	KindQuarantine
	// KindSample marks round T running on a sampled cohort; N is the cohort
	// size (the rest of the population sits the round out with zero φ).
	KindSample
	// KindNetBytesRx counts N request-body bytes received by a wire-protocol
	// server.
	KindNetBytesRx
	// KindNetBytesTx counts N response-body bytes written by a wire-protocol
	// server. Rx+Tx is the run's bytes-on-wire as the server saw them.
	KindNetBytesTx
	// KindCodecV2Frame counts a bulk payload (update or round broadcast)
	// carried as a digfl-fednet/2 binary frame.
	KindCodecV2Frame
	// KindWALAppend counts one record appended to the coordinator's
	// write-ahead journal; N is the record's size in bytes (header
	// included), so the counter sums to the run's bytes journaled.
	KindWALAppend
	// KindRecover marks a restarted coordinator finishing WAL replay; T is
	// the epoch the recovered run resumes in and N the number of journal
	// records replayed.
	KindRecover
	// KindRejoin marks participant Part re-joining a restarted coordinator
	// after a 503 recovering reply or an instance-token change.
	KindRejoin
	// KindAsyncCommit marks asynchronous round T committing its quorum cut;
	// N is the number of updates in the commit set.
	KindAsyncCommit
	// KindStaleFold marks participant Part's stale update folding into
	// round T at a staleness discount; N is the staleness in epochs.
	KindStaleFold
	// KindStaleReject marks participant Part's buffered update being
	// rejected at round T for exceeding the staleness window; N is the
	// staleness it had reached.
	KindStaleReject

	numKinds
)

var kindNames = [numKinds]string{
	KindEpochStart:       "epoch_start",
	KindEpochEnd:         "epoch_end",
	KindLocalUpdate:      "local_update",
	KindAggregate:        "aggregate",
	KindEstimatorRound:   "estimator_round",
	KindPaillierEnc:      "paillier_enc",
	KindPaillierDec:      "paillier_dec",
	KindPaillierAdd:      "paillier_add",
	KindPaillierMulPlain: "paillier_mul_plain",
	KindPoolTask:         "pool_task",
	KindDropout:          "dropout",
	KindStraggler:        "straggler",
	KindRetry:            "retry",
	KindCrash:            "crash",
	KindCheckpoint:       "checkpoint",
	KindResume:           "resume",
	KindNetRoundStart:    "net_round_start",
	KindNetRoundEnd:      "net_round_end",
	KindNetRequest:       "net_request",
	KindNetTimeout:       "net_timeout",
	KindAttackInjected:   "attack_injected",
	KindUpdateRejected:   "update_rejected",
	KindUpdateClipped:    "update_clipped",
	KindQuarantine:       "quarantine",
	KindSample:           "sample",
	KindNetBytesRx:       "net_bytes_rx",
	KindNetBytesTx:       "net_bytes_tx",
	KindCodecV2Frame:     "codec_v2_frame",
	KindWALAppend:        "wal_append",
	KindRecover:          "recover",
	KindRejoin:           "rejoin",
	KindAsyncCommit:      "async_commit",
	KindStaleFold:        "stale_fold",
	KindStaleReject:      "stale_reject",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one typed observation. Events are small value types; emitting
// one never allocates.
type Event struct {
	// Kind discriminates the event.
	Kind Kind
	// T is the 1-based training round the event belongs to; 0 when the
	// event is not tied to a round (pool batches, Paillier op batches
	// outside an epoch).
	T int
	// Part is the global participant index; meaningful only for
	// KindLocalUpdate events.
	Part int
	// N is the batch size: operations in a batched Paillier event, updates
	// combined in an aggregate, participants in an estimator round, tasks
	// in a pool batch.
	N int64
	// Workers is the effective worker count of a KindPoolTask event.
	Workers int
	// Dur is the measured duration of timed events (EpochEnd, LocalUpdate,
	// Aggregate, EstimatorRound); 0 elsewhere.
	Dur time.Duration
	// Value is a kind-specific measurement: the validation loss for
	// KindEpochEnd. It may be NaN or ±Inf in diverged runs; the trace
	// writer encodes those losslessly.
	Value float64
}

// Sink receives events. Implementations must be safe for concurrent use:
// instrumented hot paths emit from pool workers. Emit must not retain
// pointers into the event (it has none) and should return quickly — slow
// sinks stall the instrumented path, not the results.
type Sink interface {
	Emit(e Event)
}

// Emit forwards e to s when s is non-nil. The nil check is the entire cost
// of instrumentation when observability is off: no allocation, no clock
// read, one well-predicted branch.
func Emit(s Sink, e Event) {
	if s != nil {
		s.Emit(e)
	}
}

// Start returns the current time when a sink is attached and the zero Time
// otherwise, so uninstrumented runs never touch the clock.
func Start(s Sink) time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

// Since returns the elapsed time since a Start(s) timestamp, or 0 when no
// sink is attached.
func Since(s Sink, t0 time.Time) time.Duration {
	if s == nil {
		return 0
	}
	return time.Since(t0)
}

// Runtime is the unified runtime surface every trainer, estimator, and the
// secure protocol accept: one worker budget and one observability sink.
type Runtime struct {
	// Workers is the bounded worker-pool budget: 0 or 1 selects the serial
	// path, > 1 sets the pool size, and negative selects GOMAXPROCS.
	Workers int
	// Sink receives observability events; nil (the default) disables
	// instrumentation at the cost of one branch per instrumentation point.
	Sink Sink
}

// Resolve returns the effective pool size every concurrent hot path uses.
func (r Runtime) Resolve() int {
	if r.Workers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(r.Workers, 1)
}
