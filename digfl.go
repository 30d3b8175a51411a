// Package digfl is an open-source Go implementation of DIG-FL — "Efficient
// Participant Contribution Evaluation for Horizontal and Vertical Federated
// Learning" (Wang et al., ICDE 2022).
//
// DIG-FL estimates every participant's Shapley value from the training log
// alone — no model retraining, no access to local data — for both horizontal
// (HFL) and vertical (VFL) federated learning, and uses the per-epoch
// contributions to reweight participants during training.
//
// This root package is a facade re-exporting the user-facing API; the
// implementation lives in the internal packages:
//
//	internal/core        DIG-FL estimators and the reweight mechanism
//	internal/hfl         horizontal FL substrate (FedSGD / FedAvg-style)
//	internal/vfl         vertical FL substrate (plaintext + Paillier protocol)
//	internal/fednet      networked coordinator/participant runtime (HTTP)
//	internal/nn          models with hand-derived gradients and HVPs
//	internal/dataset     synthetic data generators, partitioners, corruptions
//	internal/shapley     exact Shapley, TMC-Shapley, GT-Shapley
//	internal/baselines   MR, OR and IM comparison methods
//	internal/paillier    additively homomorphic encryption
//	internal/metrics     PCC, cost accounting
//	internal/experiments one runner per paper table/figure
//
// A minimal HFL session:
//
//	tr := &digfl.HFLTrainer{
//		Model: digfl.NewSoftmaxRegression(dim, classes),
//		Parts: parts, Val: val,
//		Cfg:   digfl.HFLConfig{Epochs: 30, LR: 0.1, KeepLog: true},
//	}
//	res, err := tr.RunContext(ctx)
//	if err != nil {
//		log.Fatal(err)
//	}
//	attr := digfl.EstimateHFL(res.Log, len(parts), digfl.ResourceSaving, nil)
//	fmt.Println(attr.Totals) // estimated Shapley value per participant
//
// # Runtime: parallelism and observability
//
// Every training, estimation and secure-protocol entry point accepts a
// shared Runtime value carrying the two cross-cutting knobs:
//
//	rt := digfl.Runtime{Workers: 4, Sink: collector}
//	tr.Cfg = digfl.HFLConfig{Epochs: 30, LR: 0.1, KeepLog: true, Runtime: rt}
//
// Runtime.Workers bounds the worker pool of the component's concurrent hot
// path (local updates for the HFL trainer, per-participant HVPs for the
// interactive HFL estimator, per-block replay for the VFL estimator,
// per-element Paillier operations for the secure protocol): 1 forces the
// serial path, > 1 sets the pool size, negative selects GOMAXPROCS, and 0
// takes the component's default — serial everywhere except the secure
// protocol, whose Paillier arithmetic is compute-bound and defaults to
// GOMAXPROCS. Every component resolves its pool size through the single
// Runtime.Resolve rule.
//
// Migration note: the pre-Runtime knobs — HFLConfig.Parallel and
// HFLConfig.Workers (the historical bool+cap pair), HFLEstimator.Workers,
// and SecureConfig.Workers — have been removed after one deprecation
// cycle. Replace any use with Runtime.Workers: Parallel:true maps to
// Workers:-1 (GOMAXPROCS), Parallel:true+Workers:k to Workers:k, and a
// zero-valued SecureConfig keeps its GOMAXPROCS default with no change.
//
// Pool outputs are bit-identical to the serial path, so parallelism is
// purely a wall-clock knob; parallel estimator paths require a
// concurrency-safe HVPProvider (LocalHVP and TrainHVP both are — each
// in-flight call works on its own pooled model clone).
//
// Runtime.Sink attaches an observability sink receiving typed Events
// (epoch boundaries, local updates, aggregations, estimator rounds,
// Paillier operation batches, pool dispatches). A nil sink is a
// branch-predicted no-op — zero allocations, no clock reads — and no sink
// ever perturbs numerical results. Two implementations ship: Collector
// (atomic in-memory counters with a Snapshot) and TraceWriter (JSONL
// stream readable back via ReadTrace); Tee fans out to several.
//
// # Training-log persistence
//
// WriteHFLLog/WriteVFLLog emit format version 2, which encodes non-finite
// floats (NaN, ±Inf — routine in diverged runs) as the string sentinels
// "NaN", "+Inf" and "-Inf"; version-1 files remain readable.
//
// # Fault tolerance
//
// The trainers survive the failures a real federation exhibits. A seeded,
// deterministic FaultInjector (NewFaultInjector) drives per-epoch dropout,
// straggler delay, crash-at-epoch-k, and transient secure-round failures;
// every decision is a pure function of (seed, epoch, participant), so the
// same seed reproduces the same fault schedule regardless of worker count
// or resume point. Epochs where someone dropped out carry a Reported
// survivor list; aggregation renormalizes over the survivors and the
// estimators score missing participants zero for the epoch (Lemma 3
// additivity). The Paillier protocol retries failed rounds with capped
// exponential backoff (SecureConfig.MaxRetries). Configs with
// CheckpointEvery hand periodic HFLTrainerCheckpoint/VFLTrainerCheckpoint
// snapshots to a callback — persist them with WriteHFLCheckpoint together
// with the online estimator's State() — and after a crash (a *CrashError
// from RunE) the snapshot resumes training via Config.Resume with results
// bit-identical to an uninterrupted run. With no injector configured, or a
// configured injector that happens to fire nothing, outputs are
// bit-identical to a build without fault tolerance at all.
//
// # Networked runtime
//
// The fednet layer runs the same training and estimation over a real HTTP
// boundary. A NetCoordinator owns the global model and validation set,
// serves the versioned wire protocol (join / round / update / aggregate /
// score), and drives ordinary HFL epochs through the trainer's RoundSource
// seam; a NetParticipant wraps one local dataset shard and polls for
// rounds. RunLoopback wires N participants to a coordinator over a
// loopback listener in one call:
//
//	coord := &digfl.NetCoordinator{N: 3, Model: model, Val: val,
//		Cfg: digfl.HFLConfig{Epochs: 30, LR: 0.1, KeepLog: true},
//		Estimator: digfl.NewHFLEstimator(3, model.NumParams(), digfl.ResourceSaving, nil)}
//	res, perrs, err := digfl.RunLoopback(ctx, coord, func(i int) *digfl.NetParticipant {
//		return &digfl.NetParticipant{Index: i, Model: model, Data: parts[i], Retries: 3}
//	})
//
// The determinism contract: a fault-free networked run reproduces the
// in-process trainer's model, loss curve, and contributions φ bit for bit
// (floats cross the wire exactly in both encodings; deltas are slotted by
// participant index, so aggregation never depends on arrival order). A
// participant missing the coordinator's RoundDeadline degrades that epoch
// to the survivors with the same Reported semantics as injected dropout,
// and transient request failures are retried with capped exponential
// backoff, invisibly to the result.
//
// Bulk payloads (round broadcasts, updates, edge partials) travel in one
// encoding, NetProtocolV2: a raw little-endian binary framing that, with
// the runtime's buffer pooling, makes a streamed round allocate near-zero
// transient memory and carries float64 values bit exactly. JSON is the
// control plane only (join, acks, round markers, errors, scores); there is
// nothing to negotiate or pin (DESIGN.md §11 specifies the frames).
//
// # Adversarial robustness
//
// The runtime defends contribution evaluation against Byzantine and
// free-riding participants, and uses contribution evaluation itself as a
// defense. Deterministic attack simulators (NewAdversary, wrapped around
// any round source via AdversarySource, or applied to shards via
// PoisonShards) model label flipping, sign flipping, scaled model
// poisoning, additive-noise free riding, and colluding cliques; every
// attack decision hashes (seed, round, participant), so attacked runs are
// exactly reproducible. Server-side, an UpdateScreen vets each round's
// updates before aggregation — wrong shapes and non-finite values are
// rejected, outlier L2 norms are clipped against a running median — and
// Byzantine-resilient aggregators (MedianAggregator, TrimmedMeanAggregator,
// KrumAggregator, MultiKrumAggregator, NormBoundAggregator) replace the
// mean wholesale. The contribution-guided Quarantine closes the loop: it
// reweights by rectified per-epoch φ (Eq. 17) and permanently zero-weights
// participants whose smoothed contribution stays non-positive, surfacing
// bans on the networked coordinator's /v1/score endpoint. The networked
// coordinator additionally rejects malformed updates at the wire with
// typed errors (WireError codes WireStaleRound, WireBadShape,
// WireNonFinite). With no adversary configured and defenses attached, every
// run is bit-identical to an undefended build — the defense stack costs
// nothing until it fires.
//
// Long-running sessions use the context-aware entry points RunContext /
// RunSubsetContext on both trainers: cancellation is observed at the next
// epoch boundary, returns the context's error, and never corrupts
// checkpoint state, so a canceled run resumes bit-identically via
// Config.Resume. Run and RunE remain thin wrappers over
// context.Background().
package digfl

import (
	"digfl/internal/adversary"
	"digfl/internal/baselines"
	"digfl/internal/core"
	"digfl/internal/dataset"
	"digfl/internal/faults"
	"digfl/internal/fednet"
	"digfl/internal/hfl"
	"digfl/internal/logio"
	"digfl/internal/metrics"
	"digfl/internal/nn"
	"digfl/internal/obs"
	"digfl/internal/robust"
	"digfl/internal/sampling"
	"digfl/internal/shapley"
	"digfl/internal/vfl"
)

// Runtime and observability (internal/obs).
type (
	// Runtime bundles the cross-cutting worker-pool and observability
	// options accepted by HFLConfig, VFLConfig, SecureConfig and both
	// estimators.
	Runtime = obs.Runtime
	// Sink receives observability events; implementations must be safe for
	// concurrent use.
	Sink = obs.Sink
	// Event is one observability record.
	Event = obs.Event
	// EventKind discriminates Event records.
	EventKind = obs.Kind
	// Snapshot is a point-in-time copy of a Collector's counters.
	Snapshot = obs.Snapshot
	// Collector is an in-memory aggregating Sink.
	Collector = obs.Collector
	// TraceWriter is a JSONL-streaming Sink.
	TraceWriter = obs.TraceWriter
)

// Event kinds.
const (
	// KindEpochStart opens a training epoch.
	KindEpochStart = obs.KindEpochStart
	// KindEpochEnd closes a training epoch (Value carries the loss).
	KindEpochEnd = obs.KindEpochEnd
	// KindLocalUpdate is one participant's local computation.
	KindLocalUpdate = obs.KindLocalUpdate
	// KindAggregate is one server-side aggregation.
	KindAggregate = obs.KindAggregate
	// KindEstimatorRound is one estimator epoch replay.
	KindEstimatorRound = obs.KindEstimatorRound
	// KindPaillierEnc counts a batch of Paillier encryptions.
	KindPaillierEnc = obs.KindPaillierEnc
	// KindPaillierDec counts a batch of Paillier decryptions.
	KindPaillierDec = obs.KindPaillierDec
	// KindPaillierAdd counts a batch of homomorphic additions.
	KindPaillierAdd = obs.KindPaillierAdd
	// KindPaillierMulPlain counts a batch of plaintext multiplications.
	KindPaillierMulPlain = obs.KindPaillierMulPlain
	// KindPoolTask is one worker-pool dispatch.
	KindPoolTask = obs.KindPoolTask
	// KindDropout marks a participant missing an epoch.
	KindDropout = obs.KindDropout
	// KindStraggler marks a delayed participant report.
	KindStraggler = obs.KindStraggler
	// KindRetry marks a failed secure-round attempt about to be retried.
	KindRetry = obs.KindRetry
	// KindCrash marks an injected trainer crash.
	KindCrash = obs.KindCrash
	// KindCheckpoint marks a periodic checkpoint capture.
	KindCheckpoint = obs.KindCheckpoint
	// KindResume marks a run resuming from a checkpoint.
	KindResume = obs.KindResume
	// KindNetRoundStart marks a networked round broadcast.
	KindNetRoundStart = obs.KindNetRoundStart
	// KindNetRoundEnd marks a networked round closing (N carries the
	// reporter count, Dur the round latency).
	KindNetRoundEnd = obs.KindNetRoundEnd
	// KindNetRequest counts wire-protocol requests.
	KindNetRequest = obs.KindNetRequest
	// KindNetTimeout marks a participant missing a round deadline.
	KindNetTimeout = obs.KindNetTimeout
	// KindAttackInjected marks a simulated adversary corrupting an update.
	KindAttackInjected = obs.KindAttackInjected
	// KindUpdateRejected marks the defense discarding an update.
	KindUpdateRejected = obs.KindUpdateRejected
	// KindUpdateClipped marks the screen clipping an outlier update norm.
	KindUpdateClipped = obs.KindUpdateClipped
	// KindQuarantine marks a participant being quarantined.
	KindQuarantine = obs.KindQuarantine
)

// Observability constructors and helpers.
var (
	// NewTraceWriter wraps an io.Writer into a JSONL trace Sink.
	NewTraceWriter = obs.NewTraceWriter
	// ReadTrace parses a JSONL trace back into events.
	ReadTrace = obs.ReadTrace
	// Tee fans events out to several sinks.
	Tee = obs.Tee
)

// Core DIG-FL types (internal/core).
type (
	// Mode selects the interactive (Algorithm 1) or resource-saving
	// (Algorithm 2) estimator variant.
	Mode = core.Mode
	// Attribution is a DIG-FL result: per-epoch contributions and the
	// aggregated Shapley estimate.
	Attribution = core.Attribution
	// HFLEstimator is the online horizontal estimator.
	HFLEstimator = core.HFLEstimator
	// VFLEstimator is the online vertical estimator.
	VFLEstimator = core.VFLEstimator
	// HFLReweighter plugs per-epoch contributions into HFL aggregation.
	HFLReweighter = core.HFLReweighter
	// VFLReweighter plugs per-epoch contributions into VFL block weighting.
	VFLReweighter = core.VFLReweighter
	// HVPProvider supplies per-participant Hessian-vector products.
	HVPProvider = core.HVPProvider
	// RoundInfo is the participant-visible broadcast used for local
	// per-sample attribution.
	RoundInfo = core.RoundInfo
)

// Estimator modes.
const (
	// ResourceSaving is Algorithm 2: first-order only, zero extra cost.
	ResourceSaving = core.ResourceSaving
	// Interactive is Algorithm 1: keeps the Hessian correction term.
	Interactive = core.Interactive
)

// Core constructors and functions.
var (
	// NewHFLEstimator creates an online horizontal estimator.
	NewHFLEstimator = core.NewHFLEstimator
	// NewVFLEstimator creates an online vertical estimator.
	NewVFLEstimator = core.NewVFLEstimator
	// EstimateHFL replays a retained HFL training log.
	EstimateHFL = core.EstimateHFL
	// EstimateHFLSubset replays a coalition (RunSubset) training log,
	// mapping each epoch's deltas back to global participant indices.
	EstimateHFLSubset = core.EstimateHFLSubset
	// EstimateVFL replays a retained VFL training log.
	EstimateVFL = core.EstimateVFL
	// LocalHVP builds an HVPProvider from a model and participant data.
	LocalHVP = core.LocalHVP
	// TrainHVP builds a full-model HVP for the interactive VFL estimator.
	TrainHVP = core.TrainHVP
	// ReweightWeights rectifies per-epoch contributions into aggregation
	// weights (Eq. 17).
	ReweightWeights = core.Weights
	// RankParticipants orders participant indices by descending contribution.
	RankParticipants = core.Rank
	// SelectTopK picks the k highest-contribution participants.
	SelectTopK = core.SelectTopK
	// PaymentShares converts totals into a fair reward split.
	PaymentShares = core.PaymentShares
	// SampleContributions decomposes a participant's contribution across
	// its individual samples (local model debugging).
	SampleContributions = core.SampleContributions
	// AccumulateSampleContributions sums sample contributions over a run.
	AccumulateSampleContributions = core.AccumulateSampleContributions
)

// Federated substrates.
type (
	// HFLTrainer runs horizontal FedSGD/FedAvg-style training.
	HFLTrainer = hfl.Trainer
	// HFLConfig holds horizontal training hyperparameters.
	HFLConfig = hfl.Config
	// HFLEpoch is one horizontal training-log record.
	HFLEpoch = hfl.Epoch
	// HFLResult is a horizontal run outcome.
	HFLResult = hfl.Result
	// VFLTrainer runs vertical training.
	VFLTrainer = vfl.Trainer
	// VFLConfig holds vertical training hyperparameters.
	VFLConfig = vfl.Config
	// VFLEpoch is one vertical training-log record.
	VFLEpoch = vfl.Epoch
	// VFLProblem is a vertically partitioned learning task.
	VFLProblem = vfl.Problem
	// VFLResult is a vertical run outcome.
	VFLResult = vfl.Result
	// SecureConfig parameterizes the Paillier-encrypted VFL protocol.
	SecureConfig = vfl.SecureConfig
	// SecureResult is the two-party encrypted protocol outcome.
	SecureResult = vfl.SecureResult
	// SecureNResult is the n-party encrypted protocol outcome.
	SecureNResult = vfl.SecureNResult
)

// Networked runtime (internal/fednet) and the trainer's RoundSource seam.
type (
	// NetCoordinator serves the wire protocol and drives HFL epochs whose
	// local updates arrive over HTTP.
	NetCoordinator = fednet.Coordinator
	// NetParticipant is the matching client wrapping one dataset shard.
	NetParticipant = fednet.Participant
	// NetLocalSource is the in-process reference RoundSource the networked
	// runtime is measured against.
	NetLocalSource = fednet.LocalSource
	// HFLRoundSource supplies an epoch's local updates from outside the
	// trainer — the seam NetCoordinator plugs into.
	HFLRoundSource = hfl.RoundSource
	// HFLRoundSpec is the server's per-round broadcast.
	HFLRoundSpec = hfl.RoundSpec
	// HFLRoundResult carries one round's collected local updates.
	HFLRoundResult = hfl.RoundResult
	// HFLAsyncConfig is the asynchronous (FedBuff-style) commit policy:
	// K-of-N quorum commits with staleness-discounted late folds. Attach
	// via NetCoordinator.Async on a streamed run; the fresh path is
	// bit-identical to the synchronous streamed fold.
	HFLAsyncConfig = hfl.AsyncConfig
	// HFLBufferedRuleError reports a buffered-only aggregation rule
	// (median, trimmed mean, Krum) configured on a path that never
	// materializes the round buffer (Stream or Async).
	HFLBufferedRuleError = hfl.BufferedRuleError
	// NetAsyncLocalSource is the in-process reference RoundSource for the
	// async commit policy — what a loopback async federation is
	// bit-identical to.
	NetAsyncLocalSource = fednet.AsyncLocalSource
)

// Networked runtime helpers.
var (
	// RunLoopback runs a coordinator and its N participants over a real
	// loopback HTTP listener in one call.
	RunLoopback = fednet.Loopback
	// RunTreeLoopback runs a two-level cohort tree (root coordinator, edge
	// sub-aggregators, participants) on the loopback interface.
	RunTreeLoopback = fednet.TreeLoopback
	// HFLPolyWeight builds the polynomial staleness decay
	// w(s) = (1+s)^(-alpha) used by HFLAsyncConfig.Weight; w(0) is exactly
	// 1 for every alpha.
	HFLPolyWeight = hfl.PolyWeight
)

// Scaling runtime (internal/sampling + the streaming aggregation seam): the
// pieces that take a round from O(population·d) memory to O(d + cohort) —
// deterministic client sampling, fold-on-arrival aggregation, cohort trees,
// and epoch-buffer release.
type (
	// Sampler draws each epoch's client cohort deterministically from
	// (seed, epoch): same config, same cohorts, independent of process
	// lifetime, resume, or arrival order. Attach via HFLConfig.Sample.
	Sampler = sampling.Sampler
	// SamplerConfig parameterizes a Sampler (seed, cohort size, optional
	// weights for weighted-without-replacement draws).
	SamplerConfig = sampling.Config
	// MeanStream is the streaming uniform-mean aggregation rule: updates
	// fold on arrival in a canonical segmented order, so streamed runs are
	// bit-identical to each other across topologies with the same segment
	// geometry. Attach via HFLTrainer.Stream or NetCoordinator.Stream.
	MeanStream = hfl.MeanStream
	// StreamAggregator supplies per-round streaming folds — the seam
	// MeanStream implements.
	StreamAggregator = hfl.StreamAggregator
	// StreamFold is one round's fold-on-arrival accumulator.
	StreamFold = hfl.Fold
	// StreamFoldResult is a closed fold's aggregate plus per-update
	// validation dot products.
	StreamFoldResult = hfl.FoldResult
	// BufferedRule is implemented by aggregation rules that cannot stream
	// (median, trimmed mean, Krum) and need the full round buffer.
	BufferedRule = hfl.BufferedRule
	// NetEdgeAggregator is the middle tier of a two-level cohort tree: it
	// folds its members' updates into one partial per round and submits it
	// to the root over /v1/partial.
	NetEdgeAggregator = fednet.EdgeAggregator
	// HFLRetainPolicy controls whether epoch delta buffers outlive the
	// estimator's Observe (HFLConfig.RetainDeltas).
	HFLRetainPolicy = hfl.RetainPolicy
	// VFLRetainPolicy is the vertical counterpart (VFLConfig.RetainDeltas,
	// releasing Epoch.Grad).
	VFLRetainPolicy = vfl.RetainPolicy
)

// Sampler constructors.
var (
	// NewSampler validates a SamplerConfig and builds the sampler.
	NewSampler = sampling.New
	// MustNewSampler is NewSampler panicking on invalid configuration.
	MustNewSampler = sampling.MustNew
)

// Retention policies (HFLConfig.RetainDeltas / VFLConfig.RetainDeltas).
const (
	// HFLRetainAll keeps every epoch's raw deltas alive (historical
	// default).
	HFLRetainAll = hfl.RetainAll
	// HFLReleaseAfterObserve frees each epoch's deltas once aggregation and
	// the Observer have consumed them.
	HFLReleaseAfterObserve = hfl.ReleaseAfterObserve
	// VFLRetainAll keeps every vertical epoch's Grad alive.
	VFLRetainAll = vfl.RetainAll
	// VFLReleaseAfterObserve frees each vertical epoch's Grad after the
	// Observer has run.
	VFLReleaseAfterObserve = vfl.ReleaseAfterObserve
)

// NetProtocol is the wire-protocol version string, checked at join; both
// sides refuse to talk across a version mismatch.
const NetProtocol = fednet.Protocol

// NetProtocolV2 names the binary bulk-payload encoding: round broadcasts,
// updates, and edge partials are raw little-endian frames, always (the
// protocol itself stays NetProtocol).
const NetProtocolV2 = fednet.ProtocolV2

// NetCodecV2 builds the digfl-fednet/2 upload frames (EncodeUpdate,
// EncodePartial) and names their Content-Type.
var NetCodecV2 = fednet.CodecV2

// WireError is a typed wire-protocol rejection (any non-2xx reply); match
// with errors.As and inspect Code.
type WireError = fednet.WireError

// Wire rejection codes carried in WireError.Code.
const (
	// WireStaleRound rejects an update for a round that is not open —
	// benign for the client (the epoch proceeded with the survivors).
	WireStaleRound = fednet.CodeStaleRound
	// WireBadShape rejects a wrong-length update. Fatal for the client.
	WireBadShape = fednet.CodeBadShape
	// WireNonFinite rejects an update carrying NaN/±Inf. Fatal for the
	// client.
	WireNonFinite = fednet.CodeNonFinite
	// WireBadFrame rejects a malformed digfl-fednet/2 binary frame
	// (truncated, oversized, or header-contradicting). Fatal for the
	// client.
	WireBadFrame = fednet.CodeBadFrame
	// WireRecovering is the 503 a restarted coordinator answers with
	// while it waits for its participants to re-join: transient — retry,
	// and re-join when the instance header changed (the built-in
	// Participant does both automatically).
	WireRecovering = fednet.CodeRecovering
	// WireTooStale is the 409 an async round answers a late update whose
	// origin is past the staleness window (HFLAsyncConfig.MaxStaleness) —
	// benign for the client, which skips forward to the open round.
	WireTooStale = fednet.CodeTooStale
)

// Vertical model kinds.
const (
	// VFLLinReg is vertical linear regression (the running example).
	VFLLinReg = vfl.LinReg
	// VFLLogReg is vertical logistic regression.
	VFLLogReg = vfl.LogReg
)

// Secure protocol entry points (Algorithm 3).
var (
	// RunSecure executes the Paillier-encrypted two-party vertical protocol
	// for the problem's model kind (exact MSE gradient for linear
	// regression, Taylor-approximated cross-entropy for logistic).
	RunSecure = vfl.RunSecure
	// RunSecureLinReg is RunSecure restricted to the paper's
	// linear-regression running example.
	RunSecureLinReg = vfl.RunSecureLinReg
	// RunSecureN generalizes the protocol to any number of parties.
	RunSecureN = vfl.RunSecureN
)

// Models (internal/nn).
type (
	// Model is the common parametric-model interface.
	Model = nn.Model
	// Classifier adds Predict to Model.
	Classifier = nn.Classifier
)

// Model constructors.
var (
	// NewLinearRegression builds least-squares regression.
	NewLinearRegression = nn.NewLinearRegression
	// NewLogisticRegression builds binary logistic regression.
	NewLogisticRegression = nn.NewLogisticRegression
	// NewSoftmaxRegression builds multinomial logistic regression.
	NewSoftmaxRegression = nn.NewSoftmaxRegression
	// NewMLP builds a one-hidden-layer perceptron.
	NewMLP = nn.NewMLP
	// NewCNN builds the small convolutional classifier.
	NewCNN = nn.NewCNN
	// HFLAccuracy evaluates a classifier on a dataset.
	HFLAccuracy = hfl.Accuracy
)

// Data handling (internal/dataset).
type (
	// Dataset is a design matrix with labels.
	Dataset = dataset.Dataset
	// Block is a contiguous feature range owned by a VFL participant.
	Block = dataset.Block
	// NonIIDConfig controls class-restricted horizontal partitioning.
	NonIIDConfig = dataset.NonIIDConfig
)

// Dataset generator configurations.
type (
	// ImageConfig parameterizes the class-prototype image generator.
	ImageConfig = dataset.ImageConfig
	// TabularConfig parameterizes the planted-ground-truth tabular generator.
	TabularConfig = dataset.TabularConfig
)

// Dataset tasks.
const (
	// Regression marks continuous-target datasets.
	Regression = dataset.Regression
	// Classification marks integer-label datasets.
	Classification = dataset.Classification
)

// Dataset helpers.
var (
	// SynthImages samples a synthetic image-classification dataset.
	SynthImages = dataset.SynthImages
	// SynthTabular samples a synthetic tabular dataset.
	SynthTabular = dataset.SynthTabular
	// MNISTLike, CIFARLike, MOTORLike and REALLike are the paper-dataset
	// stand-ins used throughout the experiments.
	MNISTLike = dataset.MNISTLike
	// CIFARLike is the noisier 10-class image preset.
	CIFARLike = dataset.CIFARLike
	// MOTORLike is the binary image preset.
	MOTORLike = dataset.MOTORLike
	// REALLike is the crawled-images preset.
	REALLike = dataset.REALLike
	// PartitionIID deals a dataset evenly to n participants.
	PartitionIID = dataset.PartitionIID
	// PartitionNonIID creates the paper's non-IID participant mix.
	PartitionNonIID = dataset.PartitionNonIID
	// VerticalBlocks splits features into contiguous per-party blocks.
	VerticalBlocks = dataset.VerticalBlocks
	// Mislabel corrupts a fraction of classification labels uniformly.
	Mislabel = dataset.Mislabel
	// FlipLabels corrupts labels with a targeted (y+1 mod C) flip.
	FlipLabels = dataset.FlipLabels
	// ScrambleFeatures destroys feature-target relationships while keeping
	// marginals, planting low-contribution VFL parties.
	ScrambleFeatures = dataset.ScrambleFeatures
)

// Shapley machinery (internal/shapley) and comparison baselines.
type (
	// Utility is a coalition value function.
	Utility = shapley.Utility
	// TMCConfig controls Truncated Monte Carlo Shapley.
	TMCConfig = shapley.TMCConfig
	// GTConfig controls group-testing Shapley.
	GTConfig = shapley.GTConfig
	// ContributionEngine is the pluggable contribution-estimator seam:
	// per-epoch Observe, Finalize → φ matrix + totals + cost, and
	// State/SetState for checkpoint/resume. Registered engines: exact, tmc,
	// gt, gtg, dpvs.
	ContributionEngine = shapley.Engine
	// EngineSpec configures a contribution engine (population size,
	// validation-loss oracle, seed, per-engine knobs).
	EngineSpec = shapley.EngineSpec
	// EngineReport is a contribution engine's finalized attribution.
	EngineReport = shapley.Report
	// EngineState is a contribution engine's checkpoint snapshot.
	EngineState = shapley.EngineState
	// GTGConfig controls the GTG-Shapley engine (guided truncation +
	// within-round permutation sampling with convergence cutoff).
	GTGConfig = shapley.GTGConfig
	// DPVSConfig controls the DPVS-Shapley engine (dynamic pruning of
	// low-volatility participants).
	DPVSConfig = shapley.DPVSConfig
	// EngineValLoss is the validation-loss oracle engines reconstruct
	// coalition models against.
	EngineValLoss = shapley.ValLoss
)

// Contribution-engine registry.
var (
	// NewContributionEngine builds a registered engine by name.
	NewContributionEngine = shapley.NewEngine
	// ContributionEngines lists the registered engine names.
	ContributionEngines = shapley.Engines
	// RegisterContributionEngine adds a custom engine to the registry.
	RegisterContributionEngine = shapley.RegisterEngine
	// DefaultGTG and DefaultDPVS are the tuned engine configurations the
	// experiments use.
	DefaultGTG  = shapley.DefaultGTG
	DefaultDPVS = shapley.DefaultDPVS
)

// Robust-aggregation baselines (extension: hfl.Aggregator plugins that
// contrast with the reweight mechanism beyond the honest-majority regime).
type (
	// MedianAggregator is coordinate-wise median aggregation.
	MedianAggregator = robust.Median
	// TrimmedMeanAggregator is coordinate-wise trimmed-mean aggregation.
	TrimmedMeanAggregator = robust.TrimmedMean
	// KrumAggregator selects the single update closest to its neighbors
	// (Krum), tolerating F Byzantine participants when n ≥ 2F+3.
	KrumAggregator = robust.Krum
	// MultiKrumAggregator averages the M best-scored updates (Multi-Krum).
	MultiKrumAggregator = robust.MultiKrum
	// NormBoundAggregator clips every update to a maximum L2 norm before
	// the mean.
	NormBoundAggregator = robust.NormBound
	// HFLAggregator is the aggregation plugin interface: it returns the
	// round's global update or an error that fails the run.
	HFLAggregator = hfl.Aggregator
	// HFLScreener vets a round's collected updates before aggregation,
	// returning the positions to drop.
	HFLScreener = hfl.Screener
)

// Robust-aggregation constructors.
var (
	// NewTrimmedMean validates the trim count at construction instead of
	// panicking epochs into training.
	NewTrimmedMean = robust.NewTrimmedMean
)

// Adversarial defense (internal/robust screening + quarantine).
type (
	// ScreenConfig parameterizes the server-side update screen.
	ScreenConfig = robust.ScreenConfig
	// UpdateScreen is the hfl.Screener rejecting malformed updates and
	// clipping outlier norms against a running median.
	UpdateScreen = robust.UpdateScreen
	// Quarantine is the contribution-guided reweighter: rectified Eq. 17
	// weights plus permanent exclusion of persistently negative
	// contributors.
	Quarantine = robust.Quarantine
	// FedProx is the proximal-term heterogeneity defense: Apply installs
	// HFLConfig.Prox, adding μ·(w − θ) to each multi-step local gradient.
	// μ = 0 is bit-identical to builds without the term.
	FedProx = robust.FedProx
)

// Adversarial-defense constructors.
var (
	// NewUpdateScreen validates a ScreenConfig and builds the screen.
	NewUpdateScreen = robust.NewUpdateScreen
	// MustNewUpdateScreen is NewUpdateScreen panicking on invalid config.
	MustNewUpdateScreen = robust.MustNewUpdateScreen
	// NewQuarantine validates a Quarantine policy and builds it.
	NewQuarantine = robust.NewQuarantine
	// MustNewQuarantine is NewQuarantine panicking on invalid config.
	MustNewQuarantine = robust.MustNewQuarantine
)

// Attack simulation (internal/adversary).
type (
	// AttackKind selects the simulated attack behavior.
	AttackKind = adversary.Kind
	// AttackConfig parameterizes a deterministic adversary.
	AttackConfig = adversary.Config
	// Adversary makes seed-driven attack decisions; nil attacks nothing.
	Adversary = adversary.Adversary
	// AdversarySource wraps any HFLRoundSource, corrupting attacker updates
	// after the honest computation.
	AdversarySource = adversary.Source
)

// Attack kinds.
const (
	// AttackLabelFlip poisons attacker shards at setup (data poisoning).
	AttackLabelFlip = adversary.LabelFlip
	// AttackSignFlip negates and amplifies attacker updates.
	AttackSignFlip = adversary.SignFlip
	// AttackScalePoison amplifies attacker updates (model replacement).
	AttackScalePoison = adversary.ScalePoison
	// AttackFreeRider replaces attacker updates with low-magnitude noise.
	AttackFreeRider = adversary.FreeRider
	// AttackCollude makes all attackers push one shared malicious direction.
	AttackCollude = adversary.Collude
)

// Attack-simulation constructors.
var (
	// NewAdversary validates an AttackConfig and builds the adversary.
	NewAdversary = adversary.New
	// MustNewAdversary is NewAdversary panicking on invalid config.
	MustNewAdversary = adversary.MustNew
	// ParseAttackKind maps the wire/CLI names ("sign_flip", ...) to a Kind.
	ParseAttackKind = adversary.ParseKind
)

// Fault tolerance (internal/faults + checkpoint machinery).
type (
	// FaultConfig parameterizes the deterministic fault injector.
	FaultConfig = faults.Config
	// FaultInjector makes seeded, order-independent fault decisions; a nil
	// injector injects nothing.
	FaultInjector = faults.Injector
	// CrashError reports an injected trainer crash; resume from the latest
	// checkpoint via Config.Resume.
	CrashError = faults.CrashError
	// EstimatorState is the serializable state of an online estimator,
	// captured by State and reinstalled by SetState around a crash.
	EstimatorState = core.EstimatorState
	// HFLTrainerCheckpoint is the HFL trainer's resumable snapshot.
	HFLTrainerCheckpoint = hfl.Checkpoint
	// VFLTrainerCheckpoint is the VFL trainer's resumable snapshot.
	VFLTrainerCheckpoint = vfl.Checkpoint
	// HFLCheckpoint bundles an HFL trainer snapshot with estimator state
	// for persistence.
	HFLCheckpoint = logio.HFLCheckpoint
	// VFLCheckpoint bundles a VFL trainer snapshot with estimator state.
	VFLCheckpoint = logio.VFLCheckpoint
)

// Fault-tolerance constructors and helpers.
var (
	// NewFaultInjector validates a FaultConfig and builds the injector.
	NewFaultInjector = faults.New
	// MustNewFaultInjector is NewFaultInjector, panicking on invalid config.
	MustNewFaultInjector = faults.MustNew
	// ErrRetriesExhausted reports a secure round that failed past
	// SecureConfig.MaxRetries.
	ErrRetriesExhausted = faults.ErrRetriesExhausted
	// ErrVFLNonFinite is the sentinel wrapped by VFLConfig.FailNonFinite
	// aborts when an epoch's update or validation loss turns NaN/±Inf.
	ErrVFLNonFinite = vfl.ErrNonFinite
	// WriteHFLCheckpoint serializes an HFL checkpoint (trainer + estimator).
	WriteHFLCheckpoint = logio.WriteHFLCheckpoint
	// ReadHFLCheckpoint deserializes an HFL checkpoint.
	ReadHFLCheckpoint = logio.ReadHFLCheckpoint
	// WriteVFLCheckpoint serializes a VFL checkpoint.
	WriteVFLCheckpoint = logio.WriteVFLCheckpoint
	// ReadVFLCheckpoint deserializes a VFL checkpoint.
	ReadVFLCheckpoint = logio.ReadVFLCheckpoint
)

// Training-log persistence: archive logs during training and evaluate
// contributions offline.
var (
	// WriteHFLLog serializes an HFL training log as line-delimited JSON.
	WriteHFLLog = logio.WriteHFL
	// ReadHFLLog deserializes an HFL training log.
	ReadHFLLog = logio.ReadHFL
	// WriteVFLLog serializes a VFL training log.
	WriteVFLLog = logio.WriteVFL
	// ReadVFLLog deserializes a VFL training log.
	ReadVFLLog = logio.ReadVFL
	// NewHFLLogWriter opens a streaming HFL archive: epochs are written as
	// they complete (byte-identical to WriteHFLLog), the form the networked
	// coordinator's Archive uses.
	NewHFLLogWriter = logio.NewHFLWriter
)

// HFLLogWriter streams an HFL training log one epoch at a time.
type HFLLogWriter = logio.HFLWriter

// Shapley and baseline functions.
var (
	// ExactShapley enumerates all 2^n coalitions.
	ExactShapley = shapley.Exact
	// TMCShapley is the truncated Monte Carlo estimator.
	TMCShapley = shapley.TMC
	// GTShapley is the group-testing estimator.
	GTShapley = shapley.GT
	// MR is the multi-round reconstruction baseline.
	MR = baselines.MR
	// IM is the update-projection baseline.
	IM = baselines.IM
	// Pearson is the correlation metric the paper reports.
	Pearson = metrics.Pearson
)
