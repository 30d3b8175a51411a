// Package digfl is an open-source Go implementation of DIG-FL — "Efficient
// Participant Contribution Evaluation for Horizontal and Vertical Federated
// Learning" (Wang et al., ICDE 2022).
//
// DIG-FL estimates every participant's Shapley value from the training log
// alone — no model retraining, no access to local data — for both horizontal
// (HFL) and vertical (VFL) federated learning, and uses the per-epoch
// contributions to reweight participants during training.
//
// This root package is a facade: type aliases and function variables over
// the internal packages, holding exactly the names the programs under
// examples/ and example_test.go use (TestFacadeMatchesExamples keeps the two
// sets equal). The implementation lives in:
//
//	internal/core        DIG-FL estimators and the reweight mechanism
//	internal/hfl         horizontal FL substrate (FedSGD / FedAvg-style)
//	internal/vfl         vertical FL substrate (plaintext + Paillier protocol)
//	internal/fednet      networked coordinator/participant runtime (HTTP)
//	internal/nn          models with hand-derived gradients and HVPs
//	internal/dataset     synthetic data generators, partitioners, corruptions
//	internal/shapley     exact Shapley, sampling estimators, round engines
//	internal/robust      screening, quarantine, Byzantine-resilient rules
//	internal/adversary   deterministic attack simulators
//	internal/faults      deterministic fault injection
//	internal/logio       training-log and checkpoint persistence
//	internal/obs         Runtime: worker budget and observability sinks
//	internal/experiments one runner per paper table/figure; the runtime studies are its tests
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
// Both trainers have two entry points, RunContext and RunSubsetContext (a
// coalition), plus Run, which is RunContext panicking on error. Cancellation
// is observed at the next epoch boundary, returns the context's error, and
// never corrupts checkpoint state: a canceled or crashed run (a *CrashError
// from a FaultConfig schedule) resumes bit-identically via Config.Resume.
//
// Every trainer, estimator and the secure protocol take one Runtime value:
// Runtime.Workers bounds the component's worker pool (0 or 1 serial, > 1 the
// pool size, negative GOMAXPROCS; the Paillier protocol alone treats 0 as
// GOMAXPROCS) and never changes a result bit; Runtime.Sink receives typed
// events (Collector counts them, NewTraceWriter streams them as JSONL) and
// is free when nil.
//
// RunLoopback runs a NetCoordinator and its NetParticipants over real HTTP
// on the loopback interface and reproduces the in-process trainer's model,
// loss curve and φ bit for bit. README.md and DESIGN.md describe the wire protocol, the journal,
// fault tolerance and the adversarial defenses.
package digfl

import (
	"digfl/internal/adversary"
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
	"digfl/internal/shapley"
	"digfl/internal/vfl"
)

// Runtime and observability (internal/obs).
type (
	// Runtime bundles the worker-pool budget and the observability sink
	// accepted by HFLConfig, VFLConfig, SecureConfig and both estimators.
	Runtime = obs.Runtime
	// Collector is an in-memory aggregating Sink.
	Collector = obs.Collector
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

// Core DIG-FL (internal/core).
type (
	// HFLEstimator is the online horizontal estimator.
	HFLEstimator = core.HFLEstimator
	// HFLReweighter plugs per-epoch contributions into HFL aggregation.
	HFLReweighter = core.HFLReweighter
)

// ResourceSaving is Algorithm 2: first-order only, zero extra cost.
const ResourceSaving = core.ResourceSaving

// Core constructors and functions.
var (
	// NewHFLEstimator creates an online horizontal estimator.
	NewHFLEstimator = core.NewHFLEstimator
	// EstimateHFL replays a retained HFL training log.
	EstimateHFL = core.EstimateHFL
	// EstimateVFL replays a retained VFL training log.
	EstimateVFL = core.EstimateVFL
	// ReweightWeights rectifies per-epoch contributions into aggregation
	// weights (Eq. 17).
	ReweightWeights = core.Weights
	// RankParticipants orders participant indices by descending contribution.
	RankParticipants = core.Rank
)

// Federated substrates (internal/hfl, internal/vfl).
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
	// VFLProblem is a vertically partitioned learning task.
	VFLProblem = vfl.Problem
	// SecureConfig parameterizes the Paillier-encrypted VFL protocol.
	SecureConfig = vfl.SecureConfig
)

// Vertical model kinds.
const (
	// VFLLinReg is vertical linear regression (the running example).
	VFLLinReg = vfl.LinReg
	// VFLLogReg is vertical logistic regression.
	VFLLogReg = vfl.LogReg
)

// RunSecureN executes the Paillier-encrypted vertical protocol (Algorithm 3)
// for any number of parties.
var RunSecureN = vfl.RunSecureN

// Networked runtime (internal/fednet).
type (
	// NetCoordinator serves the wire protocol and drives HFL epochs whose
	// local updates arrive over HTTP.
	NetCoordinator = fednet.Coordinator
	// NetParticipant is the matching client wrapping one dataset shard.
	NetParticipant = fednet.Participant
	// NetLocalSource is the in-process reference RoundSource the networked
	// runtime is measured against.
	NetLocalSource = fednet.LocalSource
)

// RunLoopback runs a coordinator and its N participants over real loopback
// HTTP listeners in one call.
var RunLoopback = fednet.Loopback

// Models (internal/nn).
var (
	// NewSoftmaxRegression builds multinomial logistic regression.
	NewSoftmaxRegression = nn.NewSoftmaxRegression
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
	// MNISTLike is the 10-class image preset standing in for MNIST.
	MNISTLike = dataset.MNISTLike
	// PartitionIID deals a dataset evenly to n participants.
	PartitionIID = dataset.PartitionIID
	// PartitionNonIID creates the paper's non-IID participant mix.
	PartitionNonIID = dataset.PartitionNonIID
	// VerticalBlocks splits features into contiguous per-party blocks.
	VerticalBlocks = dataset.VerticalBlocks
	// Mislabel corrupts a fraction of classification labels uniformly.
	Mislabel = dataset.Mislabel
)

// Ground truth and the paper's accuracy metric.
var (
	// ExactShapley enumerates all 2^n coalitions.
	ExactShapley = shapley.Exact
	// Pearson is the correlation metric the paper reports.
	Pearson = metrics.Pearson
)

// Adversarial defense (internal/robust) and attack simulation
// (internal/adversary).
type (
	// ScreenConfig parameterizes the server-side update screen.
	ScreenConfig = robust.ScreenConfig
	// Quarantine is the contribution-guided reweighter: rectified Eq. 17
	// weights plus permanent exclusion of persistently negative
	// contributors.
	Quarantine = robust.Quarantine
	// AttackConfig parameterizes a deterministic adversary.
	AttackConfig = adversary.Config
	// Adversary makes seed-driven attack decisions; nil attacks nothing.
	Adversary = adversary.Adversary
	// AdversarySource wraps any round source, corrupting attacker updates
	// after the honest computation.
	AdversarySource = adversary.Source
)

// AttackSignFlip negates and amplifies attacker updates.
const AttackSignFlip = adversary.SignFlip

// Defense and attack constructors.
var (
	// MustNewUpdateScreen builds the update screen; every config is valid.
	MustNewUpdateScreen = robust.MustNewUpdateScreen
	// MustNewQuarantine builds a Quarantine, panicking on invalid config.
	MustNewQuarantine = robust.MustNewQuarantine
	// MustNewAdversary builds an Adversary, panicking on invalid config.
	MustNewAdversary = adversary.MustNew
)

// Fault tolerance (internal/faults) and persistence (internal/logio).
type (
	// FaultConfig parameterizes the deterministic fault injector.
	FaultConfig = faults.Config
	// CrashError reports an injected trainer crash; resume from the latest
	// checkpoint via Config.Resume.
	CrashError = faults.CrashError
	// HFLTrainerCheckpoint is the HFL trainer's resumable snapshot.
	HFLTrainerCheckpoint = hfl.Checkpoint
	// HFLCheckpoint bundles an HFL trainer snapshot with estimator state
	// for persistence.
	HFLCheckpoint = logio.HFLCheckpoint
)

// Fault-tolerance and persistence functions.
var (
	// MustNewFaultInjector builds the injector, panicking on invalid config.
	MustNewFaultInjector = faults.MustNew
	// WriteHFLCheckpoint serializes an HFL checkpoint (trainer + estimator).
	WriteHFLCheckpoint = logio.WriteHFLCheckpoint
	// ReadHFLCheckpoint deserializes an HFL checkpoint.
	ReadHFLCheckpoint = logio.ReadHFLCheckpoint
	// WriteHFLLog serializes an HFL training log (logio format version 3).
	WriteHFLLog = logio.WriteHFL
	// ReadHFLLog deserializes an HFL training log.
	ReadHFLLog = logio.ReadHFL
)
