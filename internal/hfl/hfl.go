// Package hfl implements the horizontal federated learning substrate:
// full-batch FedSGD over n participants with a central server, exactly the
// unified protocol of Sec. II-A / III-A of the DIG-FL paper. Every epoch the
// server records the training log Λ_t = {δ_{t,1}, …, δ_{t,n}} together with
// the server-side validation gradient — the only inputs DIG-FL needs — and
// optionally applies a participant-reweighting policy (Eq. 21–22).
package hfl

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"digfl/internal/dataset"
	"digfl/internal/faults"
	"digfl/internal/nn"
	"digfl/internal/obs"
	"digfl/internal/parallel"
	"digfl/internal/sampling"
	"digfl/internal/tensor"
)

// RetainPolicy governs how long epoch records keep their raw Deltas.
type RetainPolicy int

const (
	// RetainAll keeps every epoch's Deltas alive for the whole run — the
	// historical behavior and the zero-value default, required by the
	// Interactive estimator's offline replay and logio.WriteHFL on a
	// retained log. Memory is O(epochs·n·d).
	RetainAll RetainPolicy = iota
	// ReleaseAfterObserve nils out ep.Deltas once the epoch has been
	// aggregated and the Observer (the online estimator, the streaming
	// archive writer) has consumed it, so a KeepLog run retains only the
	// slim per-epoch metadata. Archives written at observe time (the
	// coordinator's streaming Archive, any HFLWriter inside the Observer)
	// see the full record; logio.WriteHFL on the released log afterwards
	// does not.
	ReleaseAfterObserve
)

// Config controls a federated training run.
type Config struct {
	// Epochs is the number of synchronous FedSGD rounds τ.
	Epochs int
	// LR is the learning rate α.
	LR float64
	// LocalSteps is the number of local gradient steps a participant takes
	// per round before uploading δ_{t,i} = θ_{t-1} − θ_{t-1,i} (the paper's
	// "update the current global model using local data to obtain the local
	// model"). 0 or 1 is classic one-step FedSGD; larger values give
	// FedAvg-style local training, where non-IID client drift appears.
	LocalSteps int
	// KeepLog retains the per-epoch training log in the result. Retraining
	// sweeps (actual Shapley) disable it to save memory.
	KeepLog bool
	// Runtime is the unified worker-budget-plus-observability surface.
	// Runtime.Workers sizes the local-update pool (0 selects serial, 1
	// forces serial, > 1 sets the bounded-pool size, negative selects
	// GOMAXPROCS); Runtime.Sink receives EpochStart/End, LocalUpdate,
	// Aggregate and PoolTask events. Local updates run concurrently on
	// the shared bounded pool (internal/parallel) with fan-out fixed at
	// production participant counts; results are bit-identical to the
	// serial path because each participant writes only its own δ slot and
	// aggregation order is fixed.
	Runtime obs.Runtime
	// Faults optionally injects deterministic faults (per-epoch dropout,
	// straggler delay, crash-at-epoch). Nil — or an injector whose
	// schedule happens to fire nothing — leaves every output bit-identical
	// to a fault-free run. Epochs where participants drop out proceed with
	// the survivor subset: aggregation renormalizes over survivors and the
	// epoch record's Reported field names who reported.
	Faults *faults.Injector
	// CheckpointEvery k > 0 invokes CheckpointFunc after every k-th
	// completed epoch with a snapshot of the trainer state, enabling
	// crash recovery via Resume.
	CheckpointEvery int
	// CheckpointFunc persists a checkpoint; a returned error aborts the
	// run. The snapshot's slices are copies except Log, which aliases the
	// retained epoch records — serialize, don't mutate.
	CheckpointFunc func(ck *Checkpoint) error
	// Resume, when non-nil, starts training after the checkpointed epoch
	// instead of from scratch: the model is set to the checkpoint's Theta
	// and epochs Resume.Epoch+1..Epochs are (re)run. With a deterministic
	// fault schedule the resumed run is bit-identical to an uninterrupted
	// one.
	Resume *Checkpoint
	// Participants declares the population size when the trainer computes
	// no local updates itself — a networked run where Parts is nil and a
	// RoundSource supplies the deltas. Ignored whenever Parts is non-empty.
	Participants int
	// Sample, when non-nil, draws a per-epoch cohort from the run's subset
	// (seeded, deterministic, composing with Faults: the injector's dropout
	// then applies to the cohort). Only cohort members compute local
	// updates; everyone else sits the round out with the same
	// Epoch.Reported semantics as an injected dropout and scores zero φ for
	// the epoch per Lemma 3 additivity — so memory and work per round scale
	// with the cohort, not the population. Nil samples nobody out and stays
	// bit-identical.
	Sample *sampling.Sampler
	// RetainDeltas governs whether epoch records keep their raw Deltas
	// after aggregation and the Observer; the zero value (RetainAll) is the
	// historical keep-everything behavior.
	RetainDeltas RetainPolicy
}

// Checkpoint is the trainer state persisted every CheckpointEvery epochs:
// everything RunSubsetContext needs to continue a run as if it had never
// stopped. Estimator state is checkpointed separately (core.EstimatorState
// via logio) because the estimator is an observer, not trainer state.
type Checkpoint struct {
	// Epoch is the last completed epoch; training resumes at Epoch+1.
	Epoch int
	// Theta is the global model θ_Epoch.
	Theta []float64
	// ValLossCurve is loss^v(θ_t) for t = 0..Epoch.
	ValLossCurve []float64
	// Log is the retained training log so far (nil unless KeepLog).
	Log []*Epoch
}

func (ck *Checkpoint) validate(p, epochs int) error {
	if ck.Epoch < 1 || ck.Epoch > epochs {
		return fmt.Errorf("hfl: resume epoch %d outside [1,%d]", ck.Epoch, epochs)
	}
	if len(ck.Theta) != p {
		return fmt.Errorf("hfl: resume theta has %d params, model has %d", len(ck.Theta), p)
	}
	if len(ck.ValLossCurve) != ck.Epoch+1 {
		return fmt.Errorf("hfl: resume loss curve has %d entries for epoch %d", len(ck.ValLossCurve), ck.Epoch)
	}
	return nil
}

func (c Config) localSteps() int {
	if c.LocalSteps < 1 {
		return 1
	}
	return c.LocalSteps
}

func (c Config) validate(n int) error {
	if c.Epochs <= 0 {
		return fmt.Errorf("hfl: Epochs must be positive, got %d", c.Epochs)
	}
	if c.LR <= 0 {
		return fmt.Errorf("hfl: LR must be positive, got %v", c.LR)
	}
	if n == 0 {
		return fmt.Errorf("hfl: no participants")
	}
	return nil
}

// Epoch is one record of the training log: everything the server observed
// in round T before aggregating.
type Epoch struct {
	// T is the 1-based round number.
	T int
	// Theta is a copy of the global model θ_{T-1} broadcast this round.
	Theta []float64
	// Deltas are the local updates δ_{T,i} = α_T·∇loss_i(θ_{T-1}).
	Deltas [][]float64
	// LR is α_T.
	LR float64
	// ValGrad is ∇loss^v(θ_{T-1}) on the server's validation set.
	ValGrad []float64
	// ValLoss is loss^v(θ_{T-1}).
	ValLoss float64
	// Weights are the aggregation weights actually used, r_k/Σ r over the
	// Reweighter's rectified r; nil means the uniform 1/n FedSGD average.
	Weights []float64
	// Reported, when non-nil, lists the global indices of the participants
	// that reported this round, aligned with Deltas — a degraded
	// (partial-participation) or sampled (cohort) epoch. Nil means every
	// participant of the run's subset reported, keeping fault-free epoch
	// records bit-identical to builds without fault tolerance. An empty
	// non-nil Reported is an all-dropped epoch: no deltas, no model update.
	Reported []int
	// DeltaDots, when non-nil, marks a streamed epoch: the raw updates were
	// folded into the aggregate on arrival and released, Deltas is nil, and
	// DeltaDots[k] = ∇loss^v(θ_{T-1})·δ for the k-th reporting participant
	// — everything the resource-saving estimator needs (Eq. 19's first
	// term, up to the 1/|S| weight).
	DeltaDots []float64
}

// Reweighter chooses per-epoch aggregation weights, the hook the DIG-FL
// reweight mechanism (Sec. II-F) plugs into. It returns finite r_k ≥ 0
// aligned with ep.Deltas (nil: r = 1), and only the trainer divides: it
// applies (Σ_k r_k·δ_k)·(1/Σ r), skips the update if Σ r = 0, and records
// r_k/Σ r in place in the returned slice as ep.Weights.
type Reweighter interface {
	Weights(ep *Epoch) []float64
}

// Admitter is the admission view of a Reweighter whose r is the rectified
// first-order φ̂_k = (1/|S|)·∇loss^v(θ_{t−1})·δ_k over the participants it
// does not exclude. It lets the trainer compute the reweighted aggregate in
// one canonical form (Reweighted.Aggregate) on a buffered and a streamed
// round alike, and so lets Stream compose with the Reweighter.
type Admitter interface {
	Reweighter
	// Admit sets class[k] for the participant active[k] from the state the
	// epoch starts in, before Weights sees it; it mutates nothing. It
	// returns false when the epoch's r is not the rectified first-order φ̂
	// (an Interactive estimator's φ carries a second-order term): a buffered
	// round then aggregates r itself, and a streamed one fails.
	Admit(active []int, class []Admission) bool
	// Excluded reports whether participant i is excluded at the close of
	// the epoch whose Weights call returned last.
	Excluded(i int) bool
}

// Aggregator replaces the server's weighted-sum combination of local updates
// entirely — the hook a robust aggregation rule (a coordinate-wise median,
// say) plugs into; the repository ships none. It receives the epoch record
// after Weights are fixed and returns the global update G_t the server
// subtracts from θ_{t-1}; an error fails the run through the RunContext
// contract instead of panicking mid-epoch.
type Aggregator interface {
	Aggregate(ep *Epoch) ([]float64, error)
}

// Screener vets an epoch's local updates server-side before weights are
// chosen or anything is aggregated — the hook robust.UpdateScreen plugs
// into. reported lists the global participant indices aligned with
// ep.Deltas (the run's active set when nobody dropped). The screener may
// mutate deltas in place (norm clipping) and returns the positions into
// ep.Deltas to discard outright; the trainer then compacts the epoch to
// the survivors with the same Reported semantics as injected dropout. A
// screener returning no drops and not mutating leaves the epoch
// bit-identical.
type Screener interface {
	Screen(ep *Epoch, reported []int) (drop []int, err error)
}

// Observer receives each epoch record after the aggregation weights are
// fixed, and before a ReleaseAfterObserve policy drops its raw Deltas;
// DIG-FL's online estimators observe training through this hook, and so
// does a contribution engine (tr.Observer = eng.Observe).
type Observer func(ep *Epoch)

// RoundSpec is the server's broadcast for one training round: everything a
// participant needs to compute its local update δ_{t,i}.
type RoundSpec struct {
	// T is the 1-based round number.
	T int
	// LR is α_T.
	LR float64
	// Theta is the global model θ_{T-1} broadcast this round. The slice is
	// retained by the trainer's epoch record; sources must not mutate it.
	Theta []float64
	// Active lists the global indices of the participants expected to
	// report this round (the run's subset minus injected dropouts).
	Active []int
	// LocalSteps is the number of local gradient steps per round.
	LocalSteps int
	// ValGrad, when non-nil, is ∇loss^v(θ_{T-1}) and signals a streaming
	// round: the trainer wants the source to fold updates on arrival and
	// return the aggregate plus per-update validation dot products instead
	// of the raw deltas. Sources that do not stream may ignore it.
	ValGrad []float64
	// Admit, when non-nil, marks a reweighted streaming round: Admit[k] is
	// Active[k]'s admission, and a source that streams folds the round with
	// NewReweightedFold and returns its Reweighted instead of Agg.
	Admit []Admission
}

// RoundResult carries one round's collected local updates back to the
// server.
type RoundResult struct {
	// Deltas are the local updates, aligned with Reported (or with the
	// spec's Active list when Reported is nil).
	Deltas [][]float64
	// Reported, when non-nil, names the subset of Active that actually
	// reported (in Active order) — participants that missed the round
	// deadline are absent and the epoch degrades to the survivors with the
	// same Epoch.Reported semantics as injected dropout. Nil means every
	// active participant reported.
	Reported []int
	// Agg, when non-nil, marks a streamed round: the source already folded
	// the reported updates into this final aggregate G_T (scaled, ready to
	// subtract from θ) and released the raw deltas; Deltas is nil and Dots
	// carries the per-update validation dot products aligned with Reported.
	// A streamed round with zero reporters returns Agg nil with Deltas nil
	// and an empty non-nil Reported.
	Agg []float64
	// Dots[k] = spec.ValGrad·δ for the k-th reporting participant of a
	// streamed round.
	Dots []float64
	// Reweighted, on a streamed round opened with spec.Admit, replaces Agg:
	// the trainer finishes the aggregate once its Reweighter has decided
	// the epoch's exclusions. Its held slots index spec.Active.
	Reweighted *Reweighted
}

// RoundSource supplies an epoch's local updates from somewhere other than
// the trainer's in-process Parts — the seam the networked coordinator
// (internal/fednet) plugs real participants into. The trainer calls Round
// once per epoch, in order; the source may block until its participants
// report or a deadline passes, and must honor ctx cancellation.
type RoundSource interface {
	Round(ctx context.Context, spec *RoundSpec) (*RoundResult, error)
}

// Trainer runs FedSGD over a fixed participant population.
type Trainer struct {
	// Model is the initial global model prototype; Run clones it, so a
	// Trainer can be reused for leave-out retraining from identical
	// initialization.
	Model nn.Model
	// Parts are the participants' local datasets.
	Parts []dataset.Dataset
	// Val is the server's validation dataset.
	Val dataset.Dataset
	// Cfg holds the optimization hyperparameters.
	Cfg Config
	// Reweighter optionally adjusts aggregation weights each round.
	Reweighter Reweighter
	// Aggregator optionally replaces the weighted-sum combination of local
	// updates (robust aggregation rules). When set, it consumes the epoch
	// record (including any Reweighter weights) and produces G_t itself.
	Aggregator Aggregator
	// Screen optionally vets each epoch's updates before the Reweighter and
	// aggregation run: dropped updates are removed from the epoch record
	// (degrading it to the survivors, like an injected dropout) and clipped
	// updates are mutated in place. Nil skips screening entirely.
	Screen Screener
	// Observer optionally watches each epoch record.
	Observer Observer
	// Rounds, when non-nil, replaces the in-process local-update
	// computation: each epoch the trainer calls Rounds.Round with the
	// broadcast (θ_{t-1}, α_t, active set) and aggregates the returned
	// deltas instead of training on Parts. Parts may then be nil, with
	// Cfg.Participants declaring the population size. Injected straggler
	// delays do not apply (the source owns its own timing); injected
	// dropout and crashes still do.
	Rounds RoundSource
	// Stream, when non-nil, switches aggregation to fold-on-arrival: each
	// local update is folded into the round's accumulator and released
	// instead of buffered, so per-round memory is O(d + cohort) rather than
	// O(cohort·d). Streaming cannot compose with Aggregator or Screen, nor
	// with a Reweighter that is not an Admitter — those consume the
	// materialized round buffer; configuring both is a validation error. An
	// Admitter composes with MeanStream{}: the round folds with
	// NewReweightedFold. Streamed epochs carry DeltaDots instead of Deltas,
	// which the resource-saving estimator consumes directly; the
	// Interactive estimator and the contribution engines need buffers.
	// The buffered mean is MeanStream's one-segment order, and a buffered
	// Admitter round runs the same reweighted fold, so a MeanStream{} run
	// is bit-identical to the same run with Stream nil.
	Stream StreamAggregator
}

// Result is the outcome of a training run.
type Result struct {
	// Model is the final global model.
	Model nn.Model
	// InitLoss is loss^v(θ_0).
	InitLoss float64
	// FinalLoss is loss^v(θ_τ).
	FinalLoss float64
	// Log is the per-epoch training log (nil unless Cfg.KeepLog).
	Log []*Epoch
	// ValLossCurve records loss^v(θ_t) for t = 0..τ.
	ValLossCurve []float64
}

// Utility returns V = loss^v(θ_0) − loss^v(θ_τ), the paper's utility
// function (Eq. 2) for the trained coalition.
func (r *Result) Utility() float64 { return r.InitLoss - r.FinalLoss }

// participants resolves the population size: the in-process shards when
// present, otherwise the declared Cfg.Participants of a networked run.
func (tr *Trainer) participants() int {
	if len(tr.Parts) > 0 {
		return len(tr.Parts)
	}
	return tr.Cfg.Participants
}

// Run is RunContext(context.Background()) panicking on error — the one
// convenience wrapper, for tests and throwaway scripts. It adds nothing
// beyond unwrapping the error (TestRunWrappersBitIdentical).
func (tr *Trainer) Run() *Result {
	res, err := tr.RunContext(context.Background())
	if err != nil {
		panic(err)
	}
	return res
}

// RunContext is the full-population entrypoint: it trains with all
// participants under a cancelable context, returning mid-training failures
// (config errors, plugin shape mismatches, injected crashes, checkpoint
// write failures) as errors. Cancellation is observed at the next epoch
// boundary (and inside a blocked RoundSource), returns the context's error,
// and never corrupts trainer state — checkpoints written for completed
// epochs remain valid resume points, so a canceled run continues
// bit-identically via Cfg.Resume.
func (tr *Trainer) RunContext(ctx context.Context) (*Result, error) {
	all := make([]int, tr.participants())
	for i := range all {
		all[i] = i
	}
	return tr.RunSubsetContext(ctx, all)
}

// RunSubsetContext is the trainer entrypoint RunContext delegates to. It
// trains with only the listed participants (the coalition S), averaging
// their updates with weight 1/|S|. An empty subset performs no
// training, leaving θ at the initial model — the V(∅) case. The reweighter
// and observer only see rounds of the subset run.
//
// With Cfg.Faults attached, an epoch may run degraded: dropped
// participants contribute no delta, aggregation renormalizes over the
// survivors (1/|survivors|), and the epoch record's Reported field names
// who reported. An injected crash aborts with a *faults.CrashError;
// training then resumes from the latest checkpoint via Cfg.Resume.
//
// Cancellation is checked at every epoch boundary: a canceled ctx aborts
// before the next epoch mutates anything, so checkpoints already written
// stay valid resume points.
func (tr *Trainer) RunSubsetContext(ctx context.Context, subset []int) (*Result, error) {
	if err := tr.Cfg.validate(tr.participants()); err != nil {
		return nil, err
	}
	// An Admitter reweights every round in the one canonical form, unless
	// an Aggregator replaces the weighted sum.
	adm, _ := tr.Reweighter.(Admitter)
	if tr.Aggregator != nil {
		adm = nil
	}
	if tr.Stream != nil && (tr.Aggregator != nil || tr.Screen != nil ||
		tr.Reweighter != nil && (adm == nil || tr.Stream != (MeanStream{}))) {
		// Each consumes the materialized round buffer that streaming exists
		// to avoid; refuse the combination instead of silently buffering.
		return nil, fmt.Errorf("hfl: Stream cannot compose with Aggregator/Reweighter/Screen — those need the buffered path (an Admitter streams with MeanStream{})")
	}
	// admit classes the participants who for a reweighted round, into a
	// buffer the epochs share: a round's fold reads it until the round
	// closes, which is before the next epoch admits.
	var classBuf []Admission
	admit := func(who []int) ([]Admission, bool) {
		classBuf = slices.Grow(classBuf[:0], len(who))[:len(who)]
		return classBuf, adm.Admit(who, classBuf)
	}
	model := tr.Model.Clone()
	res := &Result{Model: model}

	p := model.NumParams()
	sink := tr.Cfg.Runtime.Sink
	workers := tr.Cfg.Runtime.Resolve()
	inj := tr.Cfg.Faults
	startT := 1
	if ck := tr.Cfg.Resume; ck != nil {
		if err := ck.validate(p, tr.Cfg.Epochs); err != nil {
			return nil, err
		}
		model.SetParams(tensor.Clone(ck.Theta))
		res.ValLossCurve = append([]float64(nil), ck.ValLossCurve...)
		res.InitLoss = res.ValLossCurve[0]
		if tr.Cfg.KeepLog {
			res.Log = append([]*Epoch(nil), ck.Log...)
		}
		startT = ck.Epoch + 1
		obs.Emit(sink, obs.Event{Kind: obs.KindResume, T: startT})
	} else {
		res.InitLoss = model.Loss(tr.Val.X, tr.Val.Y)
		res.ValLossCurve = append(res.ValLossCurve, res.InitLoss)
	}
	// The next epoch's cohort, being drawn while this one trains. A run that
	// ends with a draw in flight (crash, cancel, round error) waits for it, so
	// the goroutine never outlives the call or reads subset after it returns.
	var ahead chan []int
	var ones []float64 // the unweighted round's coefficients
	defer func() {
		if ahead != nil {
			<-ahead
		}
	}()
	for t := startT; t <= tr.Cfg.Epochs; t++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("hfl: run canceled before epoch %d: %w", t, err)
		}
		if len(subset) == 0 {
			res.ValLossCurve = append(res.ValLossCurve, res.InitLoss)
			continue
		}
		if inj.CrashesAt(t) {
			obs.Emit(sink, obs.Event{Kind: obs.KindCrash, T: t})
			return nil, &faults.CrashError{Epoch: t}
		}
		obs.Emit(sink, obs.Event{Kind: obs.KindEpochStart, T: t})
		epochStart := obs.Start(sink)
		lr := tr.Cfg.LR
		theta := tensor.Clone(model.Params())
		cohort := subset
		sampled := false
		if smp := tr.Cfg.Sample; smp != nil {
			if ahead != nil {
				cohort = <-ahead
			} else {
				cohort = smp.Cohort(t, subset)
			}
			ahead = nil
			sampled = len(cohort) != len(subset)
			if sampled && t < tr.Cfg.Epochs {
				// The draw is a pure function of (seed, t, subset), so epoch
				// t+1's is the same slice whenever it is computed: scan the
				// population while this epoch's updates arrive.
				ahead = make(chan []int, 1)
				go func(c chan<- []int, t int) { c <- smp.Cohort(t, subset) }(ahead, t+1)
			}
			if sampled {
				obs.Emit(sink, obs.Event{Kind: obs.KindSample, T: t, N: int64(len(cohort))})
			}
		}
		active, droppedOut := inj.Survivors(t, cohort)
		for _, i := range droppedOut {
			obs.Emit(sink, obs.Event{Kind: obs.KindDropout, T: t, Part: i})
		}
		steps := tr.Cfg.localSteps()
		reported := active
		var deltas [][]float64
		var streamAgg, streamDots, valGrad []float64
		streamed := false
		// A reweighted round (an admitting Reweighter) folds into rw, which
		// the epoch's close finishes; admitted lists the participants its
		// slots stand for.
		var rw *Reweighted
		var admitted []int
		if tr.Stream != nil {
			// ∇loss^v(θ_{t-1}) is a pure function of the pre-round model, so
			// it can be taken before the updates arrive — the fold needs it to
			// record per-update dot products as the deltas are released.
			valGrad = model.Grad(tr.Val.X, tr.Val.Y)
		}
		if tr.Rounds != nil {
			spec := &RoundSpec{
				T: t, LR: lr, Theta: theta, Active: active, LocalSteps: steps, ValGrad: valGrad,
			}
			if tr.Stream != nil && adm != nil {
				class, ok := admit(active)
				if !ok {
					return nil, fmt.Errorf("hfl: epoch %d: the Reweighter cannot admit a streamed round", t)
				}
				spec.Admit = class
			}
			rr, err := tr.Rounds.Round(ctx, spec)
			if err != nil {
				return nil, fmt.Errorf("hfl: epoch %d: round source: %w", t, err)
			}
			deltas = rr.Deltas
			if rr.Reported != nil {
				reported = rr.Reported
			}
			folded := rr.Agg != nil || rr.Reweighted != nil
			if folded && tr.Stream == nil {
				return nil, fmt.Errorf("hfl: epoch %d: round source streamed an aggregate but Trainer.Stream is nil", t)
			}
			if folded && (rr.Reweighted != nil) != (spec.Admit != nil) {
				return nil, fmt.Errorf("hfl: epoch %d: round source folded the round without its admissions", t)
			}
			if folded {
				// Source-side streamed round: the aggregate arrives folded,
				// the raw deltas were already released at the source.
				streamed = true
				streamAgg, streamDots = rr.Agg, rr.Dots
				rw, admitted = rr.Reweighted, active
				if streamAgg != nil && len(streamAgg) != p {
					return nil, fmt.Errorf("hfl: epoch %d: streamed aggregate has %d params, model has %d",
						t, len(streamAgg), p)
				}
				if len(streamDots) != len(reported) {
					return nil, fmt.Errorf("hfl: epoch %d: round source returned %d dots for %d reporters",
						t, len(streamDots), len(reported))
				}
			} else {
				if len(deltas) != len(reported) {
					return nil, fmt.Errorf("hfl: epoch %d: round source returned %d deltas for %d reporters",
						t, len(deltas), len(reported))
				}
				for k, d := range deltas {
					if len(d) != p {
						return nil, fmt.Errorf("hfl: epoch %d: delta %d has %d params, model has %d",
							t, k, len(d), p)
					}
				}
			}
		} else {
			deltas = make([][]float64, len(active))
			localUpdate := func(k int) {
				t0 := obs.Start(sink)
				gi := active[k]
				if d, ok := inj.Straggles(t, gi); ok {
					obs.Emit(sink, obs.Event{Kind: obs.KindStraggler, T: t, Part: gi, Dur: d})
					time.Sleep(d)
				}
				part := tr.Parts[gi]
				if steps == 1 {
					// model.Grad does not mutate the model, so concurrent
					// single-step updates can share it.
					g := model.Grad(part.X, part.Y)
					tensor.Scale(lr, g)
					deltas[k] = g
				} else {
					// Multi-step local training: δ_{t,i} = θ_{t-1} − θ_{t-1,i}.
					local := model.Clone()
					for s := 0; s < steps; s++ {
						g := local.Grad(part.X, part.Y)
						tensor.AXPY(-lr, g, local.Params())
					}
					deltas[k] = tensor.Sub(theta, local.Params())
				}
				obs.Emit(sink, obs.Event{Kind: obs.KindLocalUpdate, T: t,
					Part: gi, Dur: obs.Since(sink, t0)})
			}
			parallel.ForObs(len(active), workers, sink, localUpdate)
		}
		if valGrad == nil {
			valGrad = model.Grad(tr.Val.X, tr.Val.Y)
		}
		ep := &Epoch{
			T:       t,
			Theta:   theta,
			Deltas:  deltas,
			LR:      lr,
			ValGrad: valGrad,
			ValLoss: res.ValLossCurve[len(res.ValLossCurve)-1],
		}
		if sampled || len(droppedOut) > 0 || len(reported) != len(active) {
			// Survivor epochs mark who reported — whether the loss was an
			// injected dropout or a round-source participant missing its
			// deadline; fault-free epochs keep the nil Reported so their
			// records stay bit-identical to before.
			ep.Reported = reported
		}
		if tr.Screen != nil && len(deltas) > 0 {
			drop, err := tr.Screen.Screen(ep, reported)
			if err != nil {
				return nil, fmt.Errorf("hfl: epoch %d: screen: %w", t, err)
			}
			if len(drop) > 0 {
				rejected := make(map[int]bool, len(drop))
				for _, k := range drop {
					if k < 0 || k >= len(deltas) {
						return nil, fmt.Errorf("hfl: epoch %d: screener dropped position %d of %d", t, k, len(deltas))
					}
					rejected[k] = true
				}
				// Compact to the survivors; a screened epoch is a degraded
				// epoch, so Reported must be non-nil even if it started full.
				kept := make([][]float64, 0, len(deltas)-len(rejected))
				keptIdx := make([]int, 0, len(deltas)-len(rejected))
				for k, d := range deltas {
					if !rejected[k] {
						kept = append(kept, d)
						keptIdx = append(keptIdx, reported[k])
					}
				}
				deltas, reported = kept, keptIdx
				ep.Deltas, ep.Reported = kept, keptIdx
			}
		}
		if !streamed && (tr.Stream != nil || adm != nil) {
			// Fold the buffered round through the reduction a fold-on-arrival
			// source uses, so in-process streamed runs are bit-identical to
			// networked streamed runs of the same topology: MeanStream's, or
			// the reweighted fold when the Reweighter admits the round. A
			// streamed run releases each delta as it commits; a buffered one
			// keeps them on the epoch.
			var f Fold
			if adm != nil {
				class, ok := admit(reported)
				switch {
				case ok:
					f, admitted = NewReweightedFold(p, valGrad, class), reported
				case tr.Stream != nil:
					return nil, fmt.Errorf("hfl: epoch %d: the Reweighter cannot admit a streamed round", t)
				}
			} else {
				f = tr.Stream.NewFold(p, len(reported), valGrad)
			}
			if f != nil {
				for k := range deltas {
					if err := f.Add(k, deltas[k]); err != nil {
						return nil, fmt.Errorf("hfl: epoch %d: stream fold: %w", t, err)
					}
					if tr.Stream != nil {
						deltas[k] = nil
					}
				}
				fr, err := f.Close()
				if err != nil {
					return nil, fmt.Errorf("hfl: epoch %d: stream fold: %w", t, err)
				}
				rw = fr.Reweighted
				if tr.Stream != nil {
					streamAgg, streamDots = fr.Sum, fr.Dots
					deltas, ep.Deltas, streamed = nil, nil, true
				}
			}
		}
		if streamed {
			if streamDots == nil {
				streamDots = []float64{}
			}
			ep.DeltaDots = streamDots
		}
		var r []float64             // the reweighter's rectified r; nil is r = 1
		sum := float64(len(deltas)) // Σ r
		if tr.Reweighter != nil {
			// The reweighter sees every epoch — an estimator wrapped inside
			// one needs the all-dropped epochs too, to keep its epoch
			// numbering sequential — but weights only apply when someone
			// reported.
			if r = tr.Reweighter.Weights(ep); len(reported) > 0 && r != nil {
				if len(r) != len(reported) {
					return nil, fmt.Errorf("hfl: epoch %d: reweighter returned %d weights for %d participants", t, len(r), len(reported))
				}
				sum = 0
				for k, v := range r {
					if !(v >= 0) || math.IsInf(v, 1) {
						return nil, fmt.Errorf("hfl: epoch %d: reweighter returned weight %v at position %d; want finite and ≥ 0", t, v, k)
					}
					sum += v
				}
			}
		}
		if len(reported) > 0 {
			aggStart := obs.Start(sink)
			var grad []float64 // G_t; nil leaves θ where it is
			switch {
			case rw != nil:
				grad = rw.Aggregate(func(slot int) bool { return adm.Excluded(admitted[slot]) })
			case streamed:
				grad = streamAgg
			case tr.Aggregator == nil && sum > 0:
				// The unadmitted buffered order, MeanStream's with one
				// segment: Σ r_k·δ_k in slot order from zero, then one scale
				// by 1/Σ r.
				coef := r
				if coef == nil {
					for len(ones) < len(deltas) {
						ones = append(ones, 1)
					}
					coef = ones[:len(deltas)]
				}
				grad = make([]float64, p)
				tensor.AXPYRows(coef, deltas, grad)
				tensor.Scale(1/sum, grad)
			}
			if sum > 0 {
				for k := range r {
					r[k] /= sum
				}
			}
			ep.Weights = r
			if tr.Aggregator != nil {
				var err error
				if grad, err = tr.Aggregator.Aggregate(ep); err != nil {
					return nil, fmt.Errorf("hfl: epoch %d: aggregator: %w", t, err)
				}
				if len(grad) != p {
					return nil, fmt.Errorf("hfl: epoch %d: aggregator returned %d values for %d params", t, len(grad), p)
				}
			}
			if grad != nil {
				tensor.AXPY(-1, grad, model.Params())
			}
			if rw != nil {
				tensor.PutVec(grad) // Aggregate's G_t is the trainer's to recycle
			}
			obs.Emit(sink, obs.Event{Kind: obs.KindAggregate, T: t,
				N: int64(len(reported)), Dur: obs.Since(sink, aggStart)})
		}
		if tr.Observer != nil {
			tr.Observer(ep)
		}
		if tr.Cfg.RetainDeltas == ReleaseAfterObserve {
			// The epoch is aggregated and observed; release the raw updates
			// so a KeepLog run retains only slim per-epoch metadata. Archive
			// writers running inside the Observer saw the full record.
			ep.Deltas = nil
		}
		if tr.Cfg.KeepLog {
			res.Log = append(res.Log, ep)
		}
		loss := model.Loss(tr.Val.X, tr.Val.Y)
		res.ValLossCurve = append(res.ValLossCurve, loss)
		obs.Emit(sink, obs.Event{Kind: obs.KindEpochEnd, T: t,
			Dur: obs.Since(sink, epochStart), Value: loss})
		if tr.Cfg.CheckpointEvery > 0 && tr.Cfg.CheckpointFunc != nil && t%tr.Cfg.CheckpointEvery == 0 {
			obs.Emit(sink, obs.Event{Kind: obs.KindCheckpoint, T: t})
			ck := &Checkpoint{
				Epoch:        t,
				Theta:        tensor.Clone(model.Params()),
				ValLossCurve: append([]float64(nil), res.ValLossCurve...),
				Log:          res.Log,
			}
			if err := tr.Cfg.CheckpointFunc(ck); err != nil {
				return nil, fmt.Errorf("hfl: checkpoint at epoch %d: %w", t, err)
			}
		}
	}
	res.FinalLoss = res.ValLossCurve[len(res.ValLossCurve)-1]
	return res, nil
}

// Utility is the coalition utility function V(S) (Eq. 2) computed by full
// retraining from the trainer's initial model — the ground truth the actual
// Shapley value is defined on. It is deliberately expensive: the whole point
// of DIG-FL is avoiding calls to this.
func (tr *Trainer) Utility(subset []int) float64 {
	cfg := tr.Cfg
	cfg.KeepLog = false
	// Ground-truth utilities are defined on fault-free retraining: coalition
	// sweeps never inherit the production run's injector or checkpoints.
	cfg.Faults = nil
	cfg.CheckpointEvery, cfg.CheckpointFunc, cfg.Resume = 0, nil, nil
	sub := &Trainer{Model: tr.Model, Parts: tr.Parts, Val: tr.Val, Cfg: cfg}
	res, err := sub.RunSubsetContext(context.Background(), subset)
	if err != nil {
		panic(err)
	}
	return res.Utility()
}

// Accuracy evaluates the final model of a run on ds (classification only).
func Accuracy(m nn.Model, ds dataset.Dataset) float64 {
	c, ok := m.(nn.Classifier)
	if !ok {
		panic(fmt.Sprintf("hfl: %T is not a classifier", m))
	}
	pred := c.Predict(ds.X)
	hits := 0
	for i, p := range pred {
		if p == int(ds.Y[i]) {
			hits++
		}
	}
	return float64(hits) / float64(ds.Len())
}
