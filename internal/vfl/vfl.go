// Package vfl implements the vertical federated learning substrate: n
// participants each owning a contiguous block of feature coordinates (and
// the matching block of the global model), a label holder, and a trusted
// third party, following Sec. IV of the DIG-FL paper. The package provides
// a fast plaintext trainer used by the large experiment sweeps and a
// faithful Paillier-encrypted two-party protocol (Algorithm 3) in secure.go;
// tests assert the two paths agree to fixed-point tolerance.
package vfl

import (
	"context"
	"fmt"
	"math"

	"digfl/internal/dataset"
	"digfl/internal/faults"
	"digfl/internal/nn"
	"digfl/internal/obs"
	"digfl/internal/tensor"
)

// ModelKind selects the VFL model family.
type ModelKind int

const (
	// LinReg is the vertical linear regression of the running example.
	LinReg ModelKind = iota
	// LogReg is vertical logistic regression.
	LogReg
)

func (k ModelKind) String() string {
	if k == LinReg {
		return "VFL-LinReg"
	}
	return "VFL-LogReg"
}

// Problem is a vertically partitioned learning task. The global model is a
// weight per feature (no intercept; see DESIGN.md), initialized to zero as
// the paper's removal-equivalence argument requires (f(0, x) ≡ 0).
type Problem struct {
	Train  dataset.Dataset
	Val    dataset.Dataset
	Blocks []dataset.Block // participant i owns coordinates [Blocks[i].Lo, Blocks[i].Hi)
	Kind   ModelKind
}

// Parties returns the number of participants n.
func (p *Problem) Parties() int { return len(p.Blocks) }

// newModel builds the zero-initialized full model for the problem.
func (p *Problem) newModel() nn.Model {
	switch p.Kind {
	case LinReg:
		return nn.NewLinearRegression(p.Train.Dim(), false)
	case LogReg:
		return nn.NewLogisticRegression(p.Train.Dim(), false)
	default:
		panic(fmt.Sprintf("vfl: unknown model kind %d", p.Kind))
	}
}

func (p *Problem) validate() error {
	if len(p.Blocks) == 0 {
		return fmt.Errorf("vfl: no participants")
	}
	covered := 0
	for i, b := range p.Blocks {
		if b.Lo < 0 || b.Hi > p.Train.Dim() || b.Lo >= b.Hi {
			return fmt.Errorf("vfl: block %d = [%d,%d) invalid for %d features", i, b.Lo, b.Hi, p.Train.Dim())
		}
		if i > 0 && p.Blocks[i-1].Hi != b.Lo {
			return fmt.Errorf("vfl: blocks must tile the feature space contiguously")
		}
		covered += b.Size()
	}
	if covered != p.Train.Dim() {
		return fmt.Errorf("vfl: blocks cover %d of %d features", covered, p.Train.Dim())
	}
	if p.Val.Dim() != p.Train.Dim() {
		return fmt.Errorf("vfl: val dim %d != train dim %d", p.Val.Dim(), p.Train.Dim())
	}
	return nil
}

// Config holds the optimization hyperparameters.
type Config struct {
	// Epochs is the number of synchronous rounds τ.
	Epochs int
	// LR is the learning rate α. It is recorded per epoch in Epoch.LR,
	// which is all the estimators read — they never see Config.
	LR float64
	// KeepLog retains the per-epoch training log in the result.
	KeepLog bool
	// Runtime is the unified worker-budget-plus-observability surface.
	// Runtime.Sink receives EpochStart/End and Aggregate events. The
	// plaintext vertical trainer has no per-participant fan-out (each
	// round is one full-batch gradient), so Runtime.Workers is accepted
	// for API symmetry but has no hot loop to feed here; the encrypted
	// protocol (SecureConfig) is where the vertical worker budget matters.
	Runtime obs.Runtime
	// Faults optionally injects deterministic faults (per-epoch party
	// dropout, crash-at-epoch). A party dropping out of an epoch
	// contributes nothing that round: its block of the global update is
	// frozen at zero, exactly the paper's removal semantics applied for a
	// single epoch, and the epoch record's Reported field names the
	// parties that did report. Nil injects nothing and stays bit-identical.
	Faults *faults.Injector
	// CheckpointEvery k > 0 invokes CheckpointFunc after every k-th
	// completed epoch.
	CheckpointEvery int
	// CheckpointFunc persists a checkpoint; a returned error aborts the
	// run. The snapshot's slices are copies except Log, which aliases the
	// retained epoch records.
	CheckpointFunc func(ck *Checkpoint) error
	// Resume, when non-nil, continues training after the checkpointed
	// epoch; with a deterministic fault schedule the resumed run is
	// bit-identical to an uninterrupted one.
	Resume *Checkpoint
	// FailNonFinite, when true, aborts the run with an error wrapping
	// ErrNonFinite as soon as an epoch's applied update or validation loss
	// turns NaN/±Inf — the vertical counterpart of the horizontal update
	// screen, catching a divergent (or poisoned) run at the epoch it breaks
	// instead of silently training on garbage. Off by default: existing
	// callers keep the historical propagate-NaN behavior bit-identically.
	FailNonFinite bool
	// RetainDeltas controls whether each epoch's Grad — the vertical
	// trainer's per-round update buffer, the analog of hfl.Epoch.Deltas —
	// stays alive after the update is applied and the Observer has seen the
	// epoch. The zero value retains everything (historical behavior: a
	// KeepLog run holds O(epochs·d)); ReleaseAfterObserve nils ep.Grad so
	// retained log records cost O(1) per epoch beyond Theta/ValGrad.
	// Estimators are unaffected (they read Grad inside Observe, before the
	// release); a logio archive writer must also run inside the Observer.
	RetainDeltas RetainPolicy
}

// RetainPolicy mirrors hfl.RetainPolicy for the vertical trainer.
type RetainPolicy int

const (
	// RetainAll keeps every epoch's Grad alive (the historical default).
	RetainAll RetainPolicy = iota
	// ReleaseAfterObserve nils ep.Grad once the update is applied and the
	// Observer has run.
	ReleaseAfterObserve
)

// ErrNonFinite is the sentinel wrapped by FailNonFinite aborts; match it
// with errors.Is. The wrapping error names the epoch and the value
// (update or validation loss) that went non-finite.
var ErrNonFinite = fmt.Errorf("vfl: non-finite value")

// Checkpoint is the vertical trainer state persisted every CheckpointEvery
// epochs, mirroring the horizontal hfl.Checkpoint.
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
		return fmt.Errorf("vfl: resume epoch %d outside [1,%d]", ck.Epoch, epochs)
	}
	if len(ck.Theta) != p {
		return fmt.Errorf("vfl: resume theta has %d params, model has %d", len(ck.Theta), p)
	}
	if len(ck.ValLossCurve) != ck.Epoch+1 {
		return fmt.Errorf("vfl: resume loss curve has %d entries for epoch %d", len(ck.ValLossCurve), ck.Epoch)
	}
	return nil
}

func (c Config) validate() error {
	if c.Epochs <= 0 {
		return fmt.Errorf("vfl: Epochs must be positive, got %d", c.Epochs)
	}
	if c.LR <= 0 {
		return fmt.Errorf("vfl: LR must be positive, got %v", c.LR)
	}
	return nil
}

// Epoch is one record of the VFL training log.
type Epoch struct {
	// T is the 1-based round number.
	T int
	// Theta is a copy of the global model θ_{T-1}.
	Theta []float64
	// Grad is the full global gradient G_T = α_T·∇loss(θ_{T-1}) over the
	// training data (already scaled by the learning rate, matching the
	// paper's definition of 𝒢_t in Sec. II-C2).
	Grad []float64
	// LR is α_T.
	LR float64
	// ValGrad is ∇loss^v(θ_{T-1}).
	ValGrad []float64
	// ValLoss is loss^v(θ_{T-1}).
	ValLoss float64
	// Weights are the per-participant block weights applied to the update;
	// nil means unweighted.
	Weights []float64
	// Reported, when non-nil, lists the global indices of the parties
	// whose blocks were applied this round — a degraded
	// (partial-participation) epoch; dropped parties' blocks of Grad are
	// zero. Nil means every party of the run's subset reported, keeping
	// fault-free epoch records bit-identical to builds without fault
	// tolerance.
	Reported []int
}

// Reweighter chooses per-epoch block weights (Eq. 31).
type Reweighter interface {
	Weights(ep *Epoch) []float64
}

// Observer receives each epoch record after weights are fixed.
type Observer func(ep *Epoch)

// Trainer runs vertically partitioned full-batch gradient descent.
type Trainer struct {
	Problem    *Problem
	Cfg        Config
	Reweighter Reweighter
	Observer   Observer
}

// Result is the outcome of a VFL run.
type Result struct {
	Model        nn.Model
	InitLoss     float64
	FinalLoss    float64
	Log          []*Epoch
	ValLossCurve []float64
}

// Utility returns V = loss^v(θ_0) − loss^v(θ_τ) (Eq. 2).
func (r *Result) Utility() float64 { return r.InitLoss - r.FinalLoss }

// Run is RunContext(context.Background()) panicking on error — the one
// convenience wrapper, for tests and throwaway scripts. It adds no behavior
// of its own (TestRunWrappersBitIdentical).
func (tr *Trainer) Run() *Result {
	res, err := tr.RunContext(context.Background())
	if err != nil {
		panic(err)
	}
	return res
}

// RunContext trains with all participants under a cancelable context,
// returning mid-training failures (config errors, plugin shape mismatches,
// injected crashes, checkpoint write failures) as errors. Cancellation is
// observed at the next epoch boundary, returns the context's error, and
// never corrupts trainer state — checkpoints written for completed epochs
// remain valid resume points, so a canceled run continues bit-identically
// via Cfg.Resume.
func (tr *Trainer) RunContext(ctx context.Context) (*Result, error) {
	all := make([]int, tr.Problem.Parties())
	for i := range all {
		all[i] = i
	}
	return tr.RunSubsetContext(ctx, all)
}

// RunSubsetContext trains with only the blocks of the listed participants;
// the remaining blocks stay frozen at zero — the paper's removal semantics
// (a removed participant's local output is identically 0, Sec. II-C2).
// RunContext delegates here.
//
// With Cfg.Faults attached, a party may drop out of individual epochs: its
// block of that epoch's update is frozen at zero (the same removal
// semantics applied per-epoch, justified by Lemma 3 additivity) and the
// epoch record's Reported field names the parties that reported. An
// injected crash aborts with a *faults.CrashError; training then resumes
// from the latest checkpoint via Cfg.Resume.
//
// Cancellation is checked at every epoch boundary: a canceled ctx aborts
// before the next epoch mutates anything, so checkpoints already written
// stay valid resume points.
func (tr *Trainer) RunSubsetContext(ctx context.Context, subset []int) (*Result, error) {
	if err := tr.Problem.validate(); err != nil {
		return nil, err
	}
	if err := tr.Cfg.validate(); err != nil {
		return nil, err
	}
	prob := tr.Problem
	sink := tr.Cfg.Runtime.Sink
	inj := tr.Cfg.Faults
	model := prob.newModel()
	active := make([]bool, prob.Parties())
	for _, i := range subset {
		active[i] = true
	}

	res := &Result{Model: model}
	startT := 1
	if ck := tr.Cfg.Resume; ck != nil {
		if err := ck.validate(model.NumParams(), tr.Cfg.Epochs); err != nil {
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
		res.InitLoss = model.Loss(prob.Val.X, prob.Val.Y)
		res.ValLossCurve = append(res.ValLossCurve, res.InitLoss)
	}
	for t := startT; t <= tr.Cfg.Epochs; t++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("vfl: run canceled before epoch %d: %w", t, err)
		}
		if inj.CrashesAt(t) {
			obs.Emit(sink, obs.Event{Kind: obs.KindCrash, T: t})
			return nil, &faults.CrashError{Epoch: t}
		}
		obs.Emit(sink, obs.Event{Kind: obs.KindEpochStart, T: t})
		epochStart := obs.Start(sink)
		lr := tr.Cfg.LR
		theta := tensor.Clone(model.Params())
		grad := model.Grad(prob.Train.X, prob.Train.Y)
		tensor.Scale(lr, grad)
		reported, droppedOut := inj.Survivors(t, subset)
		for _, i := range droppedOut {
			obs.Emit(sink, obs.Event{Kind: obs.KindDropout, T: t, Part: i})
		}
		epochActive := active
		if len(droppedOut) > 0 {
			epochActive = make([]bool, prob.Parties())
			for _, i := range reported {
				epochActive[i] = true
			}
		}
		// Freeze removed (and this epoch's dropped) blocks: diag(v̄) masking
		// of the update.
		for i, b := range prob.Blocks {
			if !epochActive[i] {
				for j := b.Lo; j < b.Hi; j++ {
					grad[j] = 0
				}
			}
		}
		ep := &Epoch{
			T:       t,
			Theta:   theta,
			Grad:    grad,
			LR:      lr,
			ValGrad: model.Grad(prob.Val.X, prob.Val.Y),
			ValLoss: res.ValLossCurve[len(res.ValLossCurve)-1],
		}
		if len(droppedOut) > 0 {
			ep.Reported = reported
		}
		if tr.Reweighter != nil {
			ep.Weights = tr.Reweighter.Weights(ep)
		}
		aggStart := obs.Start(sink)
		update := grad
		if ep.Weights != nil {
			if len(ep.Weights) != prob.Parties() {
				return nil, fmt.Errorf("vfl: epoch %d: reweighter returned %d weights for %d parties",
					t, len(ep.Weights), prob.Parties())
			}
			update = tensor.Clone(grad)
			for i, b := range prob.Blocks {
				for j := b.Lo; j < b.Hi; j++ {
					update[j] *= ep.Weights[i]
				}
			}
		}
		if tr.Cfg.FailNonFinite && !finiteVec(update) {
			return nil, fmt.Errorf("vfl: epoch %d: update: %w", t, ErrNonFinite)
		}
		tensor.AXPY(-1, update, model.Params())
		obs.Emit(sink, obs.Event{Kind: obs.KindAggregate, T: t,
			N: int64(prob.Parties()), Dur: obs.Since(sink, aggStart)})
		if tr.Observer != nil {
			tr.Observer(ep)
		}
		if tr.Cfg.RetainDeltas == ReleaseAfterObserve {
			// The update is applied and every consumer that needs the raw
			// G_T (estimator, archive) has run inside the Observer.
			ep.Grad = nil
		}
		if tr.Cfg.KeepLog {
			res.Log = append(res.Log, ep)
		}
		loss := model.Loss(prob.Val.X, prob.Val.Y)
		if tr.Cfg.FailNonFinite && (math.IsNaN(loss) || math.IsInf(loss, 0)) {
			return nil, fmt.Errorf("vfl: epoch %d: validation loss: %w", t, ErrNonFinite)
		}
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
				return nil, fmt.Errorf("vfl: checkpoint at epoch %d: %w", t, err)
			}
		}
	}
	res.FinalLoss = res.ValLossCurve[len(res.ValLossCurve)-1]
	return res, nil
}

// finiteVec reports whether every coordinate is finite.
func finiteVec(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Utility is the coalition utility V(S) by full retraining (Eq. 2) — the
// expensive ground truth DIG-FL avoids.
func (tr *Trainer) Utility(subset []int) float64 {
	cfg := tr.Cfg
	cfg.KeepLog = false
	// Ground-truth utilities are defined on fault-free retraining.
	cfg.Faults = nil
	cfg.CheckpointEvery, cfg.CheckpointFunc, cfg.Resume = 0, nil, nil
	sub := &Trainer{Problem: tr.Problem, Cfg: cfg}
	res, err := sub.RunSubsetContext(context.Background(), subset)
	if err != nil {
		panic(err)
	}
	return res.Utility()
}
