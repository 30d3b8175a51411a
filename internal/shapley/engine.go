package shapley

import (
	"fmt"
	"math/bits"
	"sort"
	"time"

	"digfl/internal/hfl"
	"digfl/internal/metrics"
	"digfl/internal/tensor"
)

// ValLoss evaluates the server's validation loss loss^v at given model
// parameters. It is the only model access a contribution engine needs: the
// per-round reconstruction utility is U_t(S) = loss^v(θ_{t-1}) −
// loss^v(θ_t(S)) with θ_t(S) = θ_{t-1} − (1/|S|)·Σ_{i∈S} δ_{t,i}, the MR
// utility of Song et al. that every engine in this package shares — no
// retraining, only validation evaluations.
type ValLoss func(theta []float64) float64

// Report is an engine's finalized attribution: the per-epoch φ matrix, the
// accumulated totals (the contribution estimate itself), and the cost the
// engine spent producing them. Finalize may be called at any point — the
// report is a deep snapshot of everything observed so far, so a caller can
// read it mid-run.
type Report struct {
	// Name identifies the engine that produced the report.
	Name string
	// PerEpoch[t-1][i] is participant i's round-t contribution.
	PerEpoch [][]float64
	// Totals[i] = Σ_t PerEpoch[t-1][i].
	Totals []float64
	// Epochs counts the observed rounds.
	Epochs int
	// Cost accounts the engine's work: UtilityEvals counts distinct
	// validation-loss evaluations (the unit of computation for
	// reconstruction methods), Wall the time spent inside Observe.
	Cost metrics.Cost
}

// EngineState is the serializable engine snapshot for checkpoint/resume.
// Engines derive each round's sampling stream purely from (Seed, T), so the
// state carries no RNG cursor: restoring at any epoch boundary reproduces
// the exact draw sequence of an uninterrupted run — no permutation draws
// replayed or skipped.
type EngineState struct {
	// Engine names the engine that produced the state; SetState refuses a
	// mismatch.
	Engine string
	// LastEpoch is the last observed round (0 before the first Observe).
	LastEpoch int
	// PerEpoch and Totals mirror the report accumulated so far.
	PerEpoch [][]float64
	Totals   []float64
	// Evals is the utility-evaluation counter at snapshot time.
	Evals int64
	// WallNS is the accumulated Observe wall time in nanoseconds.
	WallNS int64
	// Aux carries engine-specific state (GTG's running utility scale,
	// DPVS's volatility windows), flattened deterministically.
	Aux []float64
}

// Engine is the common seam every contribution estimator in this package
// sits behind: feed it the training log epoch by epoch, read the φ matrix
// and cost from Finalize. Implementations are deterministic for a fixed
// EngineSpec — bit-identical across reruns and across State/SetState
// checkpoint splits — and compose with partial participation: an epoch's
// non-nil Reported names the survivors, everyone absent scores zero for the
// round (Lemma 3 makes per-epoch contributions additive over reporting
// participants). Engines need raw Deltas; observing a streamed epoch
// (DeltaDots set, Deltas released) panics.
type Engine interface {
	// Name returns the registered engine name.
	Name() string
	// Observe ingests one training epoch. Epochs must arrive in order
	// starting at 1 (LastEpoch+1 after a SetState).
	Observe(ep *hfl.Epoch)
	// Finalize snapshots the attribution accumulated so far. It is
	// idempotent and may be called mid-run.
	Finalize() *Report
	// State snapshots the engine for checkpoint/resume.
	State() *EngineState
	// SetState restores a snapshot taken from an engine of the same name
	// and shape.
	SetState(st *EngineState) error
}

// EngineSpec configures an engine: the federation size, the validation-loss
// oracle, and the sampling seed, plus the two guided engines' configurations.
// The "tmc" and "gt" engines take no knobs: they spend the paper's budgets,
// BudgetTMC(m) evaluations at tolerance 0.01 and BudgetGT(m) sampled
// coalitions for an m-survivor round.
type EngineSpec struct {
	// N is the participant-population size.
	N int
	// Loss evaluates loss^v(θ). Engines call it serially.
	Loss ValLoss
	// Seed drives all sampling. Round t's stream is derived purely from
	// (Seed, t), making engines resume-safe by construction.
	Seed int64
	// GTG configures the "gtg" engine; nil selects DefaultGTG().
	GTG *GTGConfig
	// DPVS configures the "dpvs" engine; nil selects DefaultDPVS().
	DPVS *DPVSConfig
}

func (spec EngineSpec) validate() error {
	if spec.N <= 0 || spec.N > 63 {
		return fmt.Errorf("shapley: engine needs 1..63 participants, got %d", spec.N)
	}
	if spec.Loss == nil {
		return fmt.Errorf("shapley: engine needs a ValLoss")
	}
	return nil
}

// EngineFactory builds an engine from a spec.
type EngineFactory func(spec EngineSpec) (Engine, error)

var engineFactories = map[string]EngineFactory{}

// RegisterEngine adds an engine to the registry; the built-in engines
// register themselves at init. Duplicate names panic.
func RegisterEngine(name string, f EngineFactory) {
	if name == "" || f == nil {
		panic("shapley: RegisterEngine needs a name and a factory")
	}
	if _, dup := engineFactories[name]; dup {
		panic(fmt.Sprintf("shapley: engine %q registered twice", name))
	}
	engineFactories[name] = f
}

// Engines lists the registered engine names, sorted.
func Engines() []string {
	names := make([]string, 0, len(engineFactories))
	for name := range engineFactories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NewEngine builds the named engine. Unknown names list the registry in the
// error so callers can surface the valid choices.
func NewEngine(name string, spec EngineSpec) (Engine, error) {
	f, ok := engineFactories[name]
	if !ok {
		return nil, fmt.Errorf("shapley: unknown engine %q (have %v)", name, Engines())
	}
	return f(spec)
}

func init() {
	RegisterEngine("exact", func(spec EngineSpec) (Engine, error) {
		return newRoundEngine("exact", spec, func(e *roundEngine, g *roundGame, rc *roundCtx) []float64 {
			return exactPhi(g)
		}, nil)
	})
	RegisterEngine("tmc", func(spec EngineSpec) (Engine, error) {
		return newRoundEngine("tmc", spec, tmcRound, nil)
	})
	RegisterEngine("gt", func(spec EngineSpec) (Engine, error) {
		return newRoundEngine("gt", spec, gtRound, nil)
	})
	RegisterEngine("gtg", newGTGEngine)
	RegisterEngine("dpvs", newDPVSEngine)
}

// roundSeed derives round t's sampling seed purely from (seed, t) with a
// splitmix64 finalizer. Because no state flows between rounds, resuming at
// any epoch boundary reproduces the exact draws of an uninterrupted run.
func roundSeed(seed int64, t int) int64 {
	x := uint64(seed) + uint64(t)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// roundCtx is one observed round as the per-engine round functions see it:
// the broadcast model, the survivors' deltas, and the survivors' global
// indices (identity-materialized, never nil).
type roundCtx struct {
	t      int
	theta  []float64
	deltas [][]float64
	idx    []int
}

// roundGame is the memoized per-round reconstruction game over an epoch's
// reporting survivors: value(mask) = loss^v(θ_{t-1}) − loss^v(θ_{t-1} −
// (1/|S|)·Σ_{k∈mask} δ_k), with U(∅) = 0 by construction. Distinct
// evaluations (including the base loss) are counted into evals.
type roundGame struct {
	loss    ValLoss
	theta   []float64
	deltas  [][]float64
	base    float64
	m       int
	cache   map[uint64]float64
	evals   *int64
	scratch []float64
	coef    []float64 // value's AXPYRows coefficients: −1/|S| on members, 0 (skipped) elsewhere
	buf     []float64 // backs scratch, then coef
}

// reset makes g the round game of rc, keeping what an earlier round left:
// the scratch+coef buffer grows only when a round needs more, and the memo
// map is cleared, not remade.
func (g *roundGame) reset(loss ValLoss, rc *roundCtx, evals *int64) *roundGame {
	p, n := len(rc.theta), len(rc.deltas)
	if cap(g.buf) < p+n {
		g.buf = make([]float64, p+n)
	}
	if g.cache == nil {
		g.cache = make(map[uint64]float64)
	} else {
		clear(g.cache)
	}
	g.loss, g.theta, g.deltas, g.m, g.evals = loss, rc.theta, rc.deltas, n, evals
	g.scratch, g.coef = g.buf[:p:p], g.buf[p:p+n]
	g.base = loss(rc.theta)
	*evals++
	return g
}

// subGame derives a game over a subset of the survivors (DPVS prunes some
// out), sharing the base loss and the eval counter.
func (g *roundGame) subGame(keep []int) *roundGame {
	deltas := make([][]float64, len(keep))
	for k, i := range keep {
		deltas[k] = g.deltas[i]
	}
	return &roundGame{
		loss: g.loss, theta: g.theta, deltas: deltas, m: len(deltas),
		base: g.base, cache: make(map[uint64]float64), evals: g.evals,
		scratch: g.scratch, coef: g.coef[:len(deltas)],
	}
}

// value reconstructs θ_t(S) for the masked coalition and scores it.
func (g *roundGame) value(mask uint64) float64 {
	if mask == 0 {
		return 0
	}
	if v, ok := g.cache[mask]; ok {
		return v
	}
	copy(g.scratch, g.theta)
	inv := 1 / float64(bits.OnesCount64(mask))
	for k := range g.coef {
		g.coef[k] = 0
		if mask&(1<<uint(k)) != 0 {
			g.coef[k] = -inv
		}
	}
	tensor.AXPYRows(g.coef, g.deltas, g.scratch)
	v := g.base - g.loss(g.scratch)
	g.cache[mask] = v
	*g.evals++
	return v
}

func (g *roundGame) players() int { return g.m }
func (g *roundGame) spent() int64 { return *g.evals }

// tmcRound is the per-round TMC-Shapley scan at the paper's budget and the
// Ghorbani & Zou tolerance.
func tmcRound(e *roundEngine, g *roundGame, rc *roundCtx) []float64 {
	budget := BudgetTMC(g.m)
	return permScan(g, e.roundRNG(rc.t), 0.01, budget, atMost(int(4*budget)))
}

// gtRound is the per-round group-testing estimator at the paper's budget.
func gtRound(e *roundEngine, g *roundGame, rc *roundCtx) []float64 {
	return gtPhi(g, BudgetGT(g.m), e.roundRNG(rc.t))
}

// auxer is the optional per-engine hook for flattening engine-specific
// state into EngineState.Aux.
type auxer interface {
	auxState() []float64
	setAux(aux []float64) error
}

// roundFunc computes the survivors' round-t φ from the memoized game.
type roundFunc func(e *roundEngine, g *roundGame, rc *roundCtx) []float64

// roundEngine is the shared Engine chassis: it owns the Observe skeleton
// (epoch ordering, Reported mapping, Lemma-3 zero rows, accumulation, cost
// accounting) and delegates the per-round computation to round. The round
// game and the sampling generator are reused from round to round.
type roundEngine struct {
	name      string
	spec      EngineSpec
	round     roundFunc
	aux       auxer
	lastEpoch int
	perEpoch  [][]float64
	totals    []float64
	evals     int64
	wall      time.Duration
	game      roundGame
	rng       *tensor.RNG
}

func newRoundEngine(name string, spec EngineSpec, round roundFunc, aux auxer) (*roundEngine, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return &roundEngine{name: name, spec: spec, round: round, aux: aux,
		totals: make([]float64, spec.N)}, nil
}

func (e *roundEngine) Name() string { return e.name }

// roundRNG returns round t's sampling stream: the engine's one generator,
// reseeded in place to roundSeed(Seed, t). Reseeding rebuilds the whole
// source state, so it draws what tensor.NewRNG(roundSeed(Seed, t)) would,
// without allocating a fresh source every round.
func (e *roundEngine) roundRNG(t int) *tensor.RNG {
	s := roundSeed(e.spec.Seed, t)
	if e.rng == nil {
		e.rng = tensor.NewRNG(s)
	} else {
		e.rng.Seed(s)
	}
	return e.rng
}

// Observe implements Engine. The epoch's survivors (Reported, or everyone
// when nil) define the round game; participants absent from the round score
// zero (Lemma 3), and an all-dropped epoch records a zero row.
func (e *roundEngine) Observe(ep *hfl.Epoch) {
	start := time.Now()
	if ep.T != e.lastEpoch+1 {
		panic(fmt.Sprintf("shapley: engine %s observed epoch %d after %d", e.name, ep.T, e.lastEpoch))
	}
	if ep.DeltaDots != nil {
		panic(fmt.Sprintf("shapley: engine %s needs raw deltas; streamed epochs (DeltaDots) release them — keep the buffered path", e.name))
	}
	n := e.spec.N
	idx := ep.Reported
	if idx == nil {
		if len(ep.Deltas) != n {
			panic(fmt.Sprintf("shapley: engine %s: epoch carries %d deltas for %d participants and no Reported mapping", e.name, len(ep.Deltas), n))
		}
		idx = make([]int, n)
		for i := range idx {
			idx[i] = i
		}
	} else {
		if len(idx) != len(ep.Deltas) {
			panic(fmt.Sprintf("shapley: engine %s: epoch maps %d survivors to %d deltas", e.name, len(idx), len(ep.Deltas)))
		}
		seen := make([]bool, n)
		for _, i := range idx {
			if i < 0 || i >= n {
				panic(fmt.Sprintf("shapley: engine %s: reported participant %d out of range [0,%d)", e.name, i, n))
			}
			if seen[i] {
				panic(fmt.Sprintf("shapley: engine %s: participant %d reported twice", e.name, i))
			}
			seen[i] = true
		}
	}
	row := make([]float64, n)
	if len(ep.Deltas) > 0 {
		rc := &roundCtx{t: ep.T, theta: ep.Theta, deltas: ep.Deltas, idx: idx}
		g := e.game.reset(e.spec.Loss, rc, &e.evals)
		rphi := e.round(e, g, rc)
		g.theta, g.deltas = nil, nil // the kept game holds no epoch past its round
		for k, v := range rphi {
			row[idx[k]] = v
		}
	}
	e.lastEpoch = ep.T
	e.perEpoch = append(e.perEpoch, row)
	for i, v := range row {
		e.totals[i] += v
	}
	e.wall += time.Since(start)
}

// Finalize implements Engine: a deep snapshot of the attribution so far.
func (e *roundEngine) Finalize() *Report {
	per := make([][]float64, len(e.perEpoch))
	for t, row := range e.perEpoch {
		per[t] = append([]float64(nil), row...)
	}
	return &Report{
		Name:     e.name,
		PerEpoch: per,
		Totals:   append([]float64(nil), e.totals...),
		Epochs:   e.lastEpoch,
		Cost:     metrics.Cost{Wall: e.wall, UtilityEvals: e.evals},
	}
}

// State implements Engine.
func (e *roundEngine) State() *EngineState {
	st := &EngineState{
		Engine:    e.name,
		LastEpoch: e.lastEpoch,
		PerEpoch:  make([][]float64, len(e.perEpoch)),
		Totals:    append([]float64(nil), e.totals...),
		Evals:     e.evals,
		WallNS:    int64(e.wall),
	}
	for t, row := range e.perEpoch {
		st.PerEpoch[t] = append([]float64(nil), row...)
	}
	if e.aux != nil {
		st.Aux = e.aux.auxState()
	}
	return st
}

// SetState implements Engine.
func (e *roundEngine) SetState(st *EngineState) error {
	if st == nil {
		return fmt.Errorf("shapley: engine %s: nil state", e.name)
	}
	if st.Engine != e.name {
		return fmt.Errorf("shapley: state from engine %q restored into %q", st.Engine, e.name)
	}
	if st.LastEpoch < 0 || len(st.PerEpoch) != st.LastEpoch {
		return fmt.Errorf("shapley: engine %s: state has %d epoch rows for last epoch %d", e.name, len(st.PerEpoch), st.LastEpoch)
	}
	if len(st.Totals) != e.spec.N {
		return fmt.Errorf("shapley: engine %s: state totals have %d entries for %d participants", e.name, len(st.Totals), e.spec.N)
	}
	per := make([][]float64, len(st.PerEpoch))
	for t, row := range st.PerEpoch {
		if len(row) != e.spec.N {
			return fmt.Errorf("shapley: engine %s: state row %d has %d entries for %d participants", e.name, t+1, len(row), e.spec.N)
		}
		per[t] = append([]float64(nil), row...)
	}
	if e.aux != nil {
		if err := e.aux.setAux(st.Aux); err != nil {
			return err
		}
	}
	e.lastEpoch = st.LastEpoch
	e.perEpoch = per
	e.totals = append([]float64(nil), st.Totals...)
	e.evals = st.Evals
	e.wall = time.Duration(st.WallNS)
	return nil
}
