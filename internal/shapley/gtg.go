package shapley

import (
	"fmt"
	"math"
)

// GTGConfig controls the "gtg" engine, GTG-Shapley (Liu et al., "GTG-Shapley:
// Efficient and Accurate Participant Contribution Evaluation in Federated
// Learning", ACM TIST 2022): guided truncation between rounds plus truncated
// within-round permutation sampling with a convergence cutoff. Every zero
// field disables its mechanism, so the zero value &GTGConfig{} degrades the
// engine to the closed-form exact round computation — the truncation-disabled
// mode the equivalence suite pins against the "exact" engine. A nil
// EngineSpec.GTG selects DefaultGTG.
type GTGConfig struct {
	// MaxPermsPerRound bounds the sampled permutations per round; 0 skips
	// sampling entirely and computes the round exactly by coalition
	// enumeration (survivor count ≤ 20).
	MaxPermsPerRound int
	// RoundTol is the guided between-round truncation threshold: a round
	// whose grand-coalition utility |U_t(R)| falls below RoundTol times the
	// largest |U(R)| seen so far is skipped outright (one evaluation, zero
	// φ row) — the model barely moved, so per-participant credit is noise.
	// 0 never skips.
	RoundTol float64
	// TruncTol is the within-permutation truncation threshold, as in TMC:
	// a scan stops once the running coalition is within TruncTol·|U_t(R)|
	// of the grand-coalition value. 0 never truncates.
	TruncTol float64
	// ConvTol is the convergence cutoff: sampling stops early once the
	// running mean's relative L1 change stays below ConvTol for ConvWindow
	// consecutive permutations. 0 never cuts off.
	ConvTol float64
	// ConvWindow is the required consecutive-stable count; 0 defaults to 2
	// when ConvTol is set.
	ConvWindow int
}

// DefaultGTG returns the tuned GTG configuration the experiments use.
func DefaultGTG() GTGConfig {
	return GTGConfig{MaxPermsPerRound: 24, RoundTol: 0.05, TruncTol: 0.05,
		ConvTol: 0.02, ConvWindow: 2}
}

// gtgEngine carries the one piece of cross-round state GTG needs: the
// running largest |U_t(R)|, the scale the guided truncation compares
// against.
type gtgEngine struct {
	*roundEngine
	cfg     GTGConfig
	maxAbsU float64
}

func newGTGEngine(spec EngineSpec) (Engine, error) {
	cfg := DefaultGTG()
	if spec.GTG != nil {
		cfg = *spec.GTG
	}
	if cfg.ConvWindow <= 0 {
		cfg.ConvWindow = 2
	}
	e := &gtgEngine{cfg: cfg}
	core, err := newRoundEngine("gtg", spec, func(_ *roundEngine, g *roundGame, rc *roundCtx) []float64 {
		return e.roundPhi(g, rc)
	}, e)
	if err != nil {
		return nil, err
	}
	e.roundEngine = core
	return e, nil
}

func (e *gtgEngine) roundPhi(g *roundGame, rc *roundCtx) []float64 {
	all := uint64(1)<<uint(g.m) - 1
	vFull := g.value(all)
	if e.cfg.RoundTol > 0 && e.maxAbsU > 0 && math.Abs(vFull) < e.cfg.RoundTol*e.maxAbsU {
		// Guided between-round truncation: the aggregate barely moved the
		// validation loss; skip the round for one evaluation.
		return make([]float64, g.m)
	}
	if a := math.Abs(vFull); a > e.maxAbsU {
		e.maxAbsU = a
	}
	if e.cfg.MaxPermsPerRound <= 0 {
		return exactPhi(g)
	}
	mean := make([]float64, g.m)
	prevMean := make([]float64, g.m)
	stable := 0
	// Convergence cutoff: stop once the running mean's relative L1 change
	// has stayed below ConvTol for ConvWindow consecutive permutations.
	more := func(count int, sum []float64) bool {
		if count >= e.cfg.MaxPermsPerRound {
			return false
		}
		if e.cfg.ConvTol <= 0 {
			return true
		}
		copy(prevMean, mean)
		inv := 1 / float64(count)
		for i := range mean {
			mean[i] = sum[i] * inv
		}
		if count < 2 {
			return true
		}
		var num, den float64
		for i := range mean {
			num += math.Abs(mean[i] - prevMean[i])
			den += math.Abs(mean[i])
		}
		if num > e.cfg.ConvTol*(den+1e-12) {
			stable = 0
			return true
		}
		stable++
		return stable < e.cfg.ConvWindow
	}
	return permScan(g, e.roundRNG(rc.t), e.cfg.TruncTol, noBudget, more)
}

func (e *gtgEngine) auxState() []float64 { return []float64{e.maxAbsU} }

func (e *gtgEngine) setAux(aux []float64) error {
	if len(aux) != 1 {
		return fmt.Errorf("shapley: gtg state aux has %d entries, want 1", len(aux))
	}
	e.maxAbsU = aux[0]
	return nil
}
