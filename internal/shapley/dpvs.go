package shapley

import (
	"fmt"
	"math"
)

// DPVSConfig controls the "dpvs" engine, DPVS-Shapley (dynamic-pruning
// contribution evaluation): participants whose per-round φ has gone quiet —
// low volatility over a trailing window — are pruned from the sampling game
// and credited their trailing mean, concentrating utility evaluations on the
// participants whose contribution is still moving. Every zero field disables
// its mechanism, so the zero value &DPVSConfig{} degrades the engine to the
// closed-form exact round computation (the truncation-disabled mode of the
// equivalence suite). A nil EngineSpec.DPVS selects DefaultDPVS.
type DPVSConfig struct {
	// MaxPermsPerRound bounds the sampled permutations per round; 0 skips
	// sampling and computes the round exactly by coalition enumeration
	// (unpruned survivor count ≤ 20).
	MaxPermsPerRound int
	// TruncTol is the within-permutation truncation threshold, as in TMC.
	// 0 never truncates.
	TruncTol float64
	// VolTol is the pruning threshold: once a participant's trailing
	// per-round φ window spans less than VolTol times the largest
	// per-round |φ| seen anywhere, the participant is pruned — frozen at
	// the window mean and excluded from further sampling. 0 never prunes.
	VolTol float64
	// VolWindow is the trailing-window length volatility is measured over;
	// 0 defaults to 3 when VolTol is set.
	VolWindow int
}

// DefaultDPVS returns the tuned DPVS configuration the experiments use.
func DefaultDPVS() DPVSConfig {
	return DPVSConfig{MaxPermsPerRound: 32, TruncTol: 0.05, VolTol: 0.04, VolWindow: 4}
}

// dpvsEngine carries the cross-round pruning state: per-participant
// trailing φ windows, the frozen per-round credit of pruned participants,
// and the global per-round φ scale volatility is measured against.
type dpvsEngine struct {
	*roundEngine
	cfg    DPVSConfig
	pruned []bool
	frozen []float64
	win    [][]float64
	scale  float64
}

func newDPVSEngine(spec EngineSpec) (Engine, error) {
	cfg := DefaultDPVS()
	if spec.DPVS != nil {
		cfg = *spec.DPVS
	}
	if cfg.VolWindow <= 0 {
		cfg.VolWindow = 3
	}
	e := &dpvsEngine{cfg: cfg}
	core, err := newRoundEngine("dpvs", spec, func(_ *roundEngine, g *roundGame, rc *roundCtx) []float64 {
		return e.roundPhi(g, rc)
	}, e)
	if err != nil {
		return nil, err
	}
	e.roundEngine = core
	e.pruned = make([]bool, spec.N)
	e.frozen = make([]float64, spec.N)
	e.win = make([][]float64, spec.N)
	return e, nil
}

func (e *dpvsEngine) roundPhi(g *roundGame, rc *roundCtx) []float64 {
	phi := make([]float64, g.m)
	// Split the survivors into the live sampling game and the pruned set,
	// which is credited its frozen trailing mean without any evaluations.
	activePos := make([]int, 0, g.m)
	for k, gi := range rc.idx {
		if e.pruned[gi] {
			phi[k] = e.frozen[gi]
		} else {
			activePos = append(activePos, k)
		}
	}
	if len(activePos) > 0 {
		sub := g.subGame(activePos)
		var subPhi []float64
		if e.cfg.MaxPermsPerRound <= 0 {
			subPhi = exactPhi(sub)
		} else {
			subPhi = permScan(sub, e.roundRNG(rc.t), e.cfg.TruncTol, noBudget, atMost(e.cfg.MaxPermsPerRound))
		}
		for j, k := range activePos {
			phi[k] = subPhi[j]
		}
	}
	// Volatility bookkeeping: every survivor's round φ extends its trailing
	// window; a full window whose span has collapsed relative to the global
	// per-round φ scale freezes the participant at the window mean.
	for k, gi := range rc.idx {
		if a := math.Abs(phi[k]); a > e.scale {
			e.scale = a
		}
		if e.pruned[gi] {
			continue
		}
		w := append(e.win[gi], phi[k])
		if len(w) > e.cfg.VolWindow {
			w = w[len(w)-e.cfg.VolWindow:]
		}
		e.win[gi] = w
		if e.cfg.VolTol <= 0 || len(w) < e.cfg.VolWindow {
			continue
		}
		lo, hi, sum := w[0], w[0], 0.0
		for _, v := range w {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
			sum += v
		}
		if hi-lo <= e.cfg.VolTol*e.scale {
			e.pruned[gi] = true
			e.frozen[gi] = sum / float64(len(w))
			e.win[gi] = nil
		}
	}
	return phi
}

// auxState flattens the pruning state deterministically:
// [scale, pruned×n, frozen×n, winLen×n, window values in participant order].
func (e *dpvsEngine) auxState() []float64 {
	n := e.spec.N
	aux := make([]float64, 0, 1+3*n)
	aux = append(aux, e.scale)
	for i := 0; i < n; i++ {
		p := 0.0
		if e.pruned[i] {
			p = 1
		}
		aux = append(aux, p)
	}
	for i := 0; i < n; i++ {
		aux = append(aux, e.frozen[i])
	}
	for i := 0; i < n; i++ {
		aux = append(aux, float64(len(e.win[i])))
	}
	for i := 0; i < n; i++ {
		aux = append(aux, e.win[i]...)
	}
	return aux
}

func (e *dpvsEngine) setAux(aux []float64) error {
	n := e.spec.N
	if len(aux) < 1+3*n {
		return fmt.Errorf("shapley: dpvs state aux has %d entries, want at least %d", len(aux), 1+3*n)
	}
	scale := aux[0]
	pruned := make([]bool, n)
	frozen := make([]float64, n)
	win := make([][]float64, n)
	for i := 0; i < n; i++ {
		switch aux[1+i] {
		case 0:
			pruned[i] = false
		case 1:
			pruned[i] = true
		default:
			return fmt.Errorf("shapley: dpvs state pruned flag %d is %v, want 0 or 1", i, aux[1+i])
		}
		frozen[i] = aux[1+n+i]
	}
	off := 1 + 3*n
	for i := 0; i < n; i++ {
		l := int(aux[1+2*n+i])
		if l < 0 || l > e.cfg.VolWindow || off+l > len(aux) {
			return fmt.Errorf("shapley: dpvs state window %d has invalid length %d", i, l)
		}
		if l > 0 {
			win[i] = append([]float64(nil), aux[off:off+l]...)
		}
		off += l
	}
	if off != len(aux) {
		return fmt.Errorf("shapley: dpvs state aux has %d trailing entries", len(aux)-off)
	}
	e.scale = scale
	e.pruned = pruned
	e.frozen = frozen
	e.win = win
	return nil
}
