// Package shapley implements cooperative-game contribution machinery: the
// exact Shapley value by coalition enumeration (the ground truth every
// experiment compares against) and the two state-of-the-art sampling
// estimators the paper benchmarks DIG-FL against — TMC-Shapley (Ghorbani &
// Zou, ICML'19) and GT-Shapley (Jia et al., AISTATS'19).
//
// Utilities are arbitrary coalition value functions; in the experiments they
// are backed by full federated retraining, which is why the call counters
// matter: each evaluation is a complete training run.
package shapley

import (
	"fmt"
	"math/bits"
)

// Utility is a coalition value function V(S) over participants 0..n−1.
type Utility func(subset []int) float64

// Counter wraps a Utility and counts evaluations, the unit of computation
// cost for retraining-based methods.
type Counter struct {
	U     Utility
	Evals int64
}

// Call evaluates the wrapped utility and bumps the counter.
func (c *Counter) Call(s []int) float64 {
	c.Evals++
	return c.U(s)
}

// Memoized caches utility values by coalition bitmask, so estimators that
// revisit coalitions (TMC permutations share prefixes with probability > 0)
// do not retrain twice. It also counts *distinct* evaluations.
type Memoized struct {
	n     int
	u     Utility
	cache map[uint64]float64
	// Evals counts underlying (cache-miss) evaluations.
	Evals int64
}

// NewMemoized wraps u for an n-participant game (n ≤ 63).
func NewMemoized(n int, u Utility) *Memoized {
	if n <= 0 || n > 63 {
		panic(fmt.Sprintf("shapley: unsupported participant count %d", n))
	}
	return &Memoized{n: n, u: u, cache: make(map[uint64]float64)}
}

// ValueMask returns V of the coalition encoded as a bitmask.
func (m *Memoized) ValueMask(mask uint64) float64 {
	if v, ok := m.cache[mask]; ok {
		return v
	}
	v := m.u(maskToSubset(mask, m.n))
	m.cache[mask] = v
	m.Evals++
	return v
}

// Value returns V(S) for an explicit subset.
func (m *Memoized) Value(s []int) float64 { return m.ValueMask(subsetToMask(s)) }

// players, value and spent make a Memoized a game.
func (m *Memoized) players() int              { return m.n }
func (m *Memoized) value(mask uint64) float64 { return m.ValueMask(mask) }
func (m *Memoized) spent() int64              { return m.Evals }

func subsetToMask(s []int) uint64 {
	var mask uint64
	for _, i := range s {
		mask |= 1 << uint(i)
	}
	return mask
}

func maskToSubset(mask uint64, n int) []int {
	out := make([]int, 0, bits.OnesCount64(mask))
	for i := 0; i < n; i++ {
		if mask&(1<<uint(i)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// Exact computes the exact Shapley value (Eq. 1) by enumerating all 2^n
// coalitions — the paper's "actual Shapley value" baseline requiring 2^n
// retrainings. n must be at most 20 to bound memory and time.
func Exact(n int, u Utility) []float64 {
	return exactPhi(NewMemoized(n, u))
}
