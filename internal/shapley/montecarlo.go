package shapley

import (
	"fmt"

	"digfl/internal/tensor"
)

// TMCConfig controls Truncated Monte Carlo Shapley (Ghorbani & Zou).
type TMCConfig struct {
	// MaxEvals bounds the number of distinct utility evaluations (i.e.
	// retrainings). The paper's comparison uses n²·log n.
	MaxEvals int64
	// Tolerance truncates a permutation scan once the running coalition's
	// utility is within Tolerance·|V(N)| of the grand-coalition value; the
	// remaining marginals are taken as zero. Ghorbani & Zou default ≈ 0.01.
	Tolerance float64
	// RNG drives the permutation sampling.
	RNG *tensor.RNG
}

// TMC estimates Shapley values by sampling permutations and scanning
// marginal contributions with truncation. Utility evaluations are memoized
// so repeated prefixes cost nothing; the estimator stops when MaxEvals
// distinct evaluations have been spent — V(∅) and V(N) included, except that
// the first permutation always completes — or after 4·MaxEvals permutations
// (memoization can make a permutation free, so the evaluation budget alone
// would not terminate). It returns the estimate and the number of distinct
// evaluations used.
func TMC(n int, u Utility, cfg TMCConfig) ([]float64, int64) {
	if cfg.MaxEvals <= 0 {
		panic(fmt.Sprintf("shapley: TMC MaxEvals must be positive, got %d", cfg.MaxEvals))
	}
	if cfg.RNG == nil {
		panic("shapley: TMC needs an RNG")
	}
	mem := NewMemoized(n, u)
	// permScan budgets from after the two anchors; MaxEvals charges them.
	phi := permScan(mem, cfg.RNG, cfg.Tolerance, cfg.MaxEvals-2, atMost(int(4*cfg.MaxEvals)))
	return phi, mem.Evals
}

// PermutationMC is plain (untruncated) Monte Carlo over permutations,
// provided for ablations against TMC. It runs exactly `perms` permutations.
func PermutationMC(n int, u Utility, perms int, rng *tensor.RNG) ([]float64, int64) {
	if perms <= 0 {
		panic(fmt.Sprintf("shapley: PermutationMC needs positive permutations, got %d", perms))
	}
	mem := NewMemoized(n, u)
	phi := permScan(mem, rng, 0, noBudget, atMost(perms))
	return phi, mem.Evals
}
