package shapley

import (
	"fmt"

	"digfl/internal/tensor"
)

// GTConfig controls GT-Shapley (Jia et al., "Towards Efficient Data
// Valuation Based on the Shapley Value", AISTATS'19, group-testing scheme).
type GTConfig struct {
	// Samples is the number of random coalitions T to evaluate; the paper's
	// comparison budget is n·(log n)².
	Samples int
	// RNG drives coalition sampling.
	RNG *tensor.RNG
}

// GT estimates Shapley values by group testing (gtPhi) over the memoized
// retraining game. It returns the estimate and the number of distinct utility
// evaluations spent.
func GT(n int, u Utility, cfg GTConfig) ([]float64, int64) {
	if cfg.Samples <= 0 {
		panic(fmt.Sprintf("shapley: GT Samples must be positive, got %d", cfg.Samples))
	}
	if cfg.RNG == nil {
		panic("shapley: GT needs an RNG")
	}
	if n < 2 {
		panic("shapley: GT needs at least 2 participants")
	}
	mem := NewMemoized(n, u)
	phi := gtPhi(mem, cfg.Samples, cfg.RNG)
	return phi, mem.Evals
}

// BudgetTMC returns the paper's TMC retraining budget n²·log n (at least n).
func BudgetTMC(n int) int64 {
	b := int64(float64(n*n) * tensor.Log(float64(n)))
	if b < int64(n) {
		b = int64(n)
	}
	return b
}

// BudgetGT returns the paper's GT sampling budget n·(log n)² (at least n).
func BudgetGT(n int) int {
	b := int(float64(n) * tensor.Log(float64(n)) * tensor.Log(float64(n)))
	if b < n {
		b = n
	}
	return b
}
