package shapley

import (
	"math"
	"testing"
)

// busyGame is a utility with a deliberate compute cost per evaluation,
// standing in for the federated retraining the experiments back utilities
// with (each real evaluation is a full training run).
func busyGame(work int) Utility {
	return func(s []int) float64 {
		acc := float64(len(s))
		for i := 0; i < work; i++ {
			acc += math.Sin(acc)
		}
		return acc
	}
}

// BenchmarkExactSweep times the coalition enumeration on a 10-participant
// game (1024 coalition evaluations).
func BenchmarkExactSweep(b *testing.B) {
	u := busyGame(2000)
	for i := 0; i < b.N; i++ {
		Exact(10, u)
	}
}
