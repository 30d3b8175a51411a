package shapley

import (
	"math"
	"reflect"
	"testing"

	"digfl/internal/tensor"
)

// shiftedGame is randomGame with a non-zero V(∅).
func shiftedGame(n int, seed int64) Utility {
	u := randomGame(n, seed)
	return func(s []int) float64 { return u(s) + 0.75 }
}

func efficiencyGap(n int, u Utility, phi []float64) float64 {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	gap := u(nil) - u(all)
	for _, p := range phi {
		gap += p
	}
	return math.Abs(gap)
}

// TestTMCPaperBudgetSmallGames: at the paper's own budget a 1- or 2-player
// game spends BudgetTMC(n) on the two anchors alone; the estimate must still
// be finite and efficient (it was NaN: zero permutations, 0/0).
func TestTMCPaperBudgetSmallGames(t *testing.T) {
	for n := 1; n <= 3; n++ {
		u := shiftedGame(n, int64(70+n))
		phi, _ := TMC(n, u, TMCConfig{MaxEvals: BudgetTMC(n), RNG: tensor.NewRNG(8)})
		for i, p := range phi {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				t.Fatalf("n=%d: φ[%d] = %v", n, i, p)
			}
		}
		if gap := efficiencyGap(n, u, phi); gap > 1e-12 {
			t.Fatalf("n=%d: Σφ misses V(N) − V(∅) by %g (φ = %v)", n, gap, phi)
		}
	}
}

// TestUntruncatedScanIsEfficient: with tolerance 0 and no evaluation budget
// every permutation telescopes to V(N) − V(∅), so the mean does too.
func TestUntruncatedScanIsEfficient(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		n := 2 + int(seed%5)
		u := shiftedGame(n, seed)
		phi, _ := PermutationMC(n, u, 9, tensor.NewRNG(seed))
		if gap := efficiencyGap(n, u, phi); gap > 1e-9 {
			t.Fatalf("seed %d n=%d: Σφ misses V(N) − V(∅) by %g", seed, n, gap)
		}
	}
}

// TestExactPhiSameOnBothGames: exactPhi over a round game and over a
// Memoized game carrying the same reconstruction utility agree bit for bit,
// as do the evaluation counts up to V(∅), which only Memoized evaluates.
func TestExactPhiSameOnBothGames(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		ep := synthLog(5, 7, 1, seed)[0]
		var evals int64
		g := new(roundGame).reset(quadLoss, &roundCtx{t: 1, theta: ep.Theta, deltas: ep.Deltas}, &evals)
		base := quadLoss(ep.Theta)
		mem := NewMemoized(5, func(s []int) float64 {
			if len(s) == 0 {
				return 0
			}
			theta := tensor.Clone(ep.Theta)
			for _, i := range s {
				tensor.AXPY(-1/float64(len(s)), ep.Deltas[i], theta)
			}
			return base - quadLoss(theta)
		})
		if a, b := exactPhi(g), exactPhi(mem); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: round game %v, memoized %v", seed, a, b)
		}
		if evals != mem.Evals {
			t.Fatalf("seed %d: round game spent %d (base + 2^n−1), memoized %d (2^n)", seed, evals, mem.Evals)
		}
	}
}
