package shapley

import (
	"fmt"
	"math"
	"math/bits"

	"digfl/internal/tensor"
)

// game is a coalition game as the three kernels below see it: a player
// count, a memoized value per coalition bitmask, and the running count of
// distinct evaluations spent. Memoized (retraining utilities, V(∅) evaluated
// and possibly non-zero) and roundGame (reconstruction utilities, V(∅) = 0
// by construction and free) are the two implementations; every exported
// estimator and every engine is a caller of exactPhi, permScan or gtPhi.
type game interface {
	players() int
	value(mask uint64) float64
	spent() int64
}

// exactPhi computes the exact Shapley value (Eq. 1) by enumerating all 2^n
// coalitions in mask order — the closed form every sampling estimator
// degrades to when its truncation knobs are disabled. n must be at most 20
// to bound memory and time.
func exactPhi(g game) []float64 {
	n := g.players()
	if n > 20 {
		panic(fmt.Sprintf("shapley: exact enumeration supports 1..20 players, got %d", n))
	}
	// w[s] = s!·(n−s−1)!/n! computed in log space for stability.
	w := make([]float64, n)
	for s := 0; s < n; s++ {
		w[s] = tensor.Exp(lnFact(s) + lnFact(n-s-1) - lnFact(n))
	}
	phi := make([]float64, n)
	total := uint64(1) << uint(n)
	for mask := uint64(0); mask < total; mask++ {
		vS := g.value(mask)
		size := bits.OnesCount64(mask)
		for i := 0; i < n; i++ {
			bit := uint64(1) << uint(i)
			if mask&bit != 0 {
				continue
			}
			phi[i] += float64(w[size] * (g.value(mask|bit) - vS))
		}
	}
	return phi
}

func lnFact(k int) float64 {
	var s float64
	for i := 2; i <= k; i++ {
		s += tensor.Log(float64(i))
	}
	return s
}

// noBudget is permScan's budget for callers that stop on a permutation count
// alone.
const noBudget = math.MaxInt64

// atMost is the fixed-count stop rule: draw permutations until k are done.
func atMost(k int) func(int, []float64) bool {
	return func(count int, _ []float64) bool { return count < k }
}

// permScan is the one truncated permutation scan (Ghorbani & Zou's TMC inner
// loop) behind TMC, PermutationMC and the tmc, gtg and dpvs engines. It
// anchors V(∅) and V(N), then draws permutations from rng and accumulates
// marginals along each, truncating a scan once the running coalition is
// within tol·|V(N) − V(∅)| of V(N) (the remaining marginals count as zero;
// tol ≤ 0 never truncates). The estimate is the mean over the permutations
// drawn.
//
// Callers differ only in when to stop. budget bounds the distinct
// evaluations spent after the two anchors: once it is reached the current
// scan is cut short and no further permutation starts. more(count, sum) is
// asked before every permutation after the first whether to draw another.
// The first permutation always completes, so the estimate is finite and
// efficient whatever the budget; a one-player game needs no sampling at all.
func permScan(g game, rng *tensor.RNG, tol float64, budget int64, more func(count int, sum []float64) bool) []float64 {
	n := g.players()
	vEmpty := g.value(0)
	vFull := g.value(uint64(1)<<uint(n) - 1)
	if n == 1 {
		return []float64{vFull - vEmpty}
	}
	span := math.Abs(vFull - vEmpty)
	start := g.spent()
	sum := make([]float64, n)
	count := 0
	for count == 0 || (g.spent()-start < budget && more(count, sum)) {
		perm := rng.Perm(n)
		count++
		var mask uint64
		prev := vEmpty
		for _, i := range perm {
			if tol > 0 && math.Abs(vFull-prev) < tol*span {
				break
			}
			mask |= 1 << uint(i)
			v := g.value(mask)
			sum[i] += v - prev
			prev = v
			if count > 1 && g.spent()-start >= budget {
				break
			}
		}
	}
	phi := make([]float64, n)
	for i := range phi {
		phi[i] = sum[i] / float64(count)
	}
	return phi
}

// gtPhi is the group-testing estimator (Jia et al., AISTATS'19): it draws
// `samples` coalitions with the harmonic size distribution q(k) ∝ 1/k +
// 1/(n−k), estimates every pairwise Shapley difference φ_i − φ_j from the
// correlation of membership indicators with utility, and projects onto the
// efficiency constraint Σφ_i = V(N) − V(∅).
func gtPhi(g game, samples int, rng *tensor.RNG) []float64 {
	n := g.players()
	vEmpty := g.value(0)
	vFull := g.value(uint64(1)<<uint(n) - 1)
	if n == 1 {
		return []float64{vFull - vEmpty}
	}
	// q[k] for k = 1..n−1, with Z = Σ numerators.
	q := make([]float64, n)
	var z float64
	for k := 1; k <= n-1; k++ {
		q[k] = 1/float64(k) + 1/float64(n-k)
		z += q[k]
	}
	for k := 1; k <= n-1; k++ {
		q[k] /= z
	}
	// Accumulate Σ_t U(S_t)·(β_ti − β_tj) in diff[i][j].
	diff := make([][]float64, n)
	for i := range diff {
		diff[i] = make([]float64, n)
	}
	for t := 0; t < samples; t++ {
		k := sampleSize(q, rng)
		var mask uint64
		for _, i := range rng.Perm(n)[:k] {
			mask |= 1 << uint(i)
		}
		val := g.value(mask)
		for i := 0; i < n; i++ {
			bi := 0.0
			if mask&(1<<uint(i)) != 0 {
				bi = 1
			}
			for j := 0; j < n; j++ {
				bj := 0.0
				if mask&(1<<uint(j)) != 0 {
					bj = 1
				}
				diff[i][j] += float64(val * (bi - bj))
			}
		}
	}
	// u_ij ≈ Z/T · Σ_t U(S_t)(β_ti − β_tj) estimates φ_i − φ_j (Jia et al.
	// Lemma 2); the least-squares projection with the efficiency constraint
	// is φ_i = (V(N) − V(∅))/n + (1/n)·Σ_j u_ij.
	scale := z / float64(samples)
	total := vFull - vEmpty
	phi := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += float64(scale * diff[i][j])
		}
		phi[i] = total/float64(n) + s/float64(n)
	}
	return phi
}

func sampleSize(q []float64, rng *tensor.RNG) int {
	r := rng.Float64()
	acc := 0.0
	for k := 1; k < len(q); k++ {
		acc += q[k]
		if r <= acc {
			return k
		}
	}
	return len(q) - 1
}
