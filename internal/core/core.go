// Package core implements DIG-FL, the paper's primary contribution:
// retraining-free estimation of every participant's Shapley value from the
// training log alone, for both horizontal (Sec. III) and vertical (Sec. IV)
// federated learning, plus the contribution-driven participant reweighting
// mechanism (Sec. II-F).
//
// The estimators are online: they observe each training epoch (through the
// hfl/vfl Observer hooks or by replaying a retained log) and maintain the
// per-participant impact recursion of Lemmas 1–2,
//
//	HFL: ΔG_t^{-i} = −(1/n)·δ_{t,i} − α_t·H̄(θ_{t-1})·Σ_{j<t} ΔG_j^{-i}
//	VFL: ΔG_t^{-i} = −(E−diag(v̄_i))·G_t − α_t·diag(v̄_i)·H(θ_{t-1})·Σ_{j<t} ΔG_j^{-i}
//
// from which the per-epoch contribution is φ_{t,i} = −∇loss^v(θ_{t-1})·ΔG_t^{-i}
// (Lemma 3 / Eq. 14) and the whole-training Shapley estimate is
// φ_i = Σ_t φ_{t,i} (Eq. 15).
package core

import "fmt"

// Mode selects between the paper's two HFL evaluation algorithms (and the
// analogous choice for VFL).
type Mode int

const (
	// ResourceSaving is Algorithm 2: the Hessian term is dropped, so
	// φ̂_{t,i} = (1/n)·∇loss^v(θ_{t-1})·δ_{t,i}. No extra communication or
	// participant computation — level-2 privacy.
	ResourceSaving Mode = iota
	// Interactive is Algorithm 1: participants additionally supply
	// Hessian-vector products so the second-order correction term is kept —
	// level-1 privacy, higher fidelity.
	Interactive
)

func (m Mode) String() string {
	if m == ResourceSaving {
		return "resource-saving"
	}
	return "interactive"
}

// Attribution is the output of a DIG-FL run: per-epoch contributions and
// their aggregate, the estimated Shapley values.
type Attribution struct {
	// PerEpoch[t][i] is φ_{t+1,i}. Nil when the estimator runs totals-only
	// (large-population runs that cannot afford an epochs×n matrix); use
	// Epochs for the observed-epoch count.
	PerEpoch [][]float64
	// Totals[i] is φ_i = Σ_t φ_{t,i} (Eq. 15), the Shapley estimate.
	Totals []float64
	// Epochs counts the epochs observed, whether or not their φ rows were
	// retained in PerEpoch.
	Epochs int

	totalsOnly bool
}

func newAttribution(n int) *Attribution {
	return &Attribution{Totals: make([]float64, n)}
}

// record accumulates one epoch's φ row. reporters, when non-nil, lists the
// only indices where phi can be non-zero; the totals are then updated there
// alone (everyone else would add an exact 0).
func (a *Attribution) record(phi []float64, reporters []int) {
	if !a.totalsOnly {
		a.PerEpoch = append(a.PerEpoch, phi)
	}
	a.Epochs++
	if reporters != nil {
		for _, i := range reporters {
			a.Totals[i] += phi[i]
		}
		return
	}
	for i, v := range phi {
		a.Totals[i] += v
	}
}

// Weights rectifies per-epoch contributions into aggregation weights
// (Eq. 17): ω_i = max(φ_i, 0) / Σ_j max(φ_j, 0). When every contribution is
// non-positive the uniform distribution is returned so training can proceed.
func Weights(phi []float64) []float64 {
	w := Rectify(phi)
	var sum float64
	for _, v := range w {
		sum += v
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// Rectify returns Eq. 17's numerators r_i = max(φ_i, 0), NaN counting as
// non-positive, or all ones when every φ_i ≤ 0 (see hfl.Reweighter).
func Rectify(phi []float64) []float64 {
	r := make([]float64, len(phi))
	pos := false
	for i, v := range phi {
		if v > 0 {
			r[i], pos = v, true
		}
	}
	if !pos {
		for i := range r {
			r[i] = 1
		}
	}
	return r
}

func checkDim(name string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("core: %s has length %d, want %d", name, got, want))
	}
}

// dotBlock returns Σ_{j∈[lo,hi)} a[j]·b[j].
func dotBlock(a, b []float64, lo, hi int) float64 {
	var s float64
	for j := lo; j < hi; j++ {
		s += float64(a[j] * b[j])
	}
	return s
}
