// Package baselines implements the HFL contribution-evaluation methods the
// paper compares DIG-FL against in Sec. V-D:
//
//   - MR — the Multi-Rounds reconstruction algorithm of Song et al. ("Profit
//     allocation for federated learning", IEEE Big Data 2019): in every round
//     the exact Shapley value is computed over the 2^n models reconstructible
//     from the uploaded gradients, then aggregated across rounds. No
//     retraining, but exponentially many validation evaluations per round.
//   - OR — Song et al.'s One-Round variant, which reconstructs coalition
//     models only from the final round's accumulated updates.
//   - IM — the influence-measure heuristic of Zhang et al. (WWW'21): each
//     participant's contribution is the projection of its local updates onto
//     the final global update direction. Cheap, not a Shapley value.
//
// All three consume the same hfl training log DIG-FL uses, so comparisons
// are apples-to-apples on a single training run.
package baselines

import (
	"fmt"

	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/shapley"
	"digfl/internal/tensor"
)

// NewValLoss builds the validation-loss oracle loss^v(θ) from a model
// prototype and validation data, evaluating on a scratch model clone.
func NewValLoss(model nn.Model, valX *tensor.Matrix, valY []float64) shapley.ValLoss {
	m := model.Clone()
	return func(theta []float64) float64 {
		m.SetParams(theta)
		return m.Loss(valX, valY)
	}
}

// exactRounds replays log through the "exact" contribution engine: per round,
// the exact Shapley value of the reconstruction game θ_t(S) = θ_{t-1} −
// (1/|S|)·Σ_{i∈S} δ_{t,i}, U_t(S) = loss^v(θ_{t-1}) − loss^v(θ_t(S)).
// Exponential in the participants: the engine refuses more than 20.
func exactRounds(log []*hfl.Epoch, valLoss shapley.ValLoss) *shapley.Report {
	eng, err := shapley.NewEngine("exact", shapley.EngineSpec{N: len(log[0].Deltas), Loss: valLoss})
	if err != nil {
		panic(fmt.Sprintf("baselines: %v", err))
	}
	for _, ep := range log {
		eng.Observe(ep)
	}
	return eng.Finalize()
}

// MRResult carries the MR estimate together with its cost counters.
type MRResult struct {
	// Shapley[i] is the aggregated per-round Shapley value.
	Shapley []float64
	// PerRound[t][i] is the exact round-t Shapley value under the
	// reconstruction utility (also the Fig. 6 per-epoch "actual" series).
	PerRound [][]float64
	// Evals counts validation-loss evaluations (2^n per round).
	Evals int64
}

// MR implements the Multi-Rounds reconstruction algorithm: the "exact"
// engine's per-round reconstruction Shapley values, summed over the rounds.
func MR(log []*hfl.Epoch, valLoss shapley.ValLoss) *MRResult {
	if len(log) == 0 {
		panic("baselines: MR needs a non-empty training log")
	}
	rep := exactRounds(log, valLoss)
	return &MRResult{Shapley: rep.Totals, PerRound: rep.PerEpoch, Evals: rep.Cost.UtilityEvals}
}

// ORResult carries the OR estimate and its cost.
type ORResult struct {
	Shapley []float64
	Evals   int64
}

// OR implements the One-Round reconstruction algorithm: coalition models are
// reconstructed from the initial model and each participant's *accumulated*
// updates over the whole training, then scored once — one round of the same
// game MR plays every epoch.
func OR(log []*hfl.Epoch, valLoss shapley.ValLoss) *ORResult {
	if len(log) == 0 {
		panic("baselines: OR needs a non-empty training log")
	}
	acc := make([][]float64, len(log[0].Deltas))
	for i := range acc {
		acc[i] = make([]float64, len(log[0].Theta))
		for _, ep := range log {
			tensor.AXPY(1, ep.Deltas[i], acc[i])
		}
	}
	rep := exactRounds([]*hfl.Epoch{{T: 1, Theta: log[0].Theta, Deltas: acc}}, valLoss)
	return &ORResult{Shapley: rep.Totals, Evals: rep.Cost.UtilityEvals}
}

// IM implements the influence-measure heuristic: the contribution of
// participant i is Σ_t ⟨δ_{t,i}, u⟩ / ‖u‖ where u = θ_0 − θ_τ is the total
// global update direction — the projection of local work onto where the
// model actually went.
func IM(log []*hfl.Epoch) []float64 {
	if len(log) == 0 {
		panic("baselines: IM needs a non-empty training log")
	}
	n := len(log[0].Deltas)
	p := len(log[0].Theta)
	// Total global movement: sum of aggregated updates.
	u := make([]float64, p)
	for _, ep := range log {
		w := ep.Weights
		for i, d := range ep.Deltas {
			wi := 1 / float64(n)
			if w != nil {
				wi = w[i]
			}
			tensor.AXPY(wi, d, u)
		}
	}
	norm := tensor.Norm2(u)
	out := make([]float64, n)
	if norm == 0 {
		return out
	}
	for _, ep := range log {
		for i, d := range ep.Deltas {
			out[i] += tensor.Dot(d, u) / norm
		}
	}
	return out
}

// MRBudget returns the number of validation evaluations MR spends on a
// τ-round, n-participant log: τ·2^n (the 2^n−1 non-empty coalitions plus the
// base loss, per round; the empty coalition costs nothing).
func MRBudget(rounds, n int) int64 {
	return int64(rounds) * (int64(1) << uint(n))
}
