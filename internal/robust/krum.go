package robust

import (
	"fmt"
	"math"
	"sort"

	"digfl/internal/hfl"
	"digfl/internal/tensor"
)

// Krum aggregates by selecting the single local update closest to its
// peers (Blanchard et al., NeurIPS 2017): each update is scored by the sum
// of squared distances to its n−F−2 nearest neighbors, and the lowest
// score wins. Krum tolerates up to F Byzantine participants out of n when
// n ≥ 2F+3.
type Krum struct {
	// F is the number of Byzantine participants to tolerate.
	F int
}

var _ hfl.Aggregator = Krum{}

// Aggregate implements hfl.Aggregator: the selected update is returned
// as the global step. On a degraded (partial-participation) epoch with too
// few survivors for the configured F, the neighbor count shrinks to the
// largest feasible value instead of failing the round.
func (k Krum) Aggregate(ep *hfl.Epoch) ([]float64, error) {
	sel, err := krumSelect(ep, k.F, 1)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(ep.Deltas[sel[0]]))
	copy(out, ep.Deltas[sel[0]])
	return out, nil
}

// MultiKrum averages the M best-Krum-scored updates — the multi-Krum
// variant trading some robustness back for convergence speed.
type MultiKrum struct {
	// F is the number of Byzantine participants to tolerate.
	F int
	// M is the number of selected updates to average; it must satisfy
	// 0 < M ≤ n−F on full-participation epochs. M = 1 is exactly Krum.
	M int
}

var _ hfl.Aggregator = MultiKrum{}

// Aggregate implements hfl.Aggregator. Degraded epochs clamp M (and the
// neighbor count) to the survivors instead of failing the round.
func (m MultiKrum) Aggregate(ep *hfl.Epoch) ([]float64, error) {
	sel, err := krumSelect(ep, m.F, m.M)
	if err != nil {
		return nil, err
	}
	p := len(ep.Deltas[sel[0]])
	out := make([]float64, p)
	inv := 1 / float64(len(sel))
	for _, k := range sel {
		tensor.AXPY(inv, ep.Deltas[k], out)
	}
	return out, nil
}

// krumSelect scores every update and returns the positions of the m
// lowest-scored ones, best first.
func krumSelect(ep *hfl.Epoch, f, m int) ([]int, error) {
	n := len(ep.Deltas)
	if _, err := checkShapes(ep); err != nil {
		return nil, err
	}
	if f < 0 {
		return nil, fmt.Errorf("robust: negative Krum F %d", f)
	}
	if m < 1 {
		return nil, fmt.Errorf("robust: Multi-Krum M %d must be positive", m)
	}
	neighbors := n - f - 2
	if degraded := ep.Reported != nil; n < 2*f+3 || m > n-f {
		if !degraded {
			return nil, fmt.Errorf("robust: Krum F=%d M=%d infeasible for %d participants (need n ≥ 2F+3 and M ≤ n−F)", f, m, n)
		}
		// Survivor epoch: keep the round alive with the best feasible
		// parameters. With ≤ 2 survivors there are no meaningful distance
		// scores; fall back to selecting everyone (a plain mean for
		// Multi-Krum, the first survivor for Krum).
		if neighbors < 1 {
			neighbors = n - 2
		}
		if neighbors < 1 {
			neighbors = 1
		}
		if m > n {
			m = n
		}
	}
	if n == 1 {
		return []int{0}, nil
	}
	if neighbors > n-1 {
		neighbors = n - 1
	}
	// Pairwise squared distances; O(n²·p), fine at federation scale.
	scores := make([]float64, n)
	dists := make([]float64, n-1)
	for i := 0; i < n; i++ {
		dists = dists[:0]
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			var d2 float64
			for c, v := range ep.Deltas[i] {
				diff := v - ep.Deltas[j][c]
				d2 += float64(diff * diff)
			}
			dists = append(dists, d2)
		}
		sort.Float64s(dists)
		var s float64
		for _, d2 := range dists[:neighbors] {
			s += d2
		}
		// Non-finite updates must never win the selection.
		if math.IsNaN(s) {
			s = math.Inf(1)
		}
		scores[i] = s
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] < scores[order[b]] })
	return order[:m], nil
}

// NormBound clips every update to an L2 norm of at most MaxNorm and
// averages the results — the simplest magnitude defense, neutralizing
// scaled model poisoning without touching update directions.
type NormBound struct {
	// MaxNorm is the per-update L2 ceiling; it must be positive.
	MaxNorm float64
}

// NormBound is an Aggregator, so it runs on buffered rounds only; it has no
// streamed equivalent.
var _ hfl.Aggregator = NormBound{}

// Aggregate implements hfl.Aggregator. The epoch's deltas are not
// mutated; clipping happens on the accumulation.
func (b NormBound) Aggregate(ep *hfl.Epoch) ([]float64, error) {
	if b.MaxNorm <= 0 {
		return nil, fmt.Errorf("robust: NormBound MaxNorm %v must be positive", b.MaxNorm)
	}
	p, err := checkShapes(ep)
	if err != nil {
		return nil, err
	}
	out := make([]float64, p)
	inv := 1 / float64(len(ep.Deltas))
	for _, d := range ep.Deltas {
		norm := math.Sqrt(tensor.Dot(d, d))
		scale := inv
		if norm > b.MaxNorm {
			scale = inv * b.MaxNorm / norm
		}
		tensor.AXPY(scale, d, out)
	}
	return out, nil
}
