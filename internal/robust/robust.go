// Package robust implements the server-side defenses of the adversarial
// runtime: classical Byzantine-robust aggregation rules (coordinate-wise
// median, trimmed mean, Krum/Multi-Krum, norm bounding) as hfl.Aggregator
// plugins, a pre-aggregation update screen (shape and finiteness checks,
// median-based norm clipping), and a contribution-guided quarantine policy
// that turns the live DIG-FL φ stream into a ban list. The aggregation
// rules are the natural comparison points for the DIG-FL reweight
// mechanism: both defend against corrupted participants, but the robust
// rules assume an honest majority (breakdown point 1/2), while DIG-FL
// leans on the server's validation set and keeps working when 80%+ of the
// federation is low-quality (the paper's Fig. 7 regime). The ablation
// benchmarks at the repository root measure exactly that contrast.
//
// Every aggregator implements the error-returning hfl.Aggregator
// interface: configuration and shape failures surface as errors through
// the trainer's RunContext contract instead of panicking mid-epoch.
package robust

import (
	"fmt"
	"sort"

	"digfl/internal/hfl"
)

// Median aggregates local updates by coordinate-wise median.
type Median struct{}

var _ hfl.Aggregator = Median{}

// Aggregate implements hfl.Aggregator.
func (Median) Aggregate(ep *hfl.Epoch) ([]float64, error) {
	return aggregate(ep, func(vals []float64) float64 {
		sort.Float64s(vals)
		n := len(vals)
		if n%2 == 1 {
			return vals[n/2]
		}
		return (vals[n/2-1] + vals[n/2]) / 2
	})
}

// TrimmedMean aggregates by coordinate-wise mean after discarding the Trim
// largest and Trim smallest values.
type TrimmedMean struct {
	// Trim is the per-side trim count; 2·Trim must be smaller than the
	// participant count.
	Trim int
}

var _ hfl.Aggregator = TrimmedMean{}

// NewTrimmedMean validates the trim count at construction — misconfiguration
// surfaces before training starts instead of as an error epochs in. The
// participant count is a per-epoch property (dropouts shrink it), so it is
// checked at aggregation time: full-participation epochs still reject an
// oversized trim, degraded epochs degrade gracefully (see Aggregate).
func NewTrimmedMean(trim int) (TrimmedMean, error) {
	if trim < 0 {
		return TrimmedMean{}, fmt.Errorf("robust: negative trim %d", trim)
	}
	return TrimmedMean{Trim: trim}, nil
}

// Aggregate implements hfl.Aggregator. On a degraded
// (partial-participation) epoch whose survivor count is too small for the
// configured trim, the per-side trim shrinks to the largest feasible value
// — a transient dropout must not fail a run whose configuration is valid
// for the full federation.
func (t TrimmedMean) Aggregate(ep *hfl.Epoch) ([]float64, error) {
	trim := t.Trim
	if trim < 0 || 2*trim >= len(ep.Deltas) {
		if ep.Reported == nil && len(ep.Deltas) > 0 {
			return nil, fmt.Errorf("robust: trim %d invalid for %d participants", trim, len(ep.Deltas))
		}
		if trim < 0 {
			trim = 0
		}
		if m := (len(ep.Deltas) - 1) / 2; trim > m {
			trim = m
		}
	}
	return aggregate(ep, func(vals []float64) float64 {
		sort.Float64s(vals)
		kept := vals[trim : len(vals)-trim]
		var s float64
		for _, v := range kept {
			s += v
		}
		return s / float64(len(kept))
	})
}

// checkShapes validates that the epoch has updates and that they form a
// rectangular matrix, returning the parameter count.
func checkShapes(ep *hfl.Epoch) (int, error) {
	if len(ep.Deltas) == 0 {
		return 0, fmt.Errorf("robust: no participant updates")
	}
	p := len(ep.Deltas[0])
	for k, d := range ep.Deltas {
		if len(d) != p {
			return 0, fmt.Errorf("robust: ragged deltas: update %d has %d params, update 0 has %d", k, len(d), p)
		}
	}
	return p, nil
}

// aggregate applies a per-coordinate statistic over the participants'
// updates. The statistic receives a scratch slice it may reorder.
func aggregate(ep *hfl.Epoch, stat func([]float64) float64) ([]float64, error) {
	p, err := checkShapes(ep)
	if err != nil {
		return nil, err
	}
	out := make([]float64, p)
	scratch := make([]float64, len(ep.Deltas))
	for j := 0; j < p; j++ {
		for k, d := range ep.Deltas {
			scratch[k] = d[j]
		}
		out[j] = stat(scratch)
	}
	return out, nil
}
