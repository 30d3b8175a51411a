package core

import (
	"fmt"

	"digfl/internal/tensor"
)

// EstimatorState is the serializable state of an online estimator —
// everything needed to continue observation after a crash so the resumed
// attribution is bit-identical to an uninterrupted one. It is captured by
// HFLEstimator.State / VFLEstimator.State (deep copies, safe to retain)
// and reinstalled by SetState; internal/logio persists it inside the
// checkpoint files.
type EstimatorState struct {
	// LastEpoch is the last observed epoch; observation resumes at
	// LastEpoch+1.
	LastEpoch int
	// PerEpoch and Totals mirror Attribution.
	PerEpoch [][]float64
	Totals   []float64
	// DeltaGSum is the Interactive-mode ΔG-sum recursion per participant;
	// nil in ResourceSaving mode.
	DeltaGSum [][]float64
}

func copyMatrix(m [][]float64) [][]float64 {
	if m == nil {
		return nil
	}
	out := make([][]float64, len(m))
	for i, row := range m {
		out[i] = tensor.Clone(row)
	}
	return out
}

// state snapshots the shared estimator fields.
func estimatorState(lastEpoch int, attr *Attribution, deltaGSum [][]float64) *EstimatorState {
	return &EstimatorState{
		LastEpoch: lastEpoch,
		PerEpoch:  copyMatrix(attr.PerEpoch),
		Totals:    tensor.Clone(attr.Totals),
		DeltaGSum: copyMatrix(deltaGSum),
	}
}

// validateState checks a state snapshot against an estimator shape. A
// totals-only estimator never retained per-epoch rows, so its snapshots
// carry none.
func validateState(s *EstimatorState, n, p int, interactive, totalsOnly bool) error {
	if s == nil {
		return fmt.Errorf("core: nil estimator state")
	}
	if s.LastEpoch < 0 {
		return fmt.Errorf("core: estimator state has negative epoch %d", s.LastEpoch)
	}
	if len(s.Totals) != n {
		return fmt.Errorf("core: estimator state totals have length %d, want %d", len(s.Totals), n)
	}
	if totalsOnly && len(s.PerEpoch) != 0 {
		return fmt.Errorf("core: totals-only estimator state carries %d per-epoch rows", len(s.PerEpoch))
	}
	if !totalsOnly && len(s.PerEpoch) != s.LastEpoch {
		return fmt.Errorf("core: estimator state has %d per-epoch rows for epoch %d", len(s.PerEpoch), s.LastEpoch)
	}
	for t, row := range s.PerEpoch {
		if len(row) != n {
			return fmt.Errorf("core: estimator state per-epoch row %d has length %d, want %d", t, len(row), n)
		}
	}
	if !interactive {
		if s.DeltaGSum != nil {
			return fmt.Errorf("core: resource-saving estimator state must not carry a ΔG-sum")
		}
		return nil
	}
	if len(s.DeltaGSum) != n {
		return fmt.Errorf("core: interactive estimator state has %d ΔG-sums for %d participants", len(s.DeltaGSum), n)
	}
	for i, v := range s.DeltaGSum {
		if len(v) != p {
			return fmt.Errorf("core: estimator state ΔG-sum %d has length %d, want %d", i, len(v), p)
		}
	}
	return nil
}

// State snapshots the estimator for checkpointing. The snapshot is a deep
// copy: later observations do not mutate it.
func (e *HFLEstimator) State() *EstimatorState {
	return estimatorState(e.lastEpoch, e.attr, e.deltaGSum)
}

// SetState reinstalls a snapshot captured by State, validating its shape
// against the estimator (set TotalsOnly first: a totals-only snapshot has no
// per-epoch rows); subsequent epochs observe from s.LastEpoch+1 with results
// bit-identical to an estimator that never stopped. The observation scratch
// is dropped with the old state — its duplicate stamps and φ row may describe
// epochs past the snapshot, which will be observed again.
func (e *HFLEstimator) SetState(s *EstimatorState) error {
	if err := validateState(s, e.n, e.p, e.mode == Interactive, e.TotalsOnly); err != nil {
		return err
	}
	e.lastEpoch = s.LastEpoch
	e.attr = &Attribution{PerEpoch: copyMatrix(s.PerEpoch), Totals: tensor.Clone(s.Totals),
		Epochs: s.LastEpoch, totalsOnly: e.TotalsOnly}
	e.deltaGSum = copyMatrix(s.DeltaGSum)
	e.stamp, e.row, e.last, e.reporters = nil, nil, nil, nil
	return nil
}

// State snapshots the estimator for checkpointing (deep copy).
func (e *VFLEstimator) State() *EstimatorState {
	return estimatorState(e.lastEpoch, e.attr, e.deltaGSum)
}

// SetState reinstalls a snapshot captured by State; see
// HFLEstimator.SetState.
func (e *VFLEstimator) SetState(s *EstimatorState) error {
	if err := validateState(s, len(e.blocks), e.p, e.mode == Interactive, false); err != nil {
		return err
	}
	e.lastEpoch = s.LastEpoch
	e.attr = &Attribution{PerEpoch: copyMatrix(s.PerEpoch), Totals: tensor.Clone(s.Totals)}
	e.deltaGSum = copyMatrix(s.DeltaGSum)
	return nil
}
