package experiments

import (
	"fmt"
	"io"

	"digfl/internal/core"
	"digfl/internal/dataset"
	"digfl/internal/metrics"
	"digfl/internal/shapley"
	"digfl/internal/vfl"
)

// VFLActualRow is one Table III row.
type VFLActualRow struct {
	Model   string
	Dataset string
	N       int
	PCC     float64
	// TDIGFL and TActual are the wall-clock seconds of DIG-FL and of the
	// 2^n-retraining actual Shapley value.
	TDIGFL  float64
	TActual float64
	// Retrains is the retraining count behind TActual.
	Retrains int64
	// Estimated and Actual are the per-party values (scatter data, Fig. 3's
	// VFL analogue).
	Estimated []float64
	Actual    []float64
}

// VFLActualResult aggregates the Table III reproduction.
type VFLActualResult struct {
	Rows []VFLActualRow
}

// tableIIIPresets shrinks the Table III workloads so the 2^n retraining
// ground truth stays tractable: rows are capped and, at reduced scale, the
// party count too (the paper's n=13..15 settings need 8k–32k retrainings).
func tableIIIPresets(o Opts) []dataset.VFLPreset {
	dataScale := 0.05 * o.Scale
	presets := dataset.VFLPresets(dataScale)
	if o.Scale < 1 {
		for i := range presets {
			if presets[i].Parties > 8 {
				presets[i].Parties = 8
			}
		}
	}
	return presets
}

// VFLvsActual reproduces Table III: DIG-FL's estimate against the actual
// Shapley value for all ten vertical datasets, with time costs.
func VFLvsActual(o Opts) *VFLActualResult {
	o.validate()
	res := &VFLActualResult{}
	for _, preset := range tableIIIPresets(o) {
		prob, cfg := buildVFL(preset, o)
		tr := &vfl.Trainer{Problem: prob, Cfg: cfg}

		sw := metrics.NewStopwatch()
		run := tr.Run()
		attr := core.EstimateVFL(run.Log, prob.Blocks, core.ResourceSaving, nil)
		tDIGFL := sw.Elapsed().Seconds()

		sw = metrics.NewStopwatch()
		counter := &shapley.Counter{U: tr.Utility}
		actual := shapley.Exact(preset.Parties, counter.Call)
		tActual := sw.Elapsed().Seconds()

		res.Rows = append(res.Rows, VFLActualRow{
			Model:   prob.Kind.String(),
			Dataset: preset.Config.Name,
			N:       preset.Parties,
			PCC:     metrics.Pearson(attr.Totals, actual),
			TDIGFL:  tDIGFL, TActual: tActual,
			Retrains:  counter.Evals,
			Estimated: attr.Totals,
			Actual:    actual,
		})
	}
	return res
}

// Render writes the Table III rows.
func (r *VFLActualResult) Render(w io.Writer) {
	writeHeader(w, "Table III — DIG-FL vs actual Shapley (VFL)")
	fmt.Fprintf(w, "%-12s %-14s %3s %7s %12s %12s %10s\n",
		"Model", "Dataset", "n", "PCC", "T_DIG-FL(s)", "T_Actual(s)", "retrains")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s %-14s %3d %7.3f %12.4f %12.3f %10d\n",
			row.Model, row.Dataset, row.N, row.PCC, row.TDIGFL, row.TActual, row.Retrains)
	}
}

// MeanPCC returns the average PCC for rows of the given model kind ("" = all).
func (r *VFLActualResult) MeanPCC(model string) float64 {
	var sum float64
	var n int
	for _, row := range r.Rows {
		if model == "" || row.Model == model {
			sum += row.PCC
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
