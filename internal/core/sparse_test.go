package core

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"digfl/internal/hfl"
	"digfl/internal/sampling"
	"digfl/internal/tensor"
)

// sampledEpochs builds streamed epochs over an n-participant population:
// epoch t reports a seeded cohort of the given size with full-precision dot
// products. Every fifth epoch is all-dropped (empty Reported) and every
// seventh reports everyone without naming them (Reported nil).
func sampledEpochs(n, p, cohort, epochs int) []*hfl.Epoch {
	pop := make([]int, n)
	for i := range pop {
		pop[i] = i
	}
	smp := sampling.MustNew(sampling.Config{Seed: 11, Size: cohort})
	rng := tensor.NewRNG(29)
	vg := rng.NormalVec(p, 0, 1)
	log := make([]*hfl.Epoch, epochs)
	for t := range log {
		ep := &hfl.Epoch{T: t + 1, ValGrad: vg, Reported: smp.Cohort(t+1, pop)}
		switch {
		case (t+1)%5 == 0:
			ep.Reported = []int{}
		case (t+1)%7 == 0:
			ep.Reported = nil
		}
		m := len(ep.Reported)
		if ep.Reported == nil {
			m = n
		}
		ep.DeltaDots = rng.NormalVec(m, 0, 1e-3)
		log[t] = ep
	}
	return log
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestTotalsOnlySampledMatchesRetained: a TotalsOnly estimator on sampled
// epochs does O(cohort) work into a reused row, and must still hand back —
// and accumulate — exactly what the retaining estimator does: the same row
// bits at every global index (so last epoch's reporters are back at zero),
// the same totals. Both estimators' LastRow view names that row and the
// mapping it was observed under.
func TestTotalsOnlySampledMatchesRetained(t *testing.T) {
	const n, p = 500, 6
	full := NewHFLEstimator(n, p, ResourceSaving, nil)
	slim := NewHFLEstimator(n, p, ResourceSaving, nil)
	slim.TotalsOnly = true
	for _, ep := range sampledEpochs(n, p, 16, 24) {
		want, got := full.Observe(ep), slim.Observe(ep)
		if !bitsEqual(got, want) {
			t.Fatalf("epoch %d: totals-only row differs from the retained row", ep.T)
		}
		if !bitsEqual(slim.Attribution().Totals, full.Attribution().Totals) {
			t.Fatalf("epoch %d: totals differ", ep.T)
		}
		for _, e := range []*HFLEstimator{full, slim} {
			at, phi, reporters, dense := e.LastRow()
			if at != ep.T || !bitsEqual(phi, want) || dense != (ep.Reported == nil) || !slices.Equal(reporters, ep.Reported) {
				t.Fatalf("epoch %d: LastRow = epoch %d, dense %v, reporters %v; the epoch reported %v",
					ep.T, at, dense, reporters, ep.Reported)
			}
		}
	}
	if slim.Attribution().PerEpoch != nil || slim.Attribution().Epochs != 24 {
		t.Fatalf("totals-only attribution: %d rows, %d epochs", len(slim.Attribution().PerEpoch), slim.Attribution().Epochs)
	}
}

// TestTotalsOnlyRestoreReobserves: SetState rewinds a sampled TotalsOnly
// estimator to epoch T after it already observed T+1; re-observing T+1 must
// not trip the duplicate check on stamps the abandoned observation left, nor
// see its φ in the reused row, and must end bit-identical to an estimator
// that never stopped.
func TestTotalsOnlyRestoreReobserves(t *testing.T) {
	const n, p, at = 300, 4, 3
	log := sampledEpochs(n, p, 12, 9)
	newEst := func() *HFLEstimator {
		e := NewHFLEstimator(n, p, ResourceSaving, nil)
		e.TotalsOnly = true
		return e
	}
	ref := newEst()
	for _, ep := range log {
		ref.Observe(ep)
	}

	est := newEst()
	for _, ep := range log[:at] {
		est.Observe(ep)
	}
	snap := est.State()
	if snap.PerEpoch != nil {
		t.Fatal("totals-only snapshot carries per-epoch rows")
	}
	est.Observe(log[at])
	if err := est.SetState(snap); err != nil {
		t.Fatalf("restoring a totals-only snapshot: %v", err)
	}
	if got := est.Attribution().Epochs; got != at {
		t.Fatalf("restored attribution counts %d epochs, want %d", got, at)
	}
	for _, ep := range log[at:] {
		got := est.Observe(ep)
		for i, v := range got {
			if ep.Reported != nil && v != 0 && !slices.Contains(ep.Reported, i) {
				t.Fatalf("epoch %d: stale φ[%d]=%v outside the reporters", ep.T, i, v)
			}
		}
	}
	if !bitsEqual(est.Attribution().Totals, ref.Attribution().Totals) {
		t.Fatal("restored totals differ from the uninterrupted run")
	}
	if est.Attribution().Epochs != len(log) {
		t.Fatalf("restored run counted %d epochs, want %d", est.Attribution().Epochs, len(log))
	}

	// A retaining estimator still refuses a snapshot without its rows.
	if err := NewHFLEstimator(n, p, ResourceSaving, nil).SetState(snap); err == nil {
		t.Fatal("retaining estimator accepted a totals-only snapshot")
	}
}

// TestRejectedMappingLeavesNoTrace: a mapping refused half-way (duplicate or
// out of range) must not poison the stamps — the same epoch observes cleanly
// afterwards.
func TestRejectedMappingLeavesNoTrace(t *testing.T) {
	e := NewHFLEstimator(6, 2, ResourceSaving, nil)
	e.TotalsOnly = true
	vg := []float64{1, 1}
	for _, bad := range [][]int{{1, 4, 1}, {2, 3, 9}, {0, -1, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("mapping %v accepted", bad)
				}
			}()
			e.Observe(&hfl.Epoch{T: 1, ValGrad: vg, Reported: bad, DeltaDots: make([]float64, len(bad))})
		}()
	}
	phi := e.Observe(&hfl.Epoch{T: 1, ValGrad: vg, Reported: []int{1, 2, 4}, DeltaDots: []float64{3, 6, 9}})
	if want := []float64{0, 1, 2, 0, 3, 0}; !bitsEqual(phi, want) {
		t.Fatalf("φ after rejected mappings = %v, want %v", phi, want)
	}
}

// TestTotalsOnlyObserveAllocsBoundedByCohort is the estimator's half of the
// 100k scaling gate (next to sampling's TestCohortBoundedScratch): observing
// a streamed epoch that samples 64 of 100 000 participants on a TotalsOnly
// estimator allocates nothing that grows with the population.
func TestTotalsOnlyObserveAllocsBoundedByCohort(t *testing.T) {
	const n, p, cohort = 100_000, 8, 64
	log := sampledEpochs(n, p, cohort, 44)
	var sampled []*hfl.Epoch
	for _, ep := range log {
		if len(ep.Reported) == cohort {
			sampled = append(sampled, ep)
		}
	}
	e := NewHFLEstimator(n, p, ResourceSaving, nil)
	e.TotalsOnly = true
	next := 0
	observe := func() {
		ep := *sampled[next]
		next++
		ep.T = next
		e.Observe(&ep)
	}
	observe() // first use allocates the estimator-owned scratch, once

	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, observe)
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes runs+1 calls.
	perObserve := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	if allocs > 8 {
		t.Errorf("Observe performed %v allocations on a 64-of-100k epoch; want a handful, none per participant", allocs)
	}
	if perObserve > 4096 {
		t.Errorf("Observe allocated %.0f B on a 64-of-100k epoch; a population-sized row would be %d B", perObserve, 8*n)
	}
}

// BenchmarkObserveDots100k times Observe on a streamed 64-of-100 000 epoch,
// TotalsOnly — the reference cell's per-round estimator cost. The totals
// are checked against a term-by-term accumulation afterwards.
func BenchmarkObserveDots100k(b *testing.B) {
	const n, p, cohort = 100_000, 2000, 64
	pop := make([]int, n)
	for i := range pop {
		pop[i] = i
	}
	reported := sampling.MustNew(sampling.Config{Seed: 3, Size: cohort}).Cohort(1, pop)
	rng := tensor.NewRNG(5)
	ep := &hfl.Epoch{ValGrad: rng.NormalVec(p, 0, 1), Reported: reported, DeltaDots: rng.NormalVec(cohort, 0, 1)}
	e := NewHFLEstimator(n, p, ResourceSaving, nil)
	e.TotalsOnly = true
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ep.T++
		sink += e.Observe(ep)[reported[0]]
	}
	b.StopTimer()
	want := make([]float64, n)
	for i := 0; i < b.N; i++ {
		for k, g := range reported {
			want[g] += float64((1 / float64(cohort)) * ep.DeltaDots[k])
		}
	}
	if !bitsEqual(e.Attribution().Totals, want) || math.IsNaN(sink) {
		b.Fatal("totals differ from the term-by-term reference")
	}
}

// BenchmarkObserveDeltas64x2000 is a buffered round's observe: 64 raw deltas
// of the reference cell's model size, resource-saving, four to a DotRows pass.
func BenchmarkObserveDeltas64x2000(b *testing.B) {
	const n, p = 64, 2000
	rng := tensor.NewRNG(7)
	ep := &hfl.Epoch{T: 1, ValGrad: rng.NormalVec(p, 0, 1)}
	want := make([]float64, n)
	for k := 0; k < n; k++ {
		ep.Deltas = append(ep.Deltas, rng.NormalVec(p, 0, 1e-3))
		want[k] = (1 / float64(n)) * refDot(ep.ValGrad, ep.Deltas[k])
	}
	e := NewHFLEstimator(n, p, ResourceSaving, nil)
	e.TotalsOnly = true
	if got := e.Observe(ep); !bitsEqual(got, want) {
		b.Fatal("φ differs from the per-delta reference")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ep.T++
		e.Observe(ep)
	}
}
