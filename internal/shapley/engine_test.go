package shapley

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"digfl/internal/hfl"
	"digfl/internal/tensor"
)

// quadLoss is a deterministic stand-in for the server's validation loss:
// a strictly convex quadratic whose minimizer is off-origin, so every
// coalition's reconstruction moves the loss by a distinct amount.
func quadLoss(theta []float64) float64 {
	var s float64
	for j, v := range theta {
		d := v - float64(0.1*float64(j%5)) - 0.05
		s += float64(d * d)
	}
	return s
}

// synthLog builds a deterministic n-participant training log: participant
// i's updates are drawn at scale (i+1)/n, so contributions are graded and
// rankings are stable.
func synthLog(n, d, epochs int, seed int64) []*hfl.Epoch {
	rng := tensor.NewRNG(seed)
	theta := make([]float64, d)
	log := make([]*hfl.Epoch, 0, epochs)
	for t := 1; t <= epochs; t++ {
		deltas := make([][]float64, n)
		mean := make([]float64, d)
		for i := range deltas {
			deltas[i] = rng.NormalVec(d, 0, 0.1*float64(i+1)/float64(n))
			for j, v := range deltas[i] {
				mean[j] += v / float64(n)
			}
		}
		log = append(log, &hfl.Epoch{T: t, Theta: append([]float64(nil), theta...), Deltas: deltas})
		for j := range theta {
			theta[j] -= mean[j]
		}
	}
	return log
}

func feed(t *testing.T, name string, spec EngineSpec, log []*hfl.Epoch) *Report {
	t.Helper()
	eng, err := NewEngine(name, spec)
	if err != nil {
		t.Fatalf("NewEngine(%s): %v", name, err)
	}
	for _, ep := range log {
		eng.Observe(ep)
	}
	return eng.Finalize()
}

// specs returns one spec per registered engine, all sharing (n, loss, seed).
func specs(n int, seed int64) map[string]EngineSpec {
	base := EngineSpec{N: n, Loss: quadLoss, Seed: seed}
	out := map[string]EngineSpec{}
	for _, name := range Engines() {
		out[name] = base
	}
	return out
}

func TestEngineRegistry(t *testing.T) {
	want := []string{"dpvs", "exact", "gt", "gtg", "tmc"}
	if got := Engines(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Engines() = %v, want %v", got, want)
	}
	if _, err := NewEngine("nope", EngineSpec{N: 3, Loss: quadLoss}); err == nil || !strings.Contains(err.Error(), "exact") {
		t.Fatalf("unknown engine error should list the registry, got %v", err)
	}
	if _, err := NewEngine("exact", EngineSpec{N: 0, Loss: quadLoss}); err == nil {
		t.Fatal("invalid spec should be rejected")
	}
	if _, err := NewEngine("exact", EngineSpec{N: 3}); err == nil {
		t.Fatal("nil loss should be rejected")
	}
}

// TestTruncationDisabledMatchesExact: GTG and DPVS with every truncation
// knob zeroed must reproduce the exact engine's φ to 1e-9 on N≤8 — the
// guided/pruned estimators degrade to closed-form round enumeration.
func TestTruncationDisabledMatchesExact(t *testing.T) {
	for _, n := range []int{2, 5, 8} {
		log := synthLog(n, 6, 5, int64(n))
		spec := EngineSpec{N: n, Loss: quadLoss, Seed: 9}
		ref := feed(t, "exact", spec, log)

		gtgSpec := spec
		gtgSpec.GTG = &GTGConfig{}
		dpvsSpec := spec
		dpvsSpec.DPVS = &DPVSConfig{}
		for name, rep := range map[string]*Report{
			"gtg":  feed(t, "gtg", gtgSpec, log),
			"dpvs": feed(t, "dpvs", dpvsSpec, log),
		} {
			for tt := range ref.PerEpoch {
				for i := range ref.PerEpoch[tt] {
					if d := math.Abs(ref.PerEpoch[tt][i] - rep.PerEpoch[tt][i]); d > 1e-9 {
						t.Fatalf("n=%d %s: φ[%d][%d] off by %g", n, name, tt, i, d)
					}
				}
			}
			for i := range ref.Totals {
				if d := math.Abs(ref.Totals[i] - rep.Totals[i]); d > 1e-9 {
					t.Fatalf("n=%d %s: total[%d] off by %g", n, name, i, d)
				}
			}
		}
	}
}

// TestEngineDeterminism: every engine is bit-identical across reruns of the
// same spec, for several seeds.
func TestEngineDeterminism(t *testing.T) {
	log := synthLog(5, 6, 4, 17)
	for _, seed := range []int64{1, 2, 3} {
		for name, spec := range specs(5, seed) {
			a := feed(t, name, spec, log)
			b := feed(t, name, spec, log)
			if !reflect.DeepEqual(a.PerEpoch, b.PerEpoch) || !reflect.DeepEqual(a.Totals, b.Totals) {
				t.Fatalf("engine %s seed %d: rerun differs", name, seed)
			}
			if a.Cost.UtilityEvals != b.Cost.UtilityEvals {
				t.Fatalf("engine %s seed %d: eval counts differ", name, seed)
			}
		}
	}
}

// TestEngineResumeBitIdentical: snapshotting with State at an epoch
// boundary and restoring into a fresh engine must reproduce the
// uninterrupted run bit for bit — no permutation draws replayed or skipped
// — for every engine and several seeds.
func TestEngineResumeBitIdentical(t *testing.T) {
	log := synthLog(6, 6, 6, 23)
	for _, seed := range []int64{4, 5, 6} {
		for name, spec := range specs(6, seed) {
			full := feed(t, name, spec, log)

			first, err := NewEngine(name, spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, ep := range log[:3] {
				first.Observe(ep)
			}
			st := first.State()

			resumed, err := NewEngine(name, spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := resumed.SetState(st); err != nil {
				t.Fatalf("engine %s: SetState: %v", name, err)
			}
			for _, ep := range log[3:] {
				resumed.Observe(ep)
			}
			got := resumed.Finalize()
			if !reflect.DeepEqual(full.PerEpoch, got.PerEpoch) {
				t.Fatalf("engine %s seed %d: resumed φ matrix differs", name, seed)
			}
			if !reflect.DeepEqual(full.Totals, got.Totals) {
				t.Fatalf("engine %s seed %d: resumed totals differ", name, seed)
			}
			if full.Cost.UtilityEvals != got.Cost.UtilityEvals {
				t.Fatalf("engine %s seed %d: resumed evals %d vs %d",
					name, seed, got.Cost.UtilityEvals, full.Cost.UtilityEvals)
			}
			if full.Epochs != got.Epochs {
				t.Fatalf("engine %s seed %d: resumed epochs %d vs %d", name, seed, got.Epochs, full.Epochs)
			}
		}
	}
}

// TestReportedZeroRows: an epoch whose Reported names a strict subset must
// zero the absent participants' entries for that round (Lemma 3) while the
// survivors still split the round's reconstruction utility.
func TestReportedZeroRows(t *testing.T) {
	log := synthLog(4, 6, 3, 31)
	// Degrade epoch 2 to survivors {0, 2}.
	log[1].Reported = []int{0, 2}
	log[1].Deltas = [][]float64{log[1].Deltas[0], log[1].Deltas[2]}
	for name, spec := range specs(4, 7) {
		rep := feed(t, name, spec, log)
		if rep.PerEpoch[1][1] != 0 || rep.PerEpoch[1][3] != 0 {
			t.Fatalf("engine %s: non-reporting participants scored non-zero: %v", name, rep.PerEpoch[1])
		}
		if rep.PerEpoch[1][0] == 0 && rep.PerEpoch[1][2] == 0 {
			t.Fatalf("engine %s: surviving participants both scored zero", name)
		}
	}
}

// TestAllDroppedEpochZeroRow: an epoch with no reporting participants
// records an all-zero row and costs nothing.
func TestAllDroppedEpochZeroRow(t *testing.T) {
	log := synthLog(3, 4, 2, 37)
	log[1].Reported = []int{}
	log[1].Deltas = nil
	rep := feed(t, "exact", EngineSpec{N: 3, Loss: quadLoss}, log)
	for i, v := range rep.PerEpoch[1] {
		if v != 0 {
			t.Fatalf("all-dropped epoch scored participant %d: %v", i, v)
		}
	}
}

// TestEngineObservePanics: out-of-order epochs, streamed epochs, and
// malformed Reported mappings are programmer errors and panic.
func TestEngineObservePanics(t *testing.T) {
	log := synthLog(3, 4, 2, 41)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mk := func() Engine {
		eng, err := NewEngine("exact", EngineSpec{N: 3, Loss: quadLoss})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	mustPanic("out-of-order", func() { mk().Observe(log[1]) })
	mustPanic("streamed", func() {
		ep := &hfl.Epoch{T: 1, Theta: log[0].Theta, DeltaDots: []float64{1, 2, 3}}
		mk().Observe(ep)
	})
	mustPanic("missing-mapping", func() {
		ep := &hfl.Epoch{T: 1, Theta: log[0].Theta, Deltas: log[0].Deltas[:2]}
		mk().Observe(ep)
	})
	mustPanic("dup-reported", func() {
		ep := &hfl.Epoch{T: 1, Theta: log[0].Theta, Deltas: log[0].Deltas[:2], Reported: []int{1, 1}}
		mk().Observe(ep)
	})
	mustPanic("out-of-range-reported", func() {
		ep := &hfl.Epoch{T: 1, Theta: log[0].Theta, Deltas: log[0].Deltas[:1], Reported: []int{5}}
		mk().Observe(ep)
	})
}

// TestSetStateValidation: restoring rejects mismatched engines and
// malformed snapshots.
func TestSetStateValidation(t *testing.T) {
	spec := EngineSpec{N: 3, Loss: quadLoss}
	exact, _ := NewEngine("exact", spec)
	tmc, _ := NewEngine("tmc", spec)
	if err := exact.SetState(tmc.State()); err == nil {
		t.Fatal("cross-engine state restore should fail")
	}
	if err := exact.SetState(nil); err == nil {
		t.Fatal("nil state should fail")
	}
	st := tmc.State()
	st.Totals = []float64{1}
	if err := tmc.SetState(st); err == nil {
		t.Fatal("wrong totals length should fail")
	}
	st2 := tmc.State()
	st2.PerEpoch = [][]float64{{1, 2, 3}}
	if err := tmc.SetState(st2); err == nil {
		t.Fatal("row count / last-epoch mismatch should fail")
	}
	// GTG and DPVS validate their aux payloads.
	gtg, _ := NewEngine("gtg", spec)
	gst := gtg.State()
	gst.Aux = []float64{1, 2, 3}
	if err := gtg.SetState(gst); err == nil {
		t.Fatal("oversized gtg aux should fail")
	}
	dpvs, _ := NewEngine("dpvs", spec)
	dst := dpvs.State()
	dst.Aux = []float64{1}
	if err := dpvs.SetState(dst); err == nil {
		t.Fatal("truncated dpvs aux should fail")
	}
}

// TestFinalizeIdempotentSnapshot: Finalize mid-run returns a deep copy
// unaffected by later observations.
func TestFinalizeIdempotentSnapshot(t *testing.T) {
	log := synthLog(4, 5, 4, 43)
	eng, _ := NewEngine("exact", EngineSpec{N: 4, Loss: quadLoss})
	eng.Observe(log[0])
	mid := eng.Finalize()
	if mid.Epochs != 1 || len(mid.PerEpoch) != 1 {
		t.Fatalf("mid-run report: epochs=%d rows=%d", mid.Epochs, len(mid.PerEpoch))
	}
	midTotals := append([]float64(nil), mid.Totals...)
	for _, ep := range log[1:] {
		eng.Observe(ep)
	}
	if !reflect.DeepEqual(mid.Totals, midTotals) {
		t.Fatal("later observations mutated an earlier snapshot")
	}
	fin := eng.Finalize()
	if fin.Epochs != 4 || len(fin.PerEpoch) != 4 {
		t.Fatalf("final report: epochs=%d rows=%d", fin.Epochs, len(fin.PerEpoch))
	}
}

// TestExactEvalAccounting: a full-participation round costs exactly 2^n
// utility evaluations (the base loss plus every non-empty coalition).
func TestExactEvalAccounting(t *testing.T) {
	const n, epochs = 4, 3
	log := synthLog(n, 5, epochs, 47)
	rep := feed(t, "exact", EngineSpec{N: n, Loss: quadLoss}, log)
	want := int64(epochs) * (1 << n)
	if rep.Cost.UtilityEvals != want {
		t.Fatalf("exact evals = %d, want %d", rep.Cost.UtilityEvals, want)
	}
}

// TestSamplersCheaperThanExact: on a mid-size round the budgeted samplers
// must do fewer utility evaluations than exhaustive enumeration, and the
// guided engines must undercut plain TMC — the accuracy-vs-cost tradeoff
// the engine matrix reports.
func TestSamplersCheaperThanExact(t *testing.T) {
	const n = 10
	log := synthLog(n, 6, 3, 53)
	spec := EngineSpec{N: n, Loss: quadLoss, Seed: 2}
	exact := feed(t, "exact", spec, log)
	tmc := feed(t, "tmc", spec, log)
	gtg := feed(t, "gtg", spec, log)
	dpvs := feed(t, "dpvs", spec, log)
	if tmc.Cost.UtilityEvals >= exact.Cost.UtilityEvals {
		t.Fatalf("tmc evals %d not below exact %d", tmc.Cost.UtilityEvals, exact.Cost.UtilityEvals)
	}
	if gtg.Cost.UtilityEvals >= tmc.Cost.UtilityEvals {
		t.Fatalf("gtg evals %d not below tmc %d", gtg.Cost.UtilityEvals, tmc.Cost.UtilityEvals)
	}
	if dpvs.Cost.UtilityEvals >= tmc.Cost.UtilityEvals {
		t.Fatalf("dpvs evals %d not below tmc %d", dpvs.Cost.UtilityEvals, tmc.Cost.UtilityEvals)
	}
}

// TestEngineRoundRNGReseedsInPlace: the engine's one generator, reseeded
// for round t after any number of draws in round t−1, draws exactly what a
// fresh tensor.NewRNG(roundSeed(Seed, t)) draws — the condition for reusing
// it — and stays the same generator round after round.
func TestEngineRoundRNGReseedsInPlace(t *testing.T) {
	const seed = 17
	e, err := newRoundEngine("tmc", EngineSpec{N: 4, Loss: quadLoss, Seed: seed}, tmcRound, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := e.roundRNG(1)
	for r := 1; r <= 40; r++ {
		got, fresh := e.roundRNG(r), tensor.NewRNG(roundSeed(seed, r))
		if got != first {
			t.Fatalf("round %d: roundRNG allocated a new generator", r)
		}
		for k := 0; k < 3; k++ {
			if a, b := got.Perm(8), fresh.Perm(8); !reflect.DeepEqual(a, b) {
				t.Fatalf("round %d: reseeded Perm %v, fresh %v", r, a, b)
			}
			if a, b := got.Float64(), fresh.Float64(); a != b {
				t.Fatalf("round %d: reseeded Float64 %v, fresh %v", r, a, b)
			}
			if a, b := got.NormFloat64(), fresh.NormFloat64(); a != b {
				t.Fatalf("round %d: reseeded NormFloat64 %v, fresh %v", r, a, b)
			}
		}
		for k := 0; k < 7*r; k++ {
			got.Int63()
		}
	}
}
