package hfl

import (
	"math"
	"testing"

	"digfl/internal/tensor"
)

// rFormAggregate is the reweighted aggregate in its r form, as the buffered
// trainer computed it before the fold took it over: r_k = φ̂_k⁺ over the
// reporters not excluded, φ̂_k = (1/|S|)·valGrad·δ_k, r = 1 on them when
// none is positive; then (Σ r_k·δ_k)·(1/Σ r) in slot order, nil when
// Σ r = 0.
func rFormAggregate(valGrad []float64, deltas [][]float64, excluded []bool) []float64 {
	inv := 1 / float64(len(deltas))
	r := make([]float64, len(deltas))
	pos := false
	for k, d := range deltas {
		if phi := inv * tensor.Dot(valGrad, d); !excluded[k] && phi > 0 {
			r[k], pos = phi, true
		}
	}
	if !pos {
		for k := range r {
			if !excluded[k] {
				r[k] = 1
			}
		}
	}
	sum := 0.0
	for _, v := range r {
		sum += v
	}
	if sum == 0 {
		return nil
	}
	g := make([]float64, len(valGrad))
	tensor.AXPYRows(r, deltas, g)
	tensor.Scale(1/sum, g)
	return g
}

// reweightedFold folds deltas in the arrival order perm through a
// reweighted fold over class and aggregates with the held slots excluded
// where excluded says.
func reweightedFold(t *testing.T, valGrad []float64, deltas [][]float64, class []Admission, excluded []bool, perm []int) ([]float64, []float64) {
	t.Helper()
	f := NewReweightedFold(len(valGrad), valGrad, class)
	for _, k := range perm {
		if err := f.Add(k, deltas[k]); err != nil {
			t.Fatal(err)
		}
	}
	fr, err := f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if fr.Sum != nil || fr.Reweighted == nil || len(fr.Dots) != len(deltas) {
		t.Fatalf("reweighted fold closed to Sum %v, Reweighted %v, %d dots", fr.Sum, fr.Reweighted, len(fr.Dots))
	}
	asked := 0
	g := fr.Reweighted.Aggregate(func(slot int) bool {
		if class[slot] != AdmitHeld {
			t.Fatalf("Aggregate asked about slot %d, admitted %d", slot, class[slot])
		}
		asked++
		return excluded[slot]
	})
	held := 0
	for _, c := range class {
		if c == AdmitHeld {
			held++
		}
	}
	if asked != held {
		t.Fatalf("Aggregate asked about %d held slots of %d", asked, held)
	}
	return g, fr.Dots
}

// ulps is how many float64 steps lie between a and b (same sign).
func ulps(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x > y {
		return x - y
	}
	return y - x
}

// TestReweightedMatchesRForm: the canonical reweighted aggregate equals
// the r form bit for bit whenever |S| is a power of two and no held slot
// survives — 1/|S| is then exact and cancels in r/Σ r — over random
// admissions, signs, arrival orders and an all-non-positive round (the
// uniform fallback). On other |S| it is within 4|S|+3 ulps of it, the
// first-order rounding bound of two sums of |S| positive terms, each with
// its own product and scale (every term positive here, so no cancellation
// stretches the bound). Dots equal Dot's bits either way.
func TestReweightedMatchesRForm(t *testing.T) {
	const p = 37
	rng := tensor.NewRNG(28)
	var worst uint64
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 10, 16, 33, 64} {
		pow2 := n&(n-1) == 0
		for trial := 0; trial < 40; trial++ {
			valGrad := make([]float64, p)
			for j := range valGrad {
				valGrad[j] = float64(rng.Float64()) + 0.1
			}
			deltas := make([][]float64, n)
			for k := range deltas {
				deltas[k] = make([]float64, p)
				flip := 1.0
				if pow2 && rng.Intn(3) == 0 || trial == 0 {
					flip = -1 // a non-positive dot, or (trial 0) every one
				}
				for j := range deltas[k] {
					deltas[k][j] = flip * (float64(rng.Float64()) + 0.01)
				}
			}
			class := make([]Admission, n)
			excluded := make([]bool, n)
			for k := range class {
				switch rng.Intn(4) {
				case 0:
					class[k], excluded[k] = AdmitDotOnly, true
				case 1:
					// A held slot: excluded always on the exact cases, so
					// none survives; either way elsewhere.
					class[k], excluded[k] = AdmitHeld, pow2 || rng.Intn(2) == 0
				}
			}
			want := rFormAggregate(valGrad, deltas, excluded)
			got, dots := reweightedFold(t, valGrad, deltas, class, excluded, rng.Perm(n))
			for k, d := range deltas {
				if math.Float64bits(dots[k]) != math.Float64bits(tensor.Dot(valGrad, d)) {
					t.Fatalf("n=%d trial %d: dot %d is %v, Dot gives %v", n, trial, k, dots[k], tensor.Dot(valGrad, d))
				}
			}
			if (got == nil) != (want == nil) {
				t.Fatalf("n=%d trial %d: aggregate %v, r form %v", n, trial, got, want)
			}
			for j := range got {
				d := ulps(got[j], want[j])
				if pow2 && d != 0 || d > uint64(4*n+3) {
					t.Fatalf("n=%d trial %d: coordinate %d is %v, r form %v (%d ulps)", n, trial, j, got[j], want[j], d)
				}
				worst = max(worst, d)
			}
			tensor.PutVec(got)
		}
	}
	t.Logf("largest distance from the r form: %d ulps", worst)
}

// TestReweightedHeldSummedLast: a held slot that survives the close joins
// both sums after every folded slot, so the aggregate is the weighted sum in
// that order; an excluded one adds nothing, and every held delta reaches
// Release once.
func TestReweightedHeldSummedLast(t *testing.T) {
	const p = 9
	valGrad := foldDeltas(1, p, 3)[0]
	deltas := foldDeltas(6, p, 4)
	class := []Admission{AdmitFold, AdmitHeld, AdmitFold, AdmitDotOnly, AdmitHeld, AdmitFold}
	for _, out := range []bool{false, true} {
		excluded := []bool{false, out, false, true, true, false}
		f := NewReweightedFold(p, valGrad, class)
		for _, k := range []int{5, 1, 3, 0, 4, 2} {
			if err := f.Add(k, deltas[k]); err != nil {
				t.Fatal(err)
			}
		}
		fr, err := f.Close()
		if err != nil {
			t.Fatal(err)
		}
		released := 0
		fr.Reweighted.Release = func(d []float64) {
			if &d[0] != &deltas[1][0] && &d[0] != &deltas[4][0] {
				t.Fatal("released a delta that was not held")
			}
			released++
		}
		got := fr.Reweighted.Aggregate(func(slot int) bool { return excluded[slot] })
		if released != 2 {
			t.Fatalf("released %d held deltas, want 2", released)
		}

		// The canonical order by hand: folded slots 0, 2, 5, then slot 1 if
		// it survives.
		order := []int{0, 2, 5}
		if !out {
			order = append(order, 1)
		}
		want, tot := make([]float64, p), 0.0
		for _, k := range order {
			if w := tensor.Dot(valGrad, deltas[k]); w > 0 {
				tensor.AXPY(w, deltas[k], want)
				tot += w
			}
		}
		if tot > 0 {
			tensor.Scale(1/tot, want)
		} else {
			want = make([]float64, p)
			for _, k := range order {
				tensor.AXPY(1, deltas[k], want)
			}
			tensor.Scale(1/float64(len(order)), want)
		}
		if !sameVec(got, want) {
			t.Fatalf("held excluded=%v: aggregate %v, want %v", out, got, want)
		}
	}
}

// TestReweightedAllExcludedIsNil: with every slot dot-only or excluded at
// the close, the aggregate is nil and θ stays.
func TestReweightedAllExcludedIsNil(t *testing.T) {
	const p = 5
	deltas := foldDeltas(3, p, 8)
	got, _ := reweightedFold(t, foldDeltas(1, p, 9)[0], deltas,
		[]Admission{AdmitDotOnly, AdmitHeld, AdmitDotOnly}, []bool{true, true, true}, []int{2, 0, 1})
	if got != nil {
		t.Fatalf("all-excluded aggregate %v, want nil", got)
	}
}
