package robust

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"digfl/internal/core"
	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/obs"
	"digfl/internal/tensor"
)

// TestAggregateErrors checks the error contract: empty epochs, ragged
// shapes, and bad configs return errors from Aggregate on every rule.
func TestAggregateErrors(t *testing.T) {
	ragged := epoch([]float64{1, 2}, []float64{3})
	empty := &hfl.Epoch{}
	cases := map[string]struct {
		agg  hfl.Aggregator
		ep   *hfl.Epoch
		want string
	}{
		"median empty":     {Median{}, empty, "no participant"},
		"median ragged":    {Median{}, ragged, "ragged"},
		"trimmed ragged":   {TrimmedMean{}, ragged, "ragged"},
		"trimmed invalid":  {TrimmedMean{Trim: 2}, epoch([]float64{1}, []float64{2}, []float64{3}), "invalid"},
		"krum ragged":      {Krum{}, ragged, "ragged"},
		"krum infeasible":  {Krum{F: 1}, epoch([]float64{1}, []float64{2}, []float64{3}), "infeasible"},
		"krum negative F":  {Krum{F: -1}, epoch([]float64{1}, []float64{2}, []float64{3}), "negative"},
		"multikrum bad M":  {MultiKrum{F: 0, M: 0}, epoch([]float64{1}, []float64{2}, []float64{3}), "positive"},
		"normbound cfg":    {NormBound{}, epoch([]float64{1}), "positive"},
		"normbound ragged": {NormBound{MaxNorm: 1}, ragged, "ragged"},
	}
	for name, c := range cases {
		out, err := c.agg.Aggregate(c.ep)
		if err == nil {
			t.Errorf("%s: Aggregate returned %v, want error", name, out)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q missing %q", name, err, c.want)
		}
	}
}

// TestKrumSelectsHonestCenter: 4 clustered honest updates + 1 far outlier;
// Krum must pick a cluster member, never the outlier.
func TestKrumSelectsHonestCenter(t *testing.T) {
	ep := epoch(
		[]float64{1.0, 1.0},
		[]float64{1.1, 0.9},
		[]float64{0.9, 1.1},
		[]float64{1.05, 1.0},
		[]float64{-50, 80},
	)
	got, err := Krum{F: 1}.Aggregate(ep)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-1) > 0.2 || math.Abs(got[1]-1) > 0.2 {
		t.Fatalf("Krum selected the outlier: %v", got)
	}
	// Multi-Krum with M=3 averages cluster members only.
	mk, err := MultiKrum{F: 1, M: 3}.Aggregate(ep)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mk[0]-1) > 0.2 || math.Abs(mk[1]-1) > 0.2 {
		t.Fatalf("Multi-Krum leaked the outlier: %v", mk)
	}
}

// TestKrumRejectsNaNUpdate: a NaN update must never win selection.
func TestKrumRejectsNaNUpdate(t *testing.T) {
	ep := epoch(
		[]float64{1, 1},
		[]float64{1.1, 1},
		[]float64{0.9, 1},
		[]float64{math.NaN(), 1},
		[]float64{1, 0.9},
	)
	got, err := Krum{F: 1}.Aggregate(ep)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(got[0]) {
		t.Fatal("Krum selected the NaN update")
	}
}

// TestKrumDegradedSurvivors: an infeasible F on a survivor epoch degrades
// instead of erroring; a single survivor is returned as-is.
func TestKrumDegradedSurvivors(t *testing.T) {
	ep := epoch([]float64{2, 4})
	ep.Reported = []int{3}
	got, err := Krum{F: 2}.Aggregate(ep)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 || got[1] != 4 {
		t.Fatalf("single-survivor Krum = %v", got)
	}
	// Three survivors, F=2 infeasible for n=3: still aggregates.
	ep = epoch([]float64{1}, []float64{2}, []float64{3})
	ep.Reported = []int{0, 2, 4}
	if _, err := (MultiKrum{F: 2, M: 5}).Aggregate(ep); err != nil {
		t.Fatalf("degraded Multi-Krum errored: %v", err)
	}
}

// TestNormBound clips only over-norm updates.
func TestNormBound(t *testing.T) {
	ep := epoch([]float64{3, 4}, []float64{30, 40}) // norms 5 and 50
	got, err := NormBound{MaxNorm: 5}.Aggregate(ep)
	if err != nil {
		t.Fatal(err)
	}
	// Second update rescaled to norm 5 → (3,4); mean of (3,4),(3,4).
	if math.Abs(got[0]-3) > 1e-12 || math.Abs(got[1]-4) > 1e-12 {
		t.Fatalf("NormBound = %v, want [3 4]", got)
	}
	// Epoch deltas must not be mutated.
	if ep.Deltas[1][0] != 30 {
		t.Fatal("NormBound mutated the epoch record")
	}
}

// screenEpoch builds an epoch with Theta sized to the deltas.
func screenEpoch(deltas ...[]float64) *hfl.Epoch {
	ep := epoch(deltas...)
	ep.Theta = make([]float64, len(deltas[0]))
	return ep
}

// TestScreenDropsBadUpdates: wrong shape and non-finite coordinates are
// rejected with events; honest updates pass untouched.
func TestScreenDropsBadUpdates(t *testing.T) {
	c := &obs.Collector{}
	s := MustNewUpdateScreen(ScreenConfig{Sink: c})
	ep := screenEpoch(
		[]float64{1, 0},
		[]float64{0, math.NaN()},
		[]float64{1, 1, 1}, // wrong length
		[]float64{0, math.Inf(1)},
		[]float64{0, 1},
	)
	drop, err := s.Screen(ep, []int{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(drop, []int{1, 2, 3}) {
		t.Fatalf("drop = %v, want [1 2 3]", drop)
	}
	if got := c.Snapshot().UpdatesRejected; got != 3 {
		t.Fatalf("UpdatesRejected = %d, want 3", got)
	}
	if ep.Deltas[0][0] != 1 || ep.Deltas[4][1] != 1 {
		t.Fatal("screen mutated honest updates")
	}
}

// TestScreenClipsOutlierNorms: an update far above the median norm is
// rescaled to the threshold; honest ones stay bit-identical.
func TestScreenClipsOutlierNorms(t *testing.T) {
	c := &obs.Collector{}
	s := MustNewUpdateScreen(ScreenConfig{ClipFactor: 2, Sink: c})
	ep := screenEpoch(
		[]float64{1, 0},
		[]float64{0, 1},
		[]float64{1, 0},
		[]float64{100, 0},
	)
	drop, err := s.Screen(ep, []int{0, 1, 2, 3})
	if err != nil || len(drop) != 0 {
		t.Fatalf("drop = %v, err = %v", drop, err)
	}
	// Median norm 1, threshold 2: outlier rescaled from 100 to 2.
	if math.Abs(ep.Deltas[3][0]-2) > 1e-12 {
		t.Fatalf("outlier not clipped: %v", ep.Deltas[3])
	}
	if ep.Deltas[0][0] != 1 {
		t.Fatal("honest update mutated")
	}
	if got := c.Snapshot().UpdatesClipped; got != 1 {
		t.Fatalf("UpdatesClipped = %d, want 1", got)
	}
	// Negative ClipFactor disables clipping entirely.
	s2 := MustNewUpdateScreen(ScreenConfig{ClipFactor: -1})
	ep2 := screenEpoch([]float64{1, 0}, []float64{1000, 0})
	if _, err := s2.Screen(ep2, []int{0, 1}); err != nil || ep2.Deltas[1][0] != 1000 {
		t.Fatal("disabled clipping still clipped")
	}
}

// TestScreenConfigValidation rejects an out-of-range screen Lambda and a
// negative quarantine Patience.
func TestScreenConfigValidation(t *testing.T) {
	if _, err := NewUpdateScreen(ScreenConfig{Lambda: 2}); err == nil {
		t.Error("Lambda 2 accepted")
	}
	if _, err := NewQuarantine(Quarantine{Patience: -1}); err == nil {
		t.Error("quarantine Patience -1 accepted")
	}
}

// qEpoch builds an epoch whose first-order φ is phi[i] = valGrad·deltas[i]/n.
func qEpoch(t int, valGrad []float64, deltas ...[]float64) *hfl.Epoch {
	return &hfl.Epoch{T: t, Deltas: deltas, ValGrad: valGrad, Theta: make([]float64, len(valGrad))}
}

// TestQuarantineBansPersistentNegative: a participant whose φ stays
// negative while the cohort median is positive is banned after Patience
// epochs and gets zero weight thereafter.
func TestQuarantineBansPersistentNegative(t *testing.T) {
	c := &obs.Collector{}
	q := MustNewQuarantine(Quarantine{Patience: 2, Sink: c})
	vg := []float64{1}
	for ep := 1; ep <= 5; ep++ {
		w := q.Weights(qEpoch(ep, vg, []float64{1}, []float64{2}, []float64{-3}))
		switch {
		case ep < 2:
			if w[2] != 0 { // rectification already zeroes negative φ
				t.Fatalf("epoch %d: attacker weight %v", ep, w[2])
			}
		case ep >= 2:
			if !q.IsQuarantined(2) {
				t.Fatalf("epoch %d: attacker not quarantined", ep)
			}
			if w[2] != 0 {
				t.Fatalf("epoch %d: quarantined weight %v", ep, w[2])
			}
			if w[0] == 0 || w[1] == 0 {
				t.Fatalf("epoch %d: honest weights zeroed: %v", ep, w)
			}
		}
	}
	if got := q.Quarantined(); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("Quarantined() = %v, want [2]", got)
	}
	if got := c.Snapshot().Quarantines; got != 1 {
		t.Fatalf("Quarantines = %d, want 1 (ban must emit once)", got)
	}
	// Participant 1 turns negative beside two newcomers and is banned after
	// participant 2: the list stays in ascending index order, not ban order.
	for ep := 6; ep <= 7; ep++ {
		q.Weights(qEpoch(ep, vg, []float64{1}, []float64{-30}, []float64{-3}, []float64{4}, []float64{5}))
	}
	if got := q.Quarantined(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("Quarantined() after the second ban = %v, want [1 2]", got)
	}
}

// TestQuarantineMedianGuard: when the whole cohort's EWMA is non-positive
// (training stalled), nobody is banned.
func TestQuarantineMedianGuard(t *testing.T) {
	q := MustNewQuarantine(Quarantine{Patience: 1})
	vg := []float64{1}
	for ep := 1; ep <= 5; ep++ {
		q.Weights(qEpoch(ep, vg, []float64{-1}, []float64{-2}, []float64{-3}))
	}
	if got := q.Quarantined(); got != nil {
		t.Fatalf("stalled cohort banned %v", got)
	}
}

// TestQuarantineMatchesEq17WhenClean: with no bans the returned numerators
// must be bit-identical to core.Rectify over the same φ — the no-attack
// bit-identity contract (the trainer's division is checked against
// core.Weights by TestReweightEpochWeightsMatchEq17).
func TestQuarantineMatchesEq17WhenClean(t *testing.T) {
	q := MustNewQuarantine(Quarantine{})
	vg := []float64{0.5, -0.25}
	deltas := [][]float64{{1, 2}, {3, -1}, {-0.5, 4}}
	ep := qEpoch(1, vg, deltas...)
	w := q.Weights(ep)
	phi := make([]float64, len(deltas))
	inv := 1 / float64(len(deltas))
	for i, d := range deltas {
		phi[i] = inv * tensor.Dot(vg, d)
	}
	if want := core.Rectify(phi); !reflect.DeepEqual(w, want) {
		t.Fatalf("clean quarantine weights %v != Eq.17 %v", w, want)
	}
}

// TestQuarantineDegradedEpochs: absent participants keep state frozen; a
// banned participant stays banned across survivor epochs.
func TestQuarantineDegradedEpochs(t *testing.T) {
	q := MustNewQuarantine(Quarantine{Patience: 1})
	vg := []float64{1}
	// Round 1: full; attacker 2 banned immediately (patience 1).
	q.Weights(qEpoch(1, vg, []float64{1}, []float64{2}, []float64{-3}))
	if !q.IsQuarantined(2) {
		t.Fatal("attacker not banned")
	}
	// Round 2: survivors {0, 2} — banned stays zero-weighted.
	ep := qEpoch(2, vg, []float64{1}, []float64{-3})
	ep.Reported = []int{0, 2}
	w := q.Weights(ep)
	if w[1] != 0 || w[0] != 0.5 {
		t.Fatalf("survivor-epoch weights = %v, want [0.5 0]", w)
	}
	if q.IsQuarantined(0) || q.IsQuarantined(1) {
		t.Fatal("honest participant banned")
	}
}

// TestScreenInTrainerBitIdentity: wiring Screen + Quarantine into a clean
// trainer run changes nothing — loss curve and final model are
// bit-identical to an undefended reweighted run.
func TestScreenInTrainerBitIdentity(t *testing.T) {
	parts, train, val := corruptedFederation(11, 4, 0)
	mk := func(defended bool) *hfl.Trainer {
		tr := &hfl.Trainer{
			Model: nn.NewSoftmaxRegression(train.Dim(), train.Classes),
			Parts: parts,
			Val:   val,
			Cfg:   hfl.Config{Epochs: 8, LR: 0.3},
		}
		est := core.NewHFLEstimator(len(parts), tr.Model.NumParams(), core.ResourceSaving, nil)
		if defended {
			tr.Screen = MustNewUpdateScreen(ScreenConfig{})
			tr.Reweighter = MustNewQuarantine(Quarantine{Estimator: est})
		} else {
			tr.Reweighter = &core.HFLReweighter{Estimator: est}
		}
		return tr
	}
	plain, err := mk(false).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defended, err := mk(true).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.ValLossCurve, defended.ValLossCurve) {
		t.Fatalf("clean defended loss curve diverged:\n%v\n%v",
			plain.ValLossCurve, defended.ValLossCurve)
	}
	if !reflect.DeepEqual(plain.Model.Params(), defended.Model.Params()) {
		t.Fatal("clean defended final model not bit-identical")
	}
}
