package robust

import (
	"context"
	"math"
	"reflect"
	"testing"

	"digfl/internal/core"
	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/obs"
	"digfl/internal/tensor"
)

// screenEpoch builds an epoch with Theta sized to the deltas.
func screenEpoch(deltas ...[]float64) *hfl.Epoch {
	return &hfl.Epoch{T: 1, Deltas: deltas, Theta: make([]float64, len(deltas[0]))}
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

// TestScreenConfigValidation: a zero ScreenConfig takes the documented
// ClipFactor default, and a negative quarantine Patience is rejected.
func TestScreenConfigValidation(t *testing.T) {
	if s := MustNewUpdateScreen(ScreenConfig{}); s.cfg.ClipFactor != 3 {
		t.Errorf("zero ScreenConfig clips at %v× the median, want 3×", s.cfg.ClipFactor)
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
