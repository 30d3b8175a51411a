package core

import (
	"reflect"
	"testing"

	"digfl/internal/dataset"
	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/tensor"
	"digfl/internal/vfl"
)

func trainedLog(t *testing.T, seed int64, epochs int) ([]*hfl.Epoch, int, int) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	full := dataset.MNISTLike(300, seed)
	train, val := full.Split(0.2, rng)
	model := nn.NewSoftmaxRegression(train.Dim(), train.Classes)
	tr := &hfl.Trainer{
		Model: model,
		Parts: dataset.PartitionIID(train, 3, rng),
		Val:   val,
		Cfg:   hfl.Config{Epochs: epochs, LR: 0.3, KeepLog: true},
	}
	return tr.Run().Log, 3, model.NumParams()
}

// cloneEpoch deep-copies a log record so a test can perturb it.
func cloneEpoch(ep *hfl.Epoch) *hfl.Epoch {
	cp := *ep
	cp.Deltas = append([][]float64(nil), ep.Deltas...)
	return &cp
}

// Inserting an all-dropped epoch (empty non-nil Reported, no deltas) into a
// log must not change any participant's attribution: the epoch contributes
// a zero φ row and nothing else. This is the Lemma 3 additivity property
// the partial-participation machinery rests on.
func TestAllDroppedEpochContributesNothing(t *testing.T) {
	log, n, p := trainedLog(t, 1, 6)

	base := NewHFLEstimator(n, p, ResourceSaving, nil)
	for _, ep := range log {
		base.Observe(ep)
	}

	// Same epochs with an empty epoch spliced in at position 3; subsequent
	// epochs renumber to stay sequential.
	withGap := NewHFLEstimator(n, p, ResourceSaving, nil)
	tnum := 0
	feed := func(ep *hfl.Epoch) {
		tnum++
		cp := cloneEpoch(ep)
		cp.T = tnum
		withGap.Observe(cp)
	}
	for i, ep := range log {
		if i == 3 {
			feed(&hfl.Epoch{Theta: ep.Theta, LR: ep.LR, ValGrad: ep.ValGrad,
				ValLoss: ep.ValLoss, Reported: []int{}})
		}
		feed(ep)
	}

	if !reflect.DeepEqual(base.Attribution().Totals, withGap.Attribution().Totals) {
		t.Fatalf("empty epoch changed totals: %v vs %v",
			base.Attribution().Totals, withGap.Attribution().Totals)
	}
	gapRow := withGap.Attribution().PerEpoch[3]
	for i, v := range gapRow {
		if v != 0 {
			t.Fatalf("all-dropped epoch gave participant %d nonzero φ %v", i, v)
		}
	}
}

// A degraded epoch must attribute exactly like the equivalent coalition
// epoch: Reported={0,2} with two deltas scores the same φ as ObserveMapped
// with subset {0,2}, and the missing participant scores zero.
func TestReportedMatchesObserveMapped(t *testing.T) {
	log, n, p := trainedLog(t, 2, 4)
	ep := log[0]

	viaReported := NewHFLEstimator(n, p, ResourceSaving, nil)
	deg := cloneEpoch(ep)
	deg.Deltas = [][]float64{ep.Deltas[0], ep.Deltas[2]}
	deg.Reported = []int{0, 2}
	phiR := append([]float64(nil), viaReported.Observe(deg)...)

	viaMapped := NewHFLEstimator(n, p, ResourceSaving, nil)
	sub := cloneEpoch(ep)
	sub.Deltas = [][]float64{ep.Deltas[0], ep.Deltas[2]}
	phiM := viaMapped.ObserveMapped(sub, []int{0, 2})

	if !reflect.DeepEqual(phiR, phiM) {
		t.Fatalf("Reported and ObserveMapped disagree: %v vs %v", phiR, phiM)
	}
	if phiR[1] != 0 {
		t.Fatalf("missing participant scored %v, want 0", phiR[1])
	}
}

// Reported overrides the run-level subset mapping: a degraded epoch inside
// a coalition replay uses its own survivor list.
func TestReportedOverridesSubset(t *testing.T) {
	log, n, p := trainedLog(t, 3, 4)
	ep := cloneEpoch(log[0])
	ep.Deltas = ep.Deltas[:1]
	ep.Reported = []int{2}
	est := NewHFLEstimator(n, p, ResourceSaving, nil)
	// The stale idx names participants 0 and 1; Reported must win.
	phi := est.ObserveMapped(ep, []int{0, 1})
	if phi[2] == 0 || phi[0] != 0 || phi[1] != 0 {
		t.Fatalf("Reported did not override subset mapping: %v", phi)
	}
}

func TestObserveRejectsBadReported(t *testing.T) {
	_, n, p := trainedLog(t, 4, 1)
	est := NewHFLEstimator(n, p, ResourceSaving, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Reported index should panic")
		}
	}()
	est.Observe(&hfl.Epoch{T: 1, ValGrad: make([]float64, p),
		Deltas: [][]float64{make([]float64, p)}, Reported: []int{9}})
}

// HFLReweighter compacts the global φ vector down to the survivors so its
// rectified numerators align with the epoch's delta slice.
func TestReweighterCompactsToSurvivors(t *testing.T) {
	log, n, p := trainedLog(t, 5, 4)
	ep := cloneEpoch(log[0])
	ep.Deltas = [][]float64{ep.Deltas[0], ep.Deltas[2]}
	ep.Reported = []int{0, 2}
	rw := &HFLReweighter{Estimator: NewHFLEstimator(n, p, ResourceSaving, nil)}
	r := rw.Weights(ep)
	phi := NewHFLEstimator(n, p, ResourceSaving, nil).Observe(ep)
	if want := Rectify([]float64{phi[0], phi[2]}); !reflect.DeepEqual(r, want) {
		t.Fatalf("survivor numerators %v, want %v", r, want)
	}
}

// The VFL estimator freezes a dropped party for the epoch: zero φ, and in
// Interactive mode an unchanged ΔG-sum recursion.
func TestVFLEstimatorSkipsDroppedParties(t *testing.T) {
	blocks := dataset.VerticalBlocks(6, 3)
	est := NewVFLEstimator(blocks, 6, ResourceSaving, nil)
	grad := []float64{1, 1, 1, 1, 0, 0} // party 2's block zeroed by the trainer
	vg := []float64{1, 2, 3, 4, 5, 6}
	phi := est.Observe(&vfl.Epoch{T: 1, Theta: make([]float64, 6), Grad: grad,
		LR: 0.1, ValGrad: vg, Reported: []int{0, 1}})
	if phi[2] != 0 {
		t.Fatalf("dropped party scored %v", phi[2])
	}
	if phi[0] == 0 || phi[1] == 0 {
		t.Fatalf("reporting parties should score: %v", phi)
	}
}

func TestEstimatorStateRoundTrip(t *testing.T) {
	log, n, p := trainedLog(t, 6, 6)

	// Interactive mode exercises the ΔG-sum snapshot too.
	hvp := func(theta []float64, part int, v []float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = 0.5 * v[i]
		}
		return out
	}
	ref := NewHFLEstimator(n, p, Interactive, hvp)
	for _, ep := range log {
		ref.Observe(ep)
	}

	half := NewHFLEstimator(n, p, Interactive, hvp)
	for _, ep := range log[:3] {
		half.Observe(ep)
	}
	state := half.State()

	restored := NewHFLEstimator(n, p, Interactive, hvp)
	if err := restored.SetState(state); err != nil {
		t.Fatal(err)
	}
	for _, ep := range log[3:] {
		restored.Observe(ep)
	}
	if !reflect.DeepEqual(ref.Attribution().Totals, restored.Attribution().Totals) {
		t.Fatalf("state round trip broke the recursion: %v vs %v",
			ref.Attribution().Totals, restored.Attribution().Totals)
	}
	if !reflect.DeepEqual(ref.Attribution().PerEpoch, restored.Attribution().PerEpoch) {
		t.Fatal("per-epoch rows differ after state round trip")
	}

	// The snapshot is a deep copy: mutating it must not touch the estimator.
	state2 := restored.State()
	state2.Totals[0] = 999
	if restored.Attribution().Totals[0] == 999 {
		t.Fatal("State() returned aliased memory")
	}
}

func TestSetStateValidates(t *testing.T) {
	est := NewHFLEstimator(3, 4, ResourceSaving, nil)
	bad := []*EstimatorState{
		nil,
		{LastEpoch: -1, Totals: make([]float64, 3)},
		{LastEpoch: 0, Totals: make([]float64, 2)},
		{LastEpoch: 2, Totals: make([]float64, 3), PerEpoch: [][]float64{{1, 2, 3}}},
		{LastEpoch: 0, Totals: make([]float64, 3), DeltaGSum: [][]float64{{1}}},
	}
	for i, s := range bad {
		if err := est.SetState(s); err == nil {
			t.Errorf("case %d: invalid state accepted", i)
		}
	}
}
