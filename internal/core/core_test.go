package core

import (
	"math"
	"testing"
	"testing/quick"

	"digfl/internal/dataset"
	"digfl/internal/hfl"
	"digfl/internal/metrics"
	"digfl/internal/nn"
	"digfl/internal/shapley"
	"digfl/internal/tensor"
	"digfl/internal/vfl"
)

func TestWeightsRectifyAndNormalize(t *testing.T) {
	w := Weights([]float64{2, -1, 3, 0})
	want := []float64{0.4, 0, 0.6, 0}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 1e-12 {
			t.Fatalf("Weights = %v, want %v", w, want)
		}
	}
}

func TestWeightsUniformFallback(t *testing.T) {
	w := Weights([]float64{-1, -2, 0})
	for _, v := range w {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Fatalf("fallback = %v", w)
		}
	}
}

// Property: weights always lie on the probability simplex.
func TestWeightsSimplexProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e150 {
				return true // unreachable magnitudes would overflow the sum
			}
		}
		w := Weights(raw)
		var sum float64
		for _, v := range w {
			if v < 0 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// hflSetup builds an HFL problem with one mislabeled and one non-IID
// participant out of five.
func hflSetup(seed int64, epochs int) (*hfl.Trainer, []dataset.Dataset) {
	return hflSetupLR(seed, epochs, 0.3)
}

func hflSetupLR(seed int64, epochs int, lr float64) (*hfl.Trainer, []dataset.Dataset) {
	rng := tensor.NewRNG(seed)
	full := dataset.MNISTLike(1200, seed)
	train, val := full.Split(0.2, rng)
	parts := dataset.PartitionNonIID(train, dataset.NonIIDConfig{N: 5, M: 1}, rng)
	parts[3] = dataset.Mislabel(parts[3], 0.6, rng)
	tr := &hfl.Trainer{
		Model: nn.NewSoftmaxRegression(train.Dim(), train.Classes),
		Parts: parts,
		Val:   val,
		Cfg:   hfl.Config{Epochs: epochs, LR: lr, KeepLog: true},
	}
	return tr, parts
}

func TestHFLResourceSavingRanksParticipants(t *testing.T) {
	tr, _ := hflSetup(1, 20)
	res := tr.Run()
	attr := EstimateHFL(res.Log, 5, ResourceSaving, nil)
	// Clean participants 0..2 must each outrank both corrupted ones
	// (3 = mislabeled, 4 = non-IID).
	for clean := 0; clean < 3; clean++ {
		for _, bad := range []int{3, 4} {
			if attr.Totals[clean] <= attr.Totals[bad] {
				t.Fatalf("participant %d (%.4f) should outrank %d (%.4f): totals %v",
					clean, attr.Totals[clean], bad, attr.Totals[bad], attr.Totals)
			}
		}
	}
}

func TestHFLEstimateCorrelatesWithActualShapley(t *testing.T) {
	tr, _ := hflSetup(2, 12)
	res := tr.Run()
	attr := EstimateHFL(res.Log, 5, ResourceSaving, nil)
	actual := shapley.Exact(5, func(s []int) float64 { return tr.Utility(s) })
	pcc := metrics.Pearson(attr.Totals, actual)
	if pcc < 0.7 {
		t.Fatalf("PCC vs actual Shapley = %.3f < 0.7 (est %v, actual %v)", pcc, attr.Totals, actual)
	}
}

func TestHFLInteractiveFirstEpochMatchesResourceSaving(t *testing.T) {
	tr, parts := hflSetup(3, 1)
	res := tr.Run()
	rs := EstimateHFL(res.Log, 5, ResourceSaving, nil)
	in := EstimateHFL(res.Log, 5, Interactive, LocalHVP(tr.Model, parts))
	for i := range rs.Totals {
		if math.Abs(rs.Totals[i]-in.Totals[i]) > 1e-12 {
			t.Fatal("with one epoch the Hessian term vanishes (ΣΔG = 0)")
		}
	}
}

func TestHFLSecondTermSmallAtSmallLR(t *testing.T) {
	// Table II regime: the gap between φ (interactive) and φ̂
	// (resource-saving) shrinks with α·τ; at α = 0.01 it stays small.
	tr, parts := hflSetupLR(4, 10, 0.01)
	res := tr.Run()
	rs := EstimateHFL(res.Log, 5, ResourceSaving, nil)
	in := EstimateHFL(res.Log, 5, Interactive, LocalHVP(tr.Model, parts))
	sumRS := tensor.Sum(rs.Totals)
	sumIN := tensor.Sum(in.Totals)
	if rel := metrics.RelErr(sumIN, sumRS); rel > 0.2 {
		t.Fatalf("second-term relative error %.3f too large (φ=%v φ̂=%v)", rel, sumIN, sumRS)
	}
}

func TestHFLVariantsAgreeOnRankingAtPracticalLR(t *testing.T) {
	tr, parts := hflSetupLR(4, 15, 0.05)
	res := tr.Run()
	rs := EstimateHFL(res.Log, 5, ResourceSaving, nil)
	in := EstimateHFL(res.Log, 5, Interactive, LocalHVP(tr.Model, parts))
	if pcc := metrics.Pearson(rs.Totals, in.Totals); pcc < 0.9 {
		t.Fatalf("variants disagree: PCC %.3f (%v vs %v)", pcc, rs.Totals, in.Totals)
	}
}

func TestHFLOnlineMatchesOffline(t *testing.T) {
	tr, _ := hflSetup(5, 8)
	online := NewHFLEstimator(5, tr.Model.NumParams(), ResourceSaving, nil)
	tr.Observer = func(ep *hfl.Epoch) { online.Observe(ep) }
	res := tr.Run()
	offline := EstimateHFL(res.Log, 5, ResourceSaving, nil)
	for i := range offline.Totals {
		if math.Abs(online.Attribution().Totals[i]-offline.Totals[i]) > 1e-12 {
			t.Fatal("online and offline estimates must agree")
		}
	}
	if len(online.Attribution().PerEpoch) != 8 {
		t.Fatal("per-epoch history incomplete")
	}
}

// Lemma 3 additivity: the estimated utility change for a coalition is the
// sum of individual changes — and ΣᵢΔV^{-i} relates to the total estimate.
func TestHFLPerEpochAdditivity(t *testing.T) {
	tr, _ := hflSetup(6, 10)
	res := tr.Run()
	attr := EstimateHFL(res.Log, 5, ResourceSaving, nil)
	// For each epoch, the sum over participants of φ_{t,i} must equal the
	// utility-drop estimate for removing everyone one at a time — additivity
	// means group removal estimates are sums of singleton estimates.
	for ti, phis := range attr.PerEpoch {
		var group float64
		ep := res.Log[ti]
		inv := 1.0 / 5
		for _, delta := range ep.Deltas {
			group += float64(inv * tensor.Dot(ep.ValGrad, delta))
		}
		if math.Abs(group-tensor.Sum(phis)) > 1e-9 {
			t.Fatalf("epoch %d additivity broken", ti+1)
		}
	}
}

func TestHFLReweighterImprovesCorruptedTraining(t *testing.T) {
	rng := tensor.NewRNG(7)
	full := dataset.SynthImages(dataset.ImageConfig{
		Name: "hard-mnist", N: 1500, Side: 8, Classes: 10, Noise: 1.6, Seed: 7,
	})
	train, val := full.Split(0.2, rng)
	parts := dataset.PartitionIID(train, 5, rng)
	// 4 of 5 participants heavily mislabeled — the paper's ≥80% low-quality
	// regime where reweighting matters most (Fig. 7).
	for i := 1; i < 5; i++ {
		parts[i] = dataset.Mislabel(parts[i], 0.9, rng.Split(int64(i)))
	}
	mk := func(rw hfl.Reweighter) float64 {
		tr := &hfl.Trainer{
			Model:      nn.NewSoftmaxRegression(train.Dim(), train.Classes),
			Parts:      parts,
			Val:        val,
			Cfg:        hfl.Config{Epochs: 25, LR: 0.3},
			Reweighter: rw,
		}
		return hfl.Accuracy(tr.Run().Model, val)
	}
	plain := mk(nil)
	reweighted := mk(&HFLReweighter{})
	if reweighted <= plain+0.1 {
		t.Fatalf("reweighting should clearly help: plain %.3f vs reweighted %.3f", plain, reweighted)
	}
}

// Lemma 4: with a small enough learning rate, DIG-FL reweighted training
// decreases the validation loss monotonically — over three seeds, on the
// trainer's one aggregation order.
func TestHFLReweightMonotoneDecrease(t *testing.T) {
	for _, seed := range []int64{8, 9, 10} {
		rng := tensor.NewRNG(seed)
		full := dataset.MNISTLike(800, seed)
		train, val := full.Split(0.2, rng)
		parts := dataset.PartitionIID(train, 4, rng)
		parts[3] = dataset.Mislabel(parts[3], 0.7, rng)
		tr := &hfl.Trainer{
			Model:      nn.NewSoftmaxRegression(train.Dim(), train.Classes),
			Parts:      parts,
			Val:        val,
			Cfg:        hfl.Config{Epochs: 30, LR: 0.05}, // α ≤ 2/(Lδ²) regime
			Reweighter: &HFLReweighter{},
		}
		res := tr.Run()
		for i := 1; i < len(res.ValLossCurve); i++ {
			if res.ValLossCurve[i] > res.ValLossCurve[i-1]+1e-9 {
				t.Fatalf("seed %d: validation loss increased at epoch %d: %v -> %v",
					seed, i, res.ValLossCurve[i-1], res.ValLossCurve[i])
			}
		}
	}
}

// vflSetup builds a 4-party VFL regression where the last party holds only
// noise features.
func vflSetup(seed int64, kind vfl.ModelKind) *vfl.Problem {
	task := dataset.Regression
	if kind == vfl.LogReg {
		task = dataset.Classification
	}
	full := dataset.SynthTabular(dataset.TabularConfig{
		Name: "core", N: 400, D: 8, Task: task, Informative: 6, Noise: 0.3, Seed: seed,
	})
	train, val := full.Split(0.2, tensor.NewRNG(seed))
	return &vfl.Problem{Train: train, Val: val, Blocks: dataset.VerticalBlocks(8, 4), Kind: kind}
}

func TestVFLEstimateRanksNoiseBlockLast(t *testing.T) {
	prob := vflSetup(9, vfl.LinReg)
	tr := &vfl.Trainer{Problem: prob, Cfg: vfl.Config{Epochs: 30, LR: 0.05, KeepLog: true}}
	res := tr.Run()
	attr := EstimateVFL(res.Log, prob.Blocks, ResourceSaving, nil)
	for i := 0; i < 3; i++ {
		if attr.Totals[3] >= attr.Totals[i] {
			t.Fatalf("noise block should rank last: %v", attr.Totals)
		}
	}
}

func TestVFLEstimateCorrelatesWithActualShapley(t *testing.T) {
	for _, kind := range []vfl.ModelKind{vfl.LinReg, vfl.LogReg} {
		prob := vflSetup(10, kind)
		lr := 0.05
		if kind == vfl.LogReg {
			lr = 0.5
		}
		tr := &vfl.Trainer{Problem: prob, Cfg: vfl.Config{Epochs: 30, LR: lr, KeepLog: true}}
		res := tr.Run()
		attr := EstimateVFL(res.Log, prob.Blocks, ResourceSaving, nil)
		actual := shapley.Exact(4, func(s []int) float64 { return tr.Utility(s) })
		if pcc := metrics.Pearson(attr.Totals, actual); pcc < 0.8 {
			t.Fatalf("%v: PCC %.3f < 0.8 (est %v actual %v)", kind, pcc, attr.Totals, actual)
		}
	}
}

func TestVFLInteractiveCloseToResourceSaving(t *testing.T) {
	prob := vflSetup(11, vfl.LinReg)
	tr := &vfl.Trainer{Problem: prob, Cfg: vfl.Config{Epochs: 20, LR: 0.05, KeepLog: true}}
	res := tr.Run()
	rs := EstimateVFL(res.Log, prob.Blocks, ResourceSaving, nil)
	model := nn.NewLinearRegression(prob.Train.Dim(), false)
	in := EstimateVFL(res.Log, prob.Blocks, Interactive, TrainHVP(model, prob.Train))
	if pcc := metrics.Pearson(rs.Totals, in.Totals); pcc < 0.95 {
		t.Fatalf("variants disagree: PCC %.3f (%v vs %v)", pcc, rs.Totals, in.Totals)
	}
	if rel := metrics.RelErr(tensor.Sum(in.Totals), tensor.Sum(rs.Totals)); rel > 0.25 {
		t.Fatalf("second-term relative error %.3f", rel)
	}
}

func TestVFLReweighterWeightsSimplex(t *testing.T) {
	prob := vflSetup(12, vfl.LinReg)
	rw := &VFLReweighter{Blocks: prob.Blocks}
	tr := &vfl.Trainer{Problem: prob, Cfg: vfl.Config{Epochs: 10, LR: 0.05, KeepLog: true}, Reweighter: rw}
	res := tr.Run()
	for _, ep := range res.Log {
		var sum float64
		for _, w := range ep.Weights {
			if w < 0 {
				t.Fatal("negative weight")
			}
			sum += w
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("weights sum %v", sum)
		}
	}
	if res.FinalLoss >= res.InitLoss {
		t.Fatal("reweighted VFL training must still learn")
	}
}

func TestVFLReweighterWithEstimatorAccumulates(t *testing.T) {
	prob := vflSetup(13, vfl.LinReg)
	est := NewVFLEstimator(prob.Blocks, prob.Train.Dim(), ResourceSaving, nil)
	rw := &VFLReweighter{Blocks: prob.Blocks, Estimator: est}
	tr := &vfl.Trainer{Problem: prob, Cfg: vfl.Config{Epochs: 6, LR: 0.05}, Reweighter: rw}
	tr.Run()
	if len(est.Attribution().PerEpoch) != 6 {
		t.Fatalf("estimator saw %d epochs", len(est.Attribution().PerEpoch))
	}
}

func TestHFLReweighterWithEstimatorAccumulates(t *testing.T) {
	tr, _ := hflSetup(14, 6)
	est := NewHFLEstimator(5, tr.Model.NumParams(), ResourceSaving, nil)
	tr.Reweighter = &HFLReweighter{Estimator: est}
	tr.Run()
	if len(est.Attribution().PerEpoch) != 6 {
		t.Fatalf("estimator saw %d epochs", len(est.Attribution().PerEpoch))
	}
}

func TestObserveValidation(t *testing.T) {
	e := NewHFLEstimator(2, 3, ResourceSaving, nil)
	good := &hfl.Epoch{T: 1, Deltas: [][]float64{{1, 0, 0}, {0, 1, 0}}, ValGrad: []float64{1, 1, 1}, LR: 0.1}
	e.Observe(good)
	cases := []func(){
		func() { e.Observe(good) }, // T=1 again
		func() {
			e2 := NewHFLEstimator(2, 3, ResourceSaving, nil)
			e2.Observe(&hfl.Epoch{T: 1, Deltas: [][]float64{{1, 0, 0}}, ValGrad: []float64{1, 1, 1}})
		},
		func() {
			e3 := NewHFLEstimator(2, 3, ResourceSaving, nil)
			e3.Observe(&hfl.Epoch{T: 1, Deltas: [][]float64{{1}, {2}}, ValGrad: []float64{1, 1, 1}})
		},
		func() { NewHFLEstimator(0, 3, ResourceSaving, nil) },
		func() { NewHFLEstimator(2, 3, Interactive, nil) },
		func() { NewVFLEstimator(nil, 3, ResourceSaving, nil) },
		func() { NewVFLEstimator([]dataset.Block{{Lo: 0, Hi: 9}}, 3, ResourceSaving, nil) },
		func() { NewVFLEstimator([]dataset.Block{{Lo: 0, Hi: 3}}, 3, Interactive, nil) },
		func() { EstimateHFL(nil, 2, ResourceSaving, nil) },
		func() { EstimateVFL(nil, []dataset.Block{{Lo: 0, Hi: 3}}, ResourceSaving, nil) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestModeString(t *testing.T) {
	if ResourceSaving.String() != "resource-saving" || Interactive.String() != "interactive" {
		t.Fatal("mode strings wrong")
	}
}
