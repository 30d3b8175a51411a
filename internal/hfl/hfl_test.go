package hfl

import (
	"context"
	"math"
	"testing"

	"digfl/internal/dataset"
	"digfl/internal/nn"
	"digfl/internal/tensor"
)

// setup builds a small 3-participant softmax problem.
func setup(t *testing.T, seed int64) (*Trainer, dataset.Dataset) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	full := dataset.MNISTLike(400, seed)
	train, val := full.Split(0.2, rng)
	parts := dataset.PartitionIID(train, 3, rng)
	tr := &Trainer{
		Model: nn.NewSoftmaxRegression(train.Dim(), train.Classes),
		Parts: parts,
		Val:   val,
		Cfg:   Config{Epochs: 15, LR: 0.3, KeepLog: true},
	}
	return tr, val
}

func TestTrainingReducesValLoss(t *testing.T) {
	tr, _ := setup(t, 1)
	res := tr.Run()
	if res.FinalLoss >= res.InitLoss {
		t.Fatalf("training did not reduce loss: %v -> %v", res.InitLoss, res.FinalLoss)
	}
	if res.Utility() <= 0 {
		t.Fatalf("utility %v should be positive", res.Utility())
	}
	if len(res.ValLossCurve) != tr.Cfg.Epochs+1 {
		t.Fatalf("curve has %d points", len(res.ValLossCurve))
	}
	if len(res.Log) != tr.Cfg.Epochs {
		t.Fatalf("log has %d epochs", len(res.Log))
	}
}

func TestLogRecordsConsistentQuantities(t *testing.T) {
	tr, _ := setup(t, 2)
	res := tr.Run()
	p := tr.Model.NumParams()
	for i, ep := range res.Log {
		if ep.T != i+1 {
			t.Fatalf("epoch %d numbered %d", i, ep.T)
		}
		if len(ep.Theta) != p || len(ep.ValGrad) != p {
			t.Fatal("log vector sizes wrong")
		}
		if len(ep.Deltas) != 3 {
			t.Fatalf("epoch %d has %d deltas", i, len(ep.Deltas))
		}
		if ep.LR != 0.3 {
			t.Fatalf("lr = %v", ep.LR)
		}
		if ep.Weights != nil {
			t.Fatal("uniform run must record nil weights")
		}
	}
	// θ recorded at t+1 must equal θ recorded at t minus the mean delta.
	for i := 0; i+1 < len(res.Log); i++ {
		ep := res.Log[i]
		want := tensor.Clone(ep.Theta)
		for _, d := range ep.Deltas {
			tensor.AXPY(-1.0/3, d, want)
		}
		got := res.Log[i+1].Theta
		for j := range want {
			if math.Abs(want[j]-got[j]) > 1e-12 {
				t.Fatalf("θ recursion broken at epoch %d", i)
			}
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	tr, _ := setup(t, 3)
	a := tr.Run()
	b := tr.Run()
	pa, pb := a.Model.Params(), b.Model.Params()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("two runs from the same trainer must be identical")
		}
	}
	// The prototype model must not have been mutated.
	for _, v := range tr.Model.Params() {
		if v != 0 {
			t.Fatal("prototype model was mutated")
		}
	}
}

// runSubset trains the coalition, failing the test on error.
func runSubset(t *testing.T, tr *Trainer, subset []int) *Result {
	t.Helper()
	res, err := tr.RunSubsetContext(context.Background(), subset)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunSubset(t *testing.T) {
	tr, _ := setup(t, 4)
	full := tr.Run()
	sub := runSubset(t, tr, []int{0, 2})
	if sub.FinalLoss == full.FinalLoss {
		t.Fatal("subset run should differ from full run")
	}
	empty := runSubset(t, tr, nil)
	if empty.Utility() != 0 {
		t.Fatalf("empty coalition utility %v, want 0", empty.Utility())
	}
	if empty.FinalLoss != empty.InitLoss {
		t.Fatal("empty coalition must not train")
	}
}

func TestUtilityMonotoneInData(t *testing.T) {
	// A coalition with all clean participants should beat a singleton, and a
	// coalition including only the mislabeled participant should do worse
	// than a clean singleton.
	rng := tensor.NewRNG(5)
	full := dataset.MNISTLike(600, 5)
	train, val := full.Split(0.2, rng)
	parts := dataset.PartitionIID(train, 3, rng)
	parts[2] = dataset.Mislabel(parts[2], 0.9, rng)
	tr := &Trainer{
		Model: nn.NewSoftmaxRegression(train.Dim(), train.Classes),
		Parts: parts,
		Val:   val,
		Cfg:   Config{Epochs: 15, LR: 0.3},
	}
	clean := tr.Utility([]int{0})
	bad := tr.Utility([]int{2})
	both := tr.Utility([]int{0, 1})
	if clean <= bad {
		t.Fatalf("clean singleton %v should beat mislabeled singleton %v", clean, bad)
	}
	if both <= bad {
		t.Fatalf("clean pair %v should beat mislabeled singleton %v", both, bad)
	}
}

type fixedWeights struct{ w []float64 }

func (f fixedWeights) Weights(*Epoch) []float64 { return f.w }

func TestReweighterIsApplied(t *testing.T) {
	tr, _ := setup(t, 6)
	// Weight mass entirely on participant 0 must equal training on {0} alone.
	tr.Reweighter = fixedWeights{w: []float64{1, 0, 0}}
	res := tr.Run()

	solo := &Trainer{Model: tr.Model, Parts: tr.Parts[:1], Val: tr.Val, Cfg: tr.Cfg}
	want := solo.Run()
	if !sameVec(res.Model.Params(), want.Model.Params()) {
		t.Fatal("weighting {1,0,0} must match training on participant 0 alone, bit for bit")
	}
	for _, ep := range res.Log {
		if ep.Weights == nil {
			t.Fatal("log must record applied weights")
		}
	}
}

func TestObserverSeesEveryEpoch(t *testing.T) {
	tr, _ := setup(t, 7)
	var seen []int
	tr.Observer = func(ep *Epoch) { seen = append(seen, ep.T) }
	tr.Run()
	if len(seen) != tr.Cfg.Epochs {
		t.Fatalf("observer saw %d epochs", len(seen))
	}
	for i, tEp := range seen {
		if tEp != i+1 {
			t.Fatalf("observer epoch order wrong: %v", seen)
		}
	}
}

func TestAccuracyHelper(t *testing.T) {
	tr, val := setup(t, 9)
	res := tr.Run()
	acc := Accuracy(res.Model, val)
	if acc < 0.5 {
		t.Fatalf("trained accuracy %v too low", acc)
	}
	before := Accuracy(tr.Model, val)
	if acc <= before {
		t.Fatalf("training should improve accuracy: %v -> %v", before, acc)
	}
}

func TestConfigValidation(t *testing.T) {
	tr, _ := setup(t, 10)
	cases := []func(){
		func() { bad := *tr; bad.Cfg.Epochs = 0; bad.Run() },
		func() { bad := *tr; bad.Cfg.LR = 0; bad.Run() },
		func() { bad := *tr; bad.Parts = nil; bad.Run() },
		func() {
			bad := *tr
			bad.Reweighter = fixedWeights{w: []float64{1}}
			bad.Run()
		},
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

func TestKeepLogOff(t *testing.T) {
	tr, _ := setup(t, 11)
	tr.Cfg.KeepLog = false
	res := tr.Run()
	if res.Log != nil {
		t.Fatal("log must be nil when KeepLog is false")
	}
}
