package vfl

import (
	"context"
	"math"
	"testing"

	"digfl/internal/dataset"
	"digfl/internal/tensor"
)

// regProblem builds a small 3-party regression problem with the last block
// holding pure-noise features.
func regProblem(seed int64) *Problem {
	full := dataset.SynthTabular(dataset.TabularConfig{
		Name: "t", N: 300, D: 6, Task: dataset.Regression, Informative: 4, Noise: 0.2, Seed: seed,
	})
	train, val := full.Split(0.2, tensor.NewRNG(seed))
	return &Problem{
		Train:  train,
		Val:    val,
		Blocks: dataset.VerticalBlocks(6, 3),
		Kind:   LinReg,
	}
}

func clsProblem(seed int64) *Problem {
	full := dataset.SynthTabular(dataset.TabularConfig{
		Name: "t", N: 300, D: 6, Task: dataset.Classification, Informative: 4, Noise: 0.2, Seed: seed,
	})
	train, val := full.Split(0.2, tensor.NewRNG(seed))
	return &Problem{Train: train, Val: val, Blocks: dataset.VerticalBlocks(6, 3), Kind: LogReg}
}

func TestLinRegTrainingReducesLoss(t *testing.T) {
	tr := &Trainer{Problem: regProblem(1), Cfg: Config{Epochs: 40, LR: 0.05, KeepLog: true}}
	res := tr.Run()
	if res.FinalLoss >= res.InitLoss {
		t.Fatalf("loss did not decrease: %v -> %v", res.InitLoss, res.FinalLoss)
	}
	if res.Utility() <= 0 {
		t.Fatal("utility must be positive")
	}
	if len(res.Log) != 40 {
		t.Fatalf("log has %d epochs", len(res.Log))
	}
}

func TestLogRegTrainingReducesLoss(t *testing.T) {
	tr := &Trainer{Problem: clsProblem(2), Cfg: Config{Epochs: 40, LR: 0.5}}
	res := tr.Run()
	if res.FinalLoss >= res.InitLoss {
		t.Fatalf("loss did not decrease: %v -> %v", res.InitLoss, res.FinalLoss)
	}
}

func TestModelStartsAtZero(t *testing.T) {
	tr := &Trainer{Problem: regProblem(3), Cfg: Config{Epochs: 1, LR: 0.05, KeepLog: true}}
	res := tr.Run()
	for _, v := range res.Log[0].Theta {
		if v != 0 {
			t.Fatal("VFL model must initialize to zero (removal-equivalence requires it)")
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

func TestRunSubsetFreezesBlocks(t *testing.T) {
	prob := regProblem(4)
	tr := &Trainer{Problem: prob, Cfg: Config{Epochs: 20, LR: 0.05}}
	res := runSubset(t, tr, []int{0, 2})
	// Block 1's coordinates must stay at zero.
	b := prob.Blocks[1]
	for j := b.Lo; j < b.Hi; j++ {
		if res.Model.Params()[j] != 0 {
			t.Fatal("removed block must stay frozen at zero")
		}
	}
	// Empty coalition: no learning.
	empty := runSubset(t, tr, nil)
	if empty.Utility() != 0 {
		t.Fatalf("empty coalition utility %v", empty.Utility())
	}
}

func TestUtilityInformativeBlocksWin(t *testing.T) {
	prob := regProblem(5)
	tr := &Trainer{Problem: prob, Cfg: Config{Epochs: 30, LR: 0.05}}
	// Blocks 0 and 1 hold the informative features (0..3); block 2 holds
	// pure noise. A coalition of informative blocks must beat noise-only.
	informative := tr.Utility([]int{0, 1})
	noise := tr.Utility([]int{2})
	if informative <= noise {
		t.Fatalf("informative utility %v must exceed noise utility %v", informative, noise)
	}
	if noise > informative/4 {
		t.Fatalf("noise block utility %v suspiciously high vs %v", noise, informative)
	}
}

func TestLogConsistency(t *testing.T) {
	tr := &Trainer{Problem: regProblem(6), Cfg: Config{Epochs: 10, LR: 0.05, KeepLog: true}}
	res := tr.Run()
	// θ_{t} = θ_{t-1} − G_t must hold exactly for the unweighted run.
	for i := 0; i+1 < len(res.Log); i++ {
		want := tensor.Sub(res.Log[i].Theta, res.Log[i].Grad)
		got := res.Log[i+1].Theta
		for j := range want {
			if math.Abs(want[j]-got[j]) > 1e-12 {
				t.Fatalf("θ recursion broken at epoch %d", i)
			}
		}
	}
}

type halfWeights struct{ n int }

func (h halfWeights) Weights(*Epoch) []float64 {
	w := make([]float64, h.n)
	for i := range w {
		w[i] = 0.5
	}
	return w
}

func TestReweighterScalesUpdate(t *testing.T) {
	prob := regProblem(7)
	plain := &Trainer{Problem: prob, Cfg: Config{Epochs: 1, LR: 0.05}}
	weighted := &Trainer{Problem: prob, Cfg: Config{Epochs: 1, LR: 0.05}, Reweighter: halfWeights{n: 3}}
	a := plain.Run().Model.Params()
	b := weighted.Run().Model.Params()
	for j := range a {
		if math.Abs(b[j]-float64(a[j]/2)) > 1e-12 {
			t.Fatal("half weights must halve the first update")
		}
	}
}

func TestObserver(t *testing.T) {
	count := 0
	tr := &Trainer{Problem: regProblem(8), Cfg: Config{Epochs: 7, LR: 0.05},
		Observer: func(ep *Epoch) { count++ }}
	tr.Run()
	if count != 7 {
		t.Fatalf("observer saw %d epochs", count)
	}
}

func TestValidation(t *testing.T) {
	good := regProblem(9)
	cases := []func(){
		func() { // gap in blocks
			bad := *good
			bad.Blocks = []dataset.Block{{Lo: 0, Hi: 2}, {Lo: 3, Hi: 6}}
			(&Trainer{Problem: &bad, Cfg: Config{Epochs: 1, LR: 0.1}}).Run()
		},
		func() { // empty blocks
			bad := *good
			bad.Blocks = nil
			(&Trainer{Problem: &bad, Cfg: Config{Epochs: 1, LR: 0.1}}).Run()
		},
		func() { // zero epochs
			(&Trainer{Problem: good, Cfg: Config{Epochs: 0, LR: 0.1}}).Run()
		},
		func() { // bad weights length
			(&Trainer{Problem: good, Cfg: Config{Epochs: 1, LR: 0.1}, Reweighter: halfWeights{n: 2}}).Run()
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

func TestModelKindString(t *testing.T) {
	if LinReg.String() != "VFL-LinReg" || LogReg.String() != "VFL-LogReg" {
		t.Fatal("ModelKind strings wrong")
	}
}

// TestRetainDeltasRelease: ReleaseAfterObserve nils each epoch's Grad after
// the Observer has seen it, without perturbing a single float of the run —
// the retained log then costs O(1) per epoch beyond Theta/ValGrad.
func TestRetainDeltasRelease(t *testing.T) {
	run := func(policy RetainPolicy) (*Result, int) {
		sawGrad := 0
		tr := &Trainer{
			Problem: regProblem(7),
			Cfg:     Config{Epochs: 20, LR: 0.05, KeepLog: true, RetainDeltas: policy},
			Observer: func(ep *Epoch) {
				if len(ep.Grad) > 0 {
					sawGrad++
				}
			},
		}
		return tr.Run(), sawGrad
	}
	keep, sawKeep := run(RetainAll)
	rel, sawRel := run(ReleaseAfterObserve)
	if sawKeep != 20 || sawRel != 20 {
		t.Fatalf("observer saw Grad on %d/%d epochs, want 20/20", sawKeep, sawRel)
	}
	for i, ep := range rel.Log {
		if ep.Grad != nil {
			t.Fatalf("epoch %d retained Grad under ReleaseAfterObserve", i+1)
		}
		if keep.Log[i].Grad == nil {
			t.Fatalf("epoch %d lost Grad under RetainAll", i+1)
		}
	}
	if keep.FinalLoss != rel.FinalLoss {
		t.Fatalf("release perturbed the run: %v vs %v", keep.FinalLoss, rel.FinalLoss)
	}
	for j, v := range keep.Model.Params() {
		if rel.Model.Params()[j] != v {
			t.Fatal("release perturbed the model")
		}
	}
}
