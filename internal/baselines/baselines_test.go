package baselines

import (
	"math"
	"reflect"
	"testing"

	"digfl/internal/dataset"
	"digfl/internal/hfl"
	"digfl/internal/metrics"
	"digfl/internal/nn"
	"digfl/internal/shapley"
	"digfl/internal/tensor"
)

// run builds a 4-participant HFL run with one mislabeled participant and
// returns the trainer and its result.
func run(t *testing.T, seed int64) (*hfl.Trainer, *hfl.Result) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	full := dataset.MNISTLike(800, seed)
	train, val := full.Split(0.2, rng)
	parts := dataset.PartitionIID(train, 4, rng)
	parts[3] = dataset.Mislabel(parts[3], 0.7, rng)
	tr := &hfl.Trainer{
		Model: nn.NewSoftmaxRegression(train.Dim(), train.Classes),
		Parts: parts,
		Val:   val,
		Cfg:   hfl.Config{Epochs: 10, LR: 0.3, KeepLog: true},
	}
	return tr, tr.Run()
}

func valLossFor(tr *hfl.Trainer) shapley.ValLoss {
	return NewValLoss(tr.Model, tr.Val.X, tr.Val.Y)
}

func TestMRRanksMislabeledLast(t *testing.T) {
	tr, res := run(t, 1)
	mr := MR(res.Log, valLossFor(tr))
	for i := 0; i < 3; i++ {
		if mr.Shapley[3] >= mr.Shapley[i] {
			t.Fatalf("mislabeled participant should rank last: %v", mr.Shapley)
		}
	}
	if len(mr.PerRound) != 10 {
		t.Fatalf("MR recorded %d rounds", len(mr.PerRound))
	}
	// τ·2^n evaluations: every non-empty coalition plus the base loss per round.
	if want := MRBudget(10, 4); mr.Evals != want {
		t.Fatalf("MR evals = %d, want %d", mr.Evals, want)
	}
}

func TestMRPerRoundSumsToTotal(t *testing.T) {
	tr, res := run(t, 2)
	mr := MR(res.Log, valLossFor(tr))
	sums := make([]float64, 4)
	for _, round := range mr.PerRound {
		for i, v := range round {
			sums[i] += v
		}
	}
	for i := range sums {
		if math.Abs(sums[i]-mr.Shapley[i]) > 1e-9 {
			t.Fatalf("per-round sums %v != totals %v", sums, mr.Shapley)
		}
	}
}

func TestORRanksMislabeledLast(t *testing.T) {
	tr, res := run(t, 3)
	or := OR(res.Log, valLossFor(tr))
	for i := 0; i < 3; i++ {
		if or.Shapley[3] >= or.Shapley[i] {
			t.Fatalf("mislabeled participant should rank last: %v", or.Shapley)
		}
	}
	if or.Evals != int64(1)<<4 {
		t.Fatalf("OR evals = %d", or.Evals)
	}
}

func TestIMRanksMislabeledLast(t *testing.T) {
	_, res := run(t, 4)
	im := IM(res.Log)
	for i := 0; i < 3; i++ {
		if im[3] >= im[i] {
			t.Fatalf("mislabeled participant should rank last under IM: %v", im)
		}
	}
}

func TestMethodsCorrelateWithEachOther(t *testing.T) {
	tr, res := run(t, 5)
	vl := valLossFor(tr)
	mr := MR(res.Log, vl)
	or := OR(res.Log, vl)
	im := IM(res.Log)
	if pcc := metrics.Pearson(mr.Shapley, or.Shapley); pcc < 0.5 {
		t.Fatalf("MR vs OR PCC %.3f", pcc)
	}
	if pcc := metrics.Pearson(mr.Shapley, im); pcc < 0.3 {
		t.Fatalf("MR vs IM PCC %.3f", pcc)
	}
}

func TestIMUsesRecordedWeights(t *testing.T) {
	// With weights {1,0,0,0} the global direction is participant 0's path.
	_, res := run(t, 6)
	for _, ep := range res.Log {
		ep.Weights = []float64{1, 0, 0, 0}
	}
	im := IM(res.Log)
	if im[0] <= 0 {
		t.Fatalf("participant 0 should project positively onto its own direction: %v", im)
	}
}

func TestEmptyLogPanics(t *testing.T) {
	tr, _ := run(t, 7)
	vl := valLossFor(tr)
	for i, fn := range []func(){
		func() { MR(nil, vl) },
		func() { OR(nil, vl) },
		func() { IM(nil) },
	} {
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

func TestMRBudget(t *testing.T) {
	if MRBudget(3, 4) != 3*16 {
		t.Fatalf("MRBudget = %d", MRBudget(3, 4))
	}
}

// TestMRMatchesExactEngine: MR is the "exact" contribution engine fed the
// same log — per-round values, totals and evaluation count, bit for bit.
func TestMRMatchesExactEngine(t *testing.T) {
	tr, res := run(t, 8)
	mr := MR(res.Log, valLossFor(tr))
	eng, err := shapley.NewEngine("exact", shapley.EngineSpec{N: 4, Loss: valLossFor(tr)})
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range res.Log {
		eng.Observe(ep)
	}
	rep := eng.Finalize()
	if !reflect.DeepEqual(mr.PerRound, rep.PerEpoch) || !reflect.DeepEqual(mr.Shapley, rep.Totals) || mr.Evals != rep.Cost.UtilityEvals {
		t.Fatalf("MR diverged from the exact engine:\nMR     %v (%d evals)\nengine %v (%d evals)",
			mr.Shapley, mr.Evals, rep.Totals, rep.Cost.UtilityEvals)
	}
}

// TestORMatchesBruteForce: OR against the enumeration written out longhand —
// accumulate each participant's updates, reconstruct every coalition from
// θ_0, take the exact Shapley value of the loss reduction.
func TestORMatchesBruteForce(t *testing.T) {
	tr, res := run(t, 9)
	vl := valLossFor(tr)
	theta0 := res.Log[0].Theta
	acc := make([][]float64, 4)
	for i := range acc {
		acc[i] = make([]float64, len(theta0))
		for _, ep := range res.Log {
			tensor.AXPY(1, ep.Deltas[i], acc[i])
		}
	}
	base := vl(theta0)
	evals := int64(1)
	want := shapley.Exact(4, func(subset []int) float64 {
		if len(subset) == 0 {
			return 0
		}
		theta := tensor.Clone(theta0)
		for _, i := range subset {
			tensor.AXPY(-1/float64(len(subset)), acc[i], theta)
		}
		evals++
		return base - vl(theta)
	})
	or := OR(res.Log, vl)
	if !reflect.DeepEqual(or.Shapley, want) || or.Evals != evals {
		t.Fatalf("OR = %v (%d evals), brute force %v (%d evals)", or.Shapley, or.Evals, want, evals)
	}
}
