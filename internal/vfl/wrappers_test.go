package vfl

import (
	"context"
	"testing"
)

func eqVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRunWrappersBitIdentical proves the Run API surface is pure
// delegation: Run and RunContext produce results bit-identical to
// RunSubsetContext with the identity subset.
func TestRunWrappersBitIdentical(t *testing.T) {
	const seed = 11
	mk := func() *Trainer {
		return &Trainer{Problem: regProblem(seed), Cfg: Config{Epochs: 25, LR: 0.05, KeepLog: true}}
	}
	ref, err := mk().RunSubsetContext(context.Background(), []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}

	variants := map[string]func() (*Result, error){
		"Run":        func() (*Result, error) { return mk().Run(), nil },
		"RunContext": func() (*Result, error) { return mk().RunContext(context.Background()) },
	}
	for name, f := range variants {
		got, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !eqVec(ref.Model.Params(), got.Model.Params()) {
			t.Fatalf("%s: model differs from RunSubsetContext", name)
		}
		if !eqVec(ref.ValLossCurve, got.ValLossCurve) {
			t.Fatalf("%s: loss curve differs from RunSubsetContext", name)
		}
		if ref.InitLoss != got.InitLoss || ref.FinalLoss != got.FinalLoss {
			t.Fatalf("%s: losses differ from RunSubsetContext", name)
		}
	}

}
