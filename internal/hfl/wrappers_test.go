package hfl

import (
	"context"
	"testing"
)

// TestRunWrappersBitIdentical proves the Run API surface is pure
// delegation: Run and RunContext produce results bit-identical to calling
// RunSubsetContext with the identity subset. The wrappers add only
// panic-on-error or the identity subset — never behavior.
func TestRunWrappersBitIdentical(t *testing.T) {
	const seed = 7
	ref := func() *Result {
		tr, _ := setup(t, seed)
		all := make([]int, len(tr.Parts))
		for i := range all {
			all[i] = i
		}
		res, err := tr.RunSubsetContext(context.Background(), all)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()

	variants := map[string]func() *Result{
		"Run": func() *Result {
			tr, _ := setup(t, seed)
			return tr.Run()
		},
		"RunContext": func() *Result {
			tr, _ := setup(t, seed)
			res, err := tr.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			return res
		},
	}
	for name, f := range variants {
		got := f()
		if !sameVec(ref.Model.Params(), got.Model.Params()) {
			t.Fatalf("%s: model differs from RunSubsetContext", name)
		}
		if !sameVec(ref.ValLossCurve, got.ValLossCurve) {
			t.Fatalf("%s: loss curve differs from RunSubsetContext", name)
		}
		if ref.InitLoss != got.InitLoss || ref.FinalLoss != got.FinalLoss {
			t.Fatalf("%s: losses differ from RunSubsetContext", name)
		}
		sameLog(t, ref.Log, got.Log)
	}
}
