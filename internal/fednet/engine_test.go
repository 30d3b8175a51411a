package fednet

import (
	"context"
	"reflect"
	"testing"

	"digfl/internal/dataset"
	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/shapley"
)

// engineLoss builds the engine's validation-loss oracle over the server's
// validation set.
func engineLoss(model nn.Model, val dataset.Dataset) shapley.ValLoss {
	m := model.Clone()
	return func(theta []float64) float64 {
		m.SetParams(theta)
		return m.Loss(val.X, val.Y)
	}
}

// TestEngineLoopbackBitIdenticalToLocal: every registered engine observing
// a fault-free loopback run produces a φ matrix bit-identical to the same
// engine observing the in-process trainer — the epochs the wire delivers to
// an Observer change nothing about contribution evaluation.
func TestEngineLoopbackBitIdenticalToLocal(t *testing.T) {
	const seed, engSeed = 2, 40
	for _, name := range shapley.Engines() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			mkSpec := func(model nn.Model, val dataset.Dataset) shapley.EngineSpec {
				return shapley.EngineSpec{N: testN, Loss: engineLoss(model, val), Seed: engSeed}
			}

			// In-process reference: the engine is the trainer's Observer.
			model, parts, val := problem(seed)
			localEng, err := shapley.NewEngine(name, mkSpec(model, val))
			if err != nil {
				t.Fatal(err)
			}
			tr := &hfl.Trainer{Model: model, Parts: parts, Val: val, Cfg: testConfig(), Observer: localEng.Observe}
			if _, err := tr.RunContext(context.Background()); err != nil {
				t.Fatalf("local run: %v", err)
			}
			want := localEng.Finalize()

			// The same training over the wire, the engine the coordinator's
			// Observer.
			model2, parts2, val2 := problem(seed)
			netEng, err := shapley.NewEngine(name, mkSpec(model2, val2))
			if err != nil {
				t.Fatal(err)
			}
			coord := &Coordinator{N: testN, Model: model2, Val: val2, Cfg: testConfig(), Observer: netEng.Observe}
			_, perrs, err := Loopback(context.Background(), coord, func(i int) *Participant {
				return &Participant{Index: i, Model: model2, Data: parts2[i], Retries: 2}
			})
			if err != nil {
				t.Fatalf("loopback run: %v", err)
			}
			for i, perr := range perrs {
				if perr != nil {
					t.Fatalf("participant %d: %v", i, perr)
				}
			}
			got := netEng.Finalize()

			if !reflect.DeepEqual(want.PerEpoch, got.PerEpoch) {
				t.Errorf("φ matrix differs:\nlocal %v\nnet   %v", want.PerEpoch, got.PerEpoch)
			}
			if !sameVec(want.Totals, got.Totals) {
				t.Errorf("φ totals differ:\nlocal %v\nnet   %v", want.Totals, got.Totals)
			}
			if want.Cost.UtilityEvals != got.Cost.UtilityEvals {
				t.Errorf("evals differ: local %d net %d", want.Cost.UtilityEvals, got.Cost.UtilityEvals)
			}
			if got.Epochs != testEpochs {
				t.Errorf("engine saw %d epochs, want %d", got.Epochs, testEpochs)
			}
		})
	}
}
