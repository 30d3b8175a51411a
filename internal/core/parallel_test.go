package core

import (
	"context"
	"strings"
	"sync"
	"testing"

	"digfl/internal/dataset"
	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/tensor"
)

func parSetup(t *testing.T, n int, seed int64) ([]dataset.Dataset, dataset.Dataset, nn.Model) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	full := dataset.MNISTLike(60*n, seed)
	train, val := full.Split(0.2, rng)
	parts := dataset.PartitionIID(train, n, rng)
	return parts, val, nn.NewSoftmaxRegression(train.Dim(), train.Classes)
}

// LocalHVP must be safe for concurrent use: every in-flight call gets its
// own model clone, so concurrent calls with different thetas cannot corrupt
// each other (run under -race).
func TestLocalHVPConcurrentUse(t *testing.T) {
	parts, _, model := parSetup(t, 4, 71)
	hvp := LocalHVP(model, parts)
	p := model.NumParams()
	thetaA := make([]float64, p)
	thetaB := make([]float64, p)
	v := make([]float64, p)
	for i := 0; i < p; i++ {
		thetaA[i] = 0.01 * float64(i%7)
		thetaB[i] = -0.02 * float64(i%5)
		v[i] = float64(i%3) - 1
	}
	wantA := hvp(thetaA, 0, v)
	wantB := hvp(thetaB, 1, v)

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 16; g++ {
		theta, part, want := thetaA, 0, wantA
		if g%2 == 1 {
			theta, part, want = thetaB, 1, wantB
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				got := hvp(theta, part, v)
				for j := range want {
					if got[j] != want[j] {
						errs <- "concurrent HVP result diverged"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// LocalHVP and TrainHVP hand back the model's own exact product at θ, bit
// for bit, for the softmax and the CNN alike, and leave the prototype they
// clone as it was.
func TestProvidersUseExactHVP(t *testing.T) {
	parts, _, softmax := parSetup(t, 3, 72)
	c := softmax.(*nn.SoftmaxRegression).Classes()
	rng := tensor.NewRNG(72)
	for _, model := range []nn.Model{softmax, nn.NewCNN(8, 3, 2, c, rng.Split(2))} {
		before := tensor.Clone(model.Params())
		theta := rng.NormalVec(model.NumParams(), 0, 0.3)
		v := rng.NormalVec(model.NumParams(), 0, 1)
		at := model.Clone()
		at.SetParams(theta)
		for i, p := range parts {
			if got, want := LocalHVP(model, parts)(theta, i, v), at.HVP(p.X, p.Y, v); !bitsEqual(got, want) {
				t.Fatalf("%T: LocalHVP for participant %d is not the model's HVP at θ", model, i)
			}
		}
		if got, want := TrainHVP(model, parts[0])(theta, v), at.HVP(parts[0].X, parts[0].Y, v); !bitsEqual(got, want) {
			t.Fatalf("%T: TrainHVP is not the model's HVP at θ", model)
		}
		if !bitsEqual(model.Params(), before) {
			t.Fatalf("%T: a provider wrote to its prototype", model)
		}
	}
}

// A coalition (RunSubset) run observed through ObserveMapped must attribute
// to the right global participants and leave absent participants at zero.
func TestObserveMappedCoalition(t *testing.T) {
	parts, val, model := parSetup(t, 4, 72)
	subset := []int{0, 2}
	var est *HFLEstimator
	tr := &hfl.Trainer{
		Model: model, Parts: parts, Val: val,
		Cfg: hfl.Config{Epochs: 3, LR: 0.3},
		Observer: func(ep *hfl.Epoch) {
			phi := est.ObserveMapped(ep, subset)
			if len(phi) != 4 {
				t.Fatalf("phi has length %d, want 4", len(phi))
			}
			// First term of Eq. 19 with the coalition weight 1/|S|.
			for k, i := range subset {
				want := 0.5 * tensor.Dot(ep.ValGrad, ep.Deltas[k])
				if phi[i] != want {
					t.Fatalf("phi[%d] = %v, want %v", i, phi[i], want)
				}
			}
			if phi[1] != 0 || phi[3] != 0 {
				t.Fatalf("absent participants must contribute 0, got %v", phi)
			}
		},
	}
	est = NewHFLEstimator(4, model.NumParams(), ResourceSaving, nil)
	runSubset(t, tr, subset)
	totals := est.Attribution().Totals
	if totals[1] != 0 || totals[3] != 0 {
		t.Fatalf("absent participants accumulated contributions: %v", totals)
	}
	if totals[0] == 0 || totals[2] == 0 {
		t.Fatalf("coalition members got no attribution: %v", totals)
	}
}

// runSubset trains the coalition, failing the test on error.
func runSubset(t *testing.T, tr *hfl.Trainer, subset []int) *hfl.Result {
	t.Helper()
	res, err := tr.RunSubsetContext(context.Background(), subset)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Interactive mode must also survive coalition runs: the HVP loop only
// touches the mapped participants' recursions.
func TestObserveMappedInteractiveCoalition(t *testing.T) {
	parts, val, model := parSetup(t, 4, 73)
	subset := []int{1, 3}
	est := NewHFLEstimator(4, model.NumParams(), Interactive, LocalHVP(model, parts))
	tr := &hfl.Trainer{
		Model: model, Parts: parts, Val: val,
		Cfg:      hfl.Config{Epochs: 3, LR: 0.3},
		Observer: func(ep *hfl.Epoch) { est.ObserveMapped(ep, subset) },
	}
	runSubset(t, tr, subset)
	totals := est.Attribution().Totals
	if totals[0] != 0 || totals[2] != 0 {
		t.Fatalf("absent participants accumulated contributions: %v", totals)
	}
}

// EstimateHFLSubset is the offline replay of the same mapping.
func TestEstimateHFLSubsetMatchesOnline(t *testing.T) {
	parts, val, model := parSetup(t, 4, 74)
	subset := []int{0, 3}
	online := NewHFLEstimator(4, model.NumParams(), ResourceSaving, nil)
	tr := &hfl.Trainer{
		Model: model, Parts: parts, Val: val,
		Cfg:      hfl.Config{Epochs: 4, LR: 0.3, KeepLog: true},
		Observer: func(ep *hfl.Epoch) { online.ObserveMapped(ep, subset) },
	}
	res := runSubset(t, tr, subset)
	offline := EstimateHFLSubset(res.Log, 4, subset, ResourceSaving, nil)
	for i := range offline.Totals {
		if offline.Totals[i] != online.Attribution().Totals[i] {
			t.Fatalf("offline subset replay diverged at %d", i)
		}
	}
}

// Observing a coalition epoch without a mapping must panic with a pointer
// at ObserveMapped instead of the bare dimension check.
func TestObserveCoalitionPanicsHelpfully(t *testing.T) {
	parts, val, model := parSetup(t, 3, 75)
	est := NewHFLEstimator(3, model.NumParams(), ResourceSaving, nil)
	tr := &hfl.Trainer{
		Model: model, Parts: parts, Val: val,
		Cfg:      hfl.Config{Epochs: 1, LR: 0.3, KeepLog: true},
		Observer: nil,
	}
	res := runSubset(t, tr, []int{0, 1})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		if !strings.Contains(r.(string), "ObserveMapped") {
			t.Fatalf("panic should point at ObserveMapped: %v", r)
		}
	}()
	est.Observe(res.Log[0])
}

// Invalid mappings must be rejected before any state mutates.
func TestObserveMappedRejectsBadMapping(t *testing.T) {
	parts, val, model := parSetup(t, 3, 76)
	tr := &hfl.Trainer{
		Model: model, Parts: parts, Val: val,
		Cfg: hfl.Config{Epochs: 1, LR: 0.3, KeepLog: true},
	}
	res := runSubset(t, tr, []int{0, 1})
	for name, idx := range map[string][]int{
		"out of range": {0, 5},
		"duplicate":    {1, 1},
		"wrong length": {0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s mapping must panic", name)
				}
			}()
			est := NewHFLEstimator(3, model.NumParams(), ResourceSaving, nil)
			est.ObserveMapped(res.Log[0], idx)
		}()
	}
}

// The parallel interactive HVP loop must be bit-identical to the serial
// path for any worker count: each participant's φ and ΔG recursion touch
// only their own slots.
func TestInteractiveParallelMatchesSerial(t *testing.T) {
	parts, val, model := parSetup(t, 6, 77)
	tr := &hfl.Trainer{
		Model: model, Parts: parts, Val: val,
		Cfg: hfl.Config{Epochs: 5, LR: 0.2, KeepLog: true},
	}
	res := tr.Run()
	replay := func(workers int) []float64 {
		e := NewHFLEstimator(6, model.NumParams(), Interactive, LocalHVP(model, parts))
		e.Runtime.Workers = workers
		for _, ep := range res.Log {
			e.Observe(ep)
		}
		return e.Attribution().Totals
	}
	serial := replay(1)
	for _, workers := range []int{2, 8, -1} {
		got := replay(workers)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: totals[%d] = %v, want %v", workers, i, got[i], serial[i])
			}
		}
	}
}
