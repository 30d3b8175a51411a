package vfl

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"digfl/internal/obs"
	"digfl/internal/paillier"
)

// nanWeights poisons one party's block weight.
type nanWeights struct{ n int }

func (r nanWeights) Weights(ep *Epoch) []float64 {
	w := make([]float64, r.n)
	for i := range w {
		w[i] = 1
	}
	w[0] = math.NaN()
	return w
}

func TestFailNonFiniteOffByDefault(t *testing.T) {
	// A divergent learning rate drives the loss to non-finite; the default
	// config keeps the historical propagate-NaN behavior and finishes.
	tr := &Trainer{Problem: regProblem(7), Cfg: Config{Epochs: 60, LR: 1e4}}
	res, err := tr.RunContext(context.Background())
	if err != nil {
		t.Fatalf("default config must not abort: %v", err)
	}
	if !math.IsNaN(res.FinalLoss) && !math.IsInf(res.FinalLoss, 0) {
		t.Skip("run did not diverge; cannot exercise propagation")
	}
}

func TestFailNonFiniteAbortsDivergence(t *testing.T) {
	tr := &Trainer{Problem: regProblem(7), Cfg: Config{Epochs: 60, LR: 1e4, FailNonFinite: true}}
	_, err := tr.RunContext(context.Background())
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
	if !strings.Contains(err.Error(), "epoch ") {
		t.Errorf("error does not name the epoch: %v", err)
	}
}

func TestFailNonFiniteAbortsPoisonedUpdate(t *testing.T) {
	prob := regProblem(8)
	tr := &Trainer{
		Problem:    prob,
		Cfg:        Config{Epochs: 10, LR: 0.05, FailNonFinite: true},
		Reweighter: nanWeights{n: prob.Parties()},
	}
	_, err := tr.RunContext(context.Background())
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
	if !strings.Contains(err.Error(), "update") {
		t.Errorf("error does not name the update: %v", err)
	}
}

func TestFailNonFiniteBitIdentityWhenHealthy(t *testing.T) {
	run := func(guard bool) *Result {
		tr := &Trainer{Problem: regProblem(9), Cfg: Config{Epochs: 30, LR: 0.05, FailNonFinite: guard}}
		res, err := tr.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(false), run(true)
	pa, pb := a.Model.Params(), b.Model.Params()
	for j := range pa {
		if pa[j] != pb[j] {
			t.Fatalf("param %d differs: %v vs %v", j, pa[j], pb[j])
		}
	}
	for k := range a.ValLossCurve {
		if a.ValLossCurve[k] != b.ValLossCurve[k] {
			t.Fatalf("loss curve differs at %d", k)
		}
	}
}

// A diverging learning rate on the encrypted path must surface as
// ErrNonFinite before a value the fixed-point encoding cannot carry is
// encoded — not as a panic on a pool goroutine, and not as a silent wrap.
func TestSecureDivergenceReturnsErrNonFinite(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := RunSecureN(twoPartyProblem(7, 40, 4), SecureConfig{
			Epochs: 100, LR: 1e4, KeyBits: 256, MaskSeed: 3,
			Runtime: obs.Runtime{Workers: workers},
		})
		if !errors.Is(err, ErrNonFinite) || !errors.Is(err, paillier.ErrNotEncodable) {
			t.Fatalf("workers=%d: err = %v, want ErrNonFinite wrapping paillier.ErrNotEncodable", workers, err)
		}
		if !strings.Contains(err.Error(), "epoch ") {
			t.Errorf("error does not name the epoch: %v", err)
		}
	}
}
