package robust

import (
	"context"
	"reflect"
	"testing"

	"digfl/internal/hfl"
	"digfl/internal/nn"
)

// proxTrainer builds a clean multi-step federation with the given proximal
// coefficient.
func proxTrainer(mu float64, steps int) *hfl.Trainer {
	parts, train, val := corruptedFederation(17, 4, 0)
	cfg := hfl.Config{Epochs: 6, LR: 0.3, LocalSteps: steps}
	cfg = FedProx{Mu: mu}.Apply(cfg)
	return &hfl.Trainer{
		Model: nn.NewSoftmaxRegression(train.Dim(), train.Classes),
		Parts: parts,
		Val:   val,
		Cfg:   cfg,
	}
}

// TestFedProxZeroMuBitIdentical pins the defense's safety property: μ = 0
// adds exactly nothing, so a FedProx-configured multi-step run is
// bit-identical to the undefended run.
func TestFedProxZeroMuBitIdentical(t *testing.T) {
	plain, err := proxTrainer(0, 3).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	prox := proxTrainer(0, 3)
	if prox.Cfg.Prox != 0 {
		t.Fatalf("Apply(0) set Prox = %v", prox.Cfg.Prox)
	}
	defended, err := prox.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Model.Params(), defended.Model.Params()) {
		t.Fatal("μ=0 run not bit-identical to undefended run")
	}
	if !reflect.DeepEqual(plain.ValLossCurve, defended.ValLossCurve) {
		t.Fatal("μ=0 loss curve diverged")
	}
}

// TestFedProxAnchorsMultiStepDrift: a positive μ must change multi-step
// local updates (the proximal term is live) while still training to a
// finite, decreasing loss.
func TestFedProxAnchorsMultiStepDrift(t *testing.T) {
	plain, err := proxTrainer(0, 3).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defended, err := proxTrainer(0.5, 3).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(plain.Model.Params(), defended.Model.Params()) {
		t.Fatal("μ=0.5 multi-step run identical to μ=0 — proximal term is dead")
	}
	if defended.FinalLoss >= defended.InitLoss {
		t.Fatalf("FedProx run did not train: %v -> %v", defended.InitLoss, defended.FinalLoss)
	}
}

// TestFedProxSingleStepNoop: with one local step the local model never
// leaves θ, so the proximal term vanishes identically and μ > 0 is
// bit-identical to the plain run.
func TestFedProxSingleStepNoop(t *testing.T) {
	plain, err := proxTrainer(0, 1).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defended, err := proxTrainer(0.5, 1).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Model.Params(), defended.Model.Params()) {
		t.Fatal("single-step μ>0 run not bit-identical to plain run")
	}
}

// TestProxAddHandComputed pins the shared primitive: g += μ·(w − θ), and
// μ = 0 leaves g untouched (early return, no FLOPs).
func TestProxAddHandComputed(t *testing.T) {
	g := []float64{1, 2}
	hfl.ProxAdd(0.5, g, []float64{3, 4}, []float64{1, 1})
	if g[0] != 2 || g[1] != 3.5 {
		t.Fatalf("ProxAdd: got %v, want [2 3.5]", g)
	}
	g = []float64{1, 2}
	hfl.ProxAdd(0, g, []float64{3, 4}, []float64{1, 1})
	if g[0] != 1 || g[1] != 2 {
		t.Fatalf("ProxAdd μ=0 mutated g: %v", g)
	}
}
