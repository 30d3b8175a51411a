package vfl

import (
	"math"
	"testing"

	"digfl/internal/dataset"
	"digfl/internal/tensor"
)

// nPartyProblem builds a small n-party linear regression problem.
func nPartyProblem(seed int64, rows, d, n int) *Problem {
	full := dataset.SynthTabular(dataset.TabularConfig{
		Name: "np", N: rows, D: d, Task: dataset.Regression, Informative: d - 1, Noise: 0.2, Seed: seed,
	})
	train, val := full.Split(0.25, tensor.NewRNG(seed))
	return &Problem{Train: train, Val: val, Blocks: dataset.VerticalBlocks(d, n), Kind: LinReg}
}

// The n-party protocol must reproduce the plaintext trainer's trajectory and
// per-epoch contributions for every party.
func TestSecureNMatchesPlaintext(t *testing.T) {
	prob := nPartyProblem(1, 40, 6, 3)
	cfg := SecureConfig{Epochs: 4, LR: 0.05, KeyBits: 256, MaskSeed: 7}
	sec, err := RunSecureN(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain := &Trainer{Problem: prob, Cfg: Config{Epochs: cfg.Epochs, LR: cfg.LR, KeepLog: true}}
	res := plain.Run()
	for j := range sec.Theta {
		if math.Abs(sec.Theta[j]-res.Model.Params()[j]) > 1e-6 {
			t.Fatalf("θ[%d]: secure %v vs plaintext %v", j, sec.Theta[j], res.Model.Params()[j])
		}
	}
	for ti, ep := range res.Log {
		for i, b := range prob.Blocks {
			var want float64
			for j := b.Lo; j < b.Hi; j++ {
				want += float64(ep.ValGrad[j] * ep.Grad[j])
			}
			if got := sec.PerEpoch[ti][i]; math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
				t.Fatalf("epoch %d party %d: secure φ %v vs plaintext %v", ti+1, i, got, want)
			}
		}
	}
}

func TestSecureNCommGrowsWithParties(t *testing.T) {
	cfg := SecureConfig{Epochs: 2, LR: 0.05, KeyBits: 256, MaskSeed: 3}
	two, err := RunSecureN(nPartyProblem(3, 36, 6, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	three, err := RunSecureN(nPartyProblem(3, 36, 6, 3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if three.CommBytes <= two.CommBytes {
		t.Fatalf("3-party comm (%d) should exceed 2-party (%d)", three.CommBytes, two.CommBytes)
	}
}

func TestSecureNRejectsBadInput(t *testing.T) {
	prob := nPartyProblem(4, 36, 4, 2)
	if _, err := RunSecureN(prob, SecureConfig{Epochs: 0, LR: 0.1, KeyBits: 256}); err == nil {
		t.Fatal("zero epochs must error")
	}
	if _, err := RunSecureN(prob, SecureConfig{Epochs: 1, LR: 0, KeyBits: 256}); err == nil {
		t.Fatal("zero learning rate must error")
	}
}
