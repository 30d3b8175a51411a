package vfl

import (
	"math"
	"testing"

	"digfl/internal/dataset"
	"digfl/internal/nn"
	"digfl/internal/tensor"
)

// twoPartyProblem builds a small two-party linear regression problem.
func twoPartyProblem(seed int64, rows, d int) *Problem {
	full := dataset.SynthTabular(dataset.TabularConfig{
		Name: "sec", N: rows, D: d, Task: dataset.Regression, Informative: d - 1, Noise: 0.2, Seed: seed,
	})
	train, val := full.Split(0.25, tensor.NewRNG(seed))
	return &Problem{Train: train, Val: val, Blocks: dataset.VerticalBlocks(d, 2), Kind: LinReg}
}

// The secure protocol must reproduce the plaintext trainer's trajectory to
// fixed-point tolerance: same final model, same per-epoch contributions.
func TestSecureMatchesPlaintext(t *testing.T) {
	prob := twoPartyProblem(1, 48, 4)
	cfg := SecureConfig{Epochs: 5, LR: 0.05, KeyBits: 256, MaskSeed: 7}
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
	// Per-epoch contributions match Eq. 27 computed from the plaintext log.
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
	if sec.CommBytes <= 0 {
		t.Fatal("communication cost must be accounted")
	}
}

func TestSecureShapleyAggregation(t *testing.T) {
	prob := twoPartyProblem(2, 40, 4)
	sec, err := RunSecureN(prob, SecureConfig{Epochs: 4, LR: 0.05, KeyBits: 256, MaskSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var s0, s1 float64
	for _, pe := range sec.PerEpoch {
		s0 += pe[0]
		s1 += pe[1]
	}
	if math.Abs(s0-sec.Shapley[0]) > 1e-12 || math.Abs(s1-sec.Shapley[1]) > 1e-12 {
		t.Fatal("Shapley must be the sum of per-epoch contributions")
	}
}

// The informative-feature party must receive the larger contribution.
func TestSecureContributionRanksParties(t *testing.T) {
	// Party 1 gets 3 informative features; party 2 gets 1 informative + 2 noise.
	full := dataset.SynthTabular(dataset.TabularConfig{
		Name: "rank", N: 60, D: 6, Task: dataset.Regression, Informative: 3, Noise: 0.2, Seed: 4,
	})
	train, val := full.Split(0.25, tensor.NewRNG(4))
	prob := &Problem{Train: train, Val: val, Blocks: dataset.VerticalBlocks(6, 2), Kind: LinReg}
	sec, err := RunSecureN(prob, SecureConfig{Epochs: 6, LR: 0.05, KeyBits: 256, MaskSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if sec.Shapley[0] <= sec.Shapley[1] {
		t.Fatalf("informative party should dominate: %v vs %v", sec.Shapley[0], sec.Shapley[1])
	}
}

func TestSecureRejectsBadInput(t *testing.T) {
	prob := twoPartyProblem(5, 40, 4)
	if _, err := RunSecureN(prob, SecureConfig{Epochs: 0, LR: 0.1, KeyBits: 256}); err == nil {
		t.Fatal("zero epochs must error")
	}
	one := twoPartyProblem(6, 40, 4)
	one.Blocks = dataset.VerticalBlocks(4, 1)
	if _, err := RunSecureN(one, SecureConfig{Epochs: 1, LR: 0.1, KeyBits: 256}); err == nil {
		t.Fatal("a single party must error")
	}
}

// twoPartyLogRegProblem builds a small binary two-party problem.
func twoPartyLogRegProblem(seed int64, rows, d int) *Problem {
	full := dataset.SynthTabular(dataset.TabularConfig{
		Name: "seclog", N: rows, D: d, Task: dataset.Classification,
		Informative: d - 1, Noise: 0.2, Seed: seed,
	})
	train, val := full.Split(0.25, tensor.NewRNG(seed))
	return &Problem{Train: train, Val: val, Blocks: dataset.VerticalBlocks(d, 2), Kind: LogReg}
}

// taylorLogGrad is the plaintext reference for the secure logistic path:
// ∇ of the Hardy et al. Taylor-approximated cross-entropy,
// (1/m)·Σ (z_i/4 − ỹ_i/2)·x_i with ỹ = 2y−1.
func taylorLogGrad(x *tensor.Matrix, y, theta []float64) []float64 {
	z := tensor.MatVec(x, theta)
	for i := range z {
		z[i] = float64(0.25*z[i]) - float64(0.5*(float64(2*y[i])-1))
	}
	g := tensor.MatTVec(x, z)
	tensor.Scale(1/float64(x.Rows), g)
	return g
}

// The secure logistic path must reproduce plaintext Taylor-gradient descent.
func TestSecureLogRegMatchesTaylorPlaintext(t *testing.T) {
	prob := twoPartyLogRegProblem(8, 48, 4)
	cfg := SecureConfig{Epochs: 5, LR: 0.4, KeyBits: 256, MaskSeed: 13}
	sec, err := RunSecureN(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	theta := make([]float64, 4)
	for e := 0; e < cfg.Epochs; e++ {
		g := taylorLogGrad(prob.Train.X, prob.Train.Y, theta)
		tensor.AXPY(-cfg.LR, g, theta)
	}
	for j := range theta {
		if math.Abs(sec.Theta[j]-theta[j]) > 1e-6 {
			t.Fatalf("θ[%d]: secure %v vs plaintext Taylor %v", j, sec.Theta[j], theta[j])
		}
	}
}

// The Taylor-trained secure model must actually classify: training loss of
// the exact logistic model at the secure θ beats the θ=0 baseline.
func TestSecureLogRegLearns(t *testing.T) {
	prob := twoPartyLogRegProblem(9, 60, 4)
	sec, err := RunSecureN(prob, SecureConfig{Epochs: 8, LR: 0.5, KeyBits: 256, MaskSeed: 17})
	if err != nil {
		t.Fatal(err)
	}
	model := nn.NewLogisticRegression(4, false)
	base := model.Loss(prob.Val.X, prob.Val.Y)
	model.SetParams(sec.Theta)
	if got := model.Loss(prob.Val.X, prob.Val.Y); got >= base {
		t.Fatalf("secure logreg did not learn: %v -> %v", base, got)
	}
	// The per-epoch contributions must equal Eq. 27 evaluated on the
	// plaintext Taylor trajectory.
	theta := make([]float64, 4)
	const lr = 0.5
	for e := 0; e < 8; e++ {
		g := taylorLogGrad(prob.Train.X, prob.Train.Y, theta)
		v := taylorLogGrad(prob.Val.X, prob.Val.Y, theta)
		for i, b := range prob.Blocks {
			var want float64
			for j := b.Lo; j < b.Hi; j++ {
				want += float64(v[j] * lr * g[j])
			}
			if got := sec.PerEpoch[e][i]; math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
				t.Fatalf("epoch %d party %d: secure φ %v vs plaintext %v", e+1, i, got, want)
			}
		}
		tensor.AXPY(-lr, g, theta)
	}
}
