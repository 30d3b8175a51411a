// vfl_credit: a vertical federation for credit scoring. Three institutions
// hold different feature blocks for the same customers — a bank (payment
// history, genuinely predictive), a telecom (mildly predictive usage
// features), and a data broker (noise). They jointly train vertical
// logistic regression; DIG-FL attributes the model's quality to each
// institution so rewards can be split fairly — and flags the broker's
// features as worthless without ever seeing anyone's raw data.
//
// The example finishes with the paper's Algorithm 3: the same contribution
// computation for a two-party vertical *linear* regression running under
// real Paillier encryption with masked gradients.
//
//	go run ./examples/vfl_credit
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"digfl"
	"digfl/internal/tensor"
)

func main() {
	rng := tensor.NewRNG(23)

	// 9 features: 0-3 strong (bank), 4-6 weak-but-real (telecom), 7-8 noise
	// (broker). SynthTabular plants signal on the first Informative
	// features, so the block split below realizes exactly this story.
	full := digfl.SynthTabular(digfl.TabularConfig{
		Name: "credit", N: 2000, D: 9, Task: digfl.Classification,
		Informative: 7, Noise: 0.4, Seed: 23,
	})
	train, val := full.Split(0.15, rng)
	blocks := []digfl.Block{{Lo: 0, Hi: 4}, {Lo: 4, Hi: 7}, {Lo: 7, Hi: 9}}
	names := []string{"bank", "telecom", "data broker"}

	prob := &digfl.VFLProblem{Train: train, Val: val, Blocks: blocks, Kind: digfl.VFLLogReg}
	tr := &digfl.VFLTrainer{Problem: prob, Cfg: digfl.VFLConfig{Epochs: 40, LR: 0.5, KeepLog: true}}

	fmt.Println("training vertical logistic regression across 3 institutions...")
	res, err := tr.RunContext(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  validation loss %.4f -> %.4f\n\n", res.InitLoss, res.FinalLoss)

	attr := digfl.EstimateVFL(res.Log, blocks, digfl.ResourceSaving, nil)
	actual := digfl.ExactShapley(len(blocks), func(s []int) float64 { return tr.Utility(s) })

	fmt.Println("per-institution contribution:")
	fmt.Printf("  %-12s %10s %10s %10s\n", "party", "DIG-FL", "actual", "reward")
	weights := digfl.ReweightWeights(attr.Totals)
	for i, name := range names {
		fmt.Printf("  %-12s %10.4f %10.4f %9.1f%%\n", name, attr.Totals[i], actual[i], 100*weights[i])
	}
	fmt.Printf("  (PCC estimate vs actual: %.3f)\n\n", digfl.Pearson(attr.Totals, actual))

	// Algorithm 3: the same computation under additively homomorphic
	// encryption, for the two-party linear-regression running example.
	fmt.Println("secure two-party demo (Paillier-1024, Algorithm 3)...")
	secFull := digfl.SynthTabular(digfl.TabularConfig{
		Name: "credit-2p", N: 120, D: 6, Task: digfl.Regression,
		Informative: 4, Noise: 0.3, Seed: 29,
	})
	secTrain, secVal := secFull.Split(0.2, rng)
	secProb := &digfl.VFLProblem{
		Train:  secTrain,
		Val:    secVal,
		Blocks: digfl.VerticalBlocks(6, 2),
		Kind:   digfl.VFLLinReg,
	}
	start := time.Now()
	sec, err := digfl.RunSecureN(secProb, digfl.SecureConfig{
		Epochs: 5, LR: 0.05, KeyBits: 1024, MaskSeed: 31,
	})
	if err != nil {
		log.Fatalf("secure protocol: %v", err)
	}
	fmt.Printf("  5 encrypted epochs in %.1fs, %.2f MB of ciphertext exchanged\n",
		time.Since(start).Seconds(), float64(sec.CommBytes)/1e6)
	fmt.Printf("  party contributions under encryption: p1=%.4f p2=%.4f\n",
		sec.Shapley[0], sec.Shapley[1])
	fmt.Println("  (no party ever sees another party's features, labels, or gradients)")
}
