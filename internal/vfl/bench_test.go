package vfl

import (
	"crypto/rand"
	"fmt"
	"testing"

	"digfl/internal/obs"
	"digfl/internal/paillier"
	"digfl/internal/tensor"
)

// BenchmarkSecureEpoch measures the full encrypted protocol (Algorithm 3)
// serial vs. on the bounded pool: vector encryption, ring folds, the
// per-feature fused dot products, and decryption are all Paillier-bound, so
// this is the protocol's wall-clock ceiling. The third-party key is
// provisioned once so the benchmark times the protocol, not key generation;
// parallel θ, φ and communication cost are asserted bit-identical to serial
// before timing.
func BenchmarkSecureEpoch(b *testing.B) {
	prob := twoPartyProblem(97, 64, 8)
	sk, err := paillier.GenerateKey(rand.Reader, 1024)
	if err != nil {
		b.Fatal(err)
	}
	run := func(workers int) *SecureNResult {
		res, err := RunSecureN(prob, SecureConfig{
			Epochs: 1, LR: 0.05, Key: sk, MaskSeed: 3,
			Runtime: obs.Runtime{Workers: workers},
		})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	serial := run(1)
	for _, cfg := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel8", 8},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			got := run(cfg.workers)
			if !sameVec(got.Theta, serial.Theta) || !sameVec(got.PerEpoch[0], serial.PerEpoch[0]) ||
				got.CommBytes != serial.CommBytes {
				b.Fatalf("workers=%d diverged from serial", cfg.workers)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(cfg.workers)
			}
		})
	}
}

// BenchmarkMaskedGradient times Algorithm 3 step 4 for one party of the
// vfl-secure benchmark cell, single-threaded: three features against the 77
// training and the 19 validation residuals at 1024 bits, on a warm table.
// The output is checked against the term-by-term reference before timing.
func BenchmarkMaskedGradient(b *testing.B) {
	sk, err := paillier.GenerateKey(rand.Reader, 1024)
	if err != nil {
		b.Fatal(err)
	}
	pk := &sk.PublicKey
	for _, m := range []int{77, 19} {
		b.Run(fmt.Sprintf("%dx3", m), func(b *testing.B) {
			const d = 3
			rng := tensor.NewRNG(int64(m))
			encD, err := pk.EncryptVec(rand.Reader, rng.NormalVec(m, 0, 2))
			if err != nil {
				b.Fatal(err)
			}
			cols := rng.NormalVec(d*m, 0, 2/float64(m))
			masks := rng.NormalVec(d, 0, 10)
			tab := new(paillier.DotTable)
			checkMaskedGradient(b, sk, maskedGradient(pk, tab, encD, cols, masks, 1, nil), encD, cols, masks)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				maskedGradient(pk, tab, encD, cols, masks, 1, nil)
			}
		})
	}
}
