package vfl

import (
	"crypto/rand"
	"testing"

	"digfl/internal/obs"
	"digfl/internal/paillier"
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
