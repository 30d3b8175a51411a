package vfl

import (
	"crypto/rand"
	"math"
	"math/big"
	"testing"

	"digfl/internal/dataset"
	"digfl/internal/obs"
	"digfl/internal/paillier"
	"digfl/internal/tensor"
)

// The parallel Paillier paths must leave the protocol outputs bit-identical
// to the serial path: the per-element operations are independent and the
// ciphertext accumulations are exact modular products, so no worker budget
// can perturb the decrypted gradients, the model trajectory, or the
// per-epoch contributions.
func TestSecureParallelMatchesSerial(t *testing.T) {
	prob := twoPartyProblem(31, 40, 4)
	run := func(workers int) *SecureNResult {
		res, err := RunSecureN(prob, SecureConfig{
			Epochs: 3, LR: 0.05, KeyBits: 256, MaskSeed: 9,
			Runtime: obs.Runtime{Workers: workers},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	for _, workers := range []int{2, 8, 0} {
		got := run(workers)
		for j := range serial.Theta {
			if got.Theta[j] != serial.Theta[j] {
				t.Fatalf("workers=%d: θ[%d] = %v, want %v", workers, j, got.Theta[j], serial.Theta[j])
			}
		}
		for ti := range serial.PerEpoch {
			for i := range serial.PerEpoch[ti] {
				if got.PerEpoch[ti][i] != serial.PerEpoch[ti][i] {
					t.Fatalf("workers=%d: φ[%d][%d] diverged", workers, ti, i)
				}
			}
		}
		if got.CommBytes != serial.CommBytes {
			t.Fatalf("workers=%d: comm accounting changed: %d vs %d", workers, got.CommBytes, serial.CommBytes)
		}
	}
}

// Same determinism for an n-party ring with uneven blocks, where both the
// across-features and the chunked across-samples accumulation paths engage.
func TestSecureNPartyParallelMatchesSerial(t *testing.T) {
	full := dataset.SynthTabular(dataset.TabularConfig{
		Name: "secpar", N: 48, D: 9, Task: dataset.Regression, Informative: 7, Noise: 0.2, Seed: 33,
	})
	train, val := full.Split(0.25, tensor.NewRNG(33))
	prob := &Problem{Train: train, Val: val, Blocks: dataset.VerticalBlocks(9, 3), Kind: LinReg}
	run := func(workers int) *SecureNResult {
		res, err := RunSecureN(prob, SecureConfig{
			Epochs: 2, LR: 0.05, KeyBits: 256, MaskSeed: 5,
			Runtime: obs.Runtime{Workers: workers},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	parallel := run(6)
	for j := range serial.Theta {
		if parallel.Theta[j] != serial.Theta[j] {
			t.Fatalf("θ[%d] = %v, want %v", j, parallel.Theta[j], serial.Theta[j])
		}
	}
	for i := range serial.Shapley {
		if parallel.Shapley[i] != serial.Shapley[i] {
			t.Fatalf("Shapley[%d] diverged", i)
		}
	}
}

// Step 4 on one fixed [[d]]: whatever the worker budget — per-feature tasks
// or row chunks — the accumulated ciphertexts are the same bits, and they
// decrypt to exactly what the term-by-term c^(k mod n) products the fused
// kernel replaced decrypt to.
func TestMaskedGradientCiphertextsIndependentOfWorkers(t *testing.T) {
	sk, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	pk := &sk.PublicKey
	const m, d = 77, 3
	rng := tensor.NewRNG(41)
	encD, err := pk.EncryptVec(rand.Reader, rng.NormalVec(m, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	cols := rng.NormalVec(d*m, 0, 0.03)
	masks := rng.NormalVec(d, 0, 10)

	serial := maskedGradient(pk, new(paillier.DotTable), encD, cols, masks, 1, nil)
	for _, workers := range []int{2, 8, 100, 1000} {
		got := maskedGradient(pk, new(paillier.DotTable), encD, cols, masks, workers, nil)
		for j := range serial {
			if got[j].C.Cmp(serial[j].C) != 0 {
				t.Fatalf("workers=%d: ciphertext of feature %d differs from the serial one", workers, j)
			}
		}
	}
	checkMaskedGradient(t, sk, serial, encD, cols, masks)
}

// checkMaskedGradient fails unless every masked ciphertext decrypts to
// exactly what the term-by-term c^(k mod n) products decrypt to.
func checkMaskedGradient(tb testing.TB, sk *paillier.PrivateKey, enc, encD []*paillier.Ciphertext, cols, masks []float64) {
	tb.Helper()
	pk, m := &sk.PublicKey, len(encD)
	for j := range enc {
		ref := &paillier.Ciphertext{C: big.NewInt(1)}
		for i := 0; i < m; i++ {
			term := new(big.Int).Exp(encD[i].C, pk.Encode(cols[j*m+i]), pk.N2)
			ref = pk.Add(ref, &paillier.Ciphertext{C: term})
		}
		ref = pk.AddPlain(ref, pk.EncodeAtScale(masks[j], 2))
		got, err := sk.Decrypt(enc[j])
		if err != nil {
			tb.Fatal(err)
		}
		want, err := sk.Decrypt(ref)
		if err != nil {
			tb.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			tb.Fatalf("feature %d decrypts to %v, term-by-term reference to %v", j, got, want)
		}
	}
}

// The run owns step 4's table, so only its first epoch pays for the table's
// entries: a two-epoch run's second epoch must allocate fewer times than
// the first by at least the seven stored powers of every training row, for
// each worker count (with two the calling goroutine changes processor
// between fan-outs, which is what emptied a pooled table).
func TestSecureWarmEpochAllocatesNoTableEntries(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	prob := twoPartyProblem(31, 40, 4)
	sk, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		allocs := func(epochs int) float64 {
			least := math.Inf(1)
			for attempt := 0; attempt < 5; attempt++ {
				least = min(least, testing.AllocsPerRun(3, func() {
					if _, err := RunSecureN(prob, SecureConfig{
						Epochs: epochs, LR: 0.05, Key: sk, MaskSeed: 9,
						Runtime: obs.Runtime{Workers: workers},
					}); err != nil {
						t.Fatal(err)
					}
				}))
			}
			return least
		}
		one, two := allocs(1), allocs(2) // AllocsPerRun's own warm-up run fills the key's comb and the pools
		cold, warm := one, two-one
		entries := float64(7 * prob.Train.Len())
		t.Logf("workers=%d: first epoch and set-up allocate %.0f times, a warm epoch %.0f; %.0f table entries", workers, cold, warm, entries)
		if cold-warm < entries {
			t.Errorf("workers=%d: a warm epoch allocates %.0f times against %.0f for the first: it is re-making some of the %.0f table entries",
				workers, warm, cold, entries)
		}
	}
}
