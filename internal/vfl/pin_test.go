package vfl

import (
	"crypto/sha256"
	"encoding/hex"
	"math/big"
	mrand "math/rand"
	"testing"

	"digfl/internal/dataset"
	"digfl/internal/paillier"
	"digfl/internal/tensor"
)

// pinReader is seeded, deterministic entropy for key generation and
// encryption. It answers a one-byte read with a zero and does not advance:
// crypto/rand.Prime reads one byte or none, at random, before its draws, and
// this makes the key a function of the seed alone.
type pinReader struct{ rng *mrand.Rand }

func (r pinReader) Read(b []byte) (int, error) {
	if len(b) == 1 {
		b[0] = 0
		return 1, nil
	}
	return r.rng.Read(b)
}

// Every ciphertext residue of a 3-party secure epoch — step 2's encryptions
// of the residual, [[d]] after each ring fold and every party's masked step-4
// gradients, for the training and the validation call — hashed with SHA-256
// on one fixed 1024-bit key and deterministic randomness, over 3 seeds. The
// hashes were printed by this test at commit c4cf372, where every modular
// product was a Mul and a QuoRem: how a product is reduced must not move a
// bit.
func TestSecureEpochCiphertextsPinned(t *testing.T) {
	sk, err := paillier.GenerateKey(pinReader{mrand.New(mrand.NewSource(1))}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	pk := &sk.PublicKey
	const wantKey = "eb39cdfb5a9703664cbda4bf9086c02dc39c48eeecdf2908ae8f917e3fff8900"
	if got := hexSum(pk.N); got != wantKey {
		t.Fatalf("the pinned key moved (n hashes to %s, want %s): crypto/rand.Prime or GenerateKey changed, not the arithmetic", got, wantKey)
	}
	for seed, want := range map[int64]string{
		31: "f4bf6e6672c488ec9e636a20f8c5a0b18752bf0d1ad1b15eeb608b6f989d0149",
		32: "f4a467c8ad95dad3a6cb0ad6f28661efa7e744e5658affbaa53e832a32337a3d",
		33: "1e95e70113727583d5c920378ee07b2bd7ca811bfb4d160980754806d64ae717",
	} {
		rnd := pinReader{mrand.New(mrand.NewSource(seed))}
		rng := tensor.NewRNG(seed)
		prob := nPartyProblem(seed, 96, 9, 3)
		thetas := make([][]float64, len(prob.Blocks))
		for i, b := range prob.Blocks {
			thetas[i] = rng.NormalVec(b.Size(), 0, 0.5)
		}
		h := sha256.New()
		put := func(cts []*paillier.Ciphertext) {
			for _, ct := range cts {
				h.Write(ct.C.Bytes())
			}
		}
		var tab paillier.DotTable
		for _, set := range []dataset.Dataset{prob.Train, prob.Val} {
			m := len(set.Y)
			block := func(i int) *tensor.Matrix {
				idx := make([]int, 0, prob.Blocks[i].Size())
				for j := prob.Blocks[i].Lo; j < prob.Blocks[i].Hi; j++ {
					idx = append(idx, j)
				}
				return set.X.SelectCols(idx)
			}
			e := tensor.MatVec(block(0), thetas[0])
			for i := range e {
				e[i] -= set.Y[i]
			}
			encD, err := pk.EncryptVecN(rnd, e, 1)
			if err != nil {
				t.Fatal(err)
			}
			put(encD)
			for p := 1; p < len(prob.Blocks); p++ {
				share := tensor.MatVec(block(p), thetas[p])
				for i := range encD {
					encD[i] = pk.AddPlainFloat(encD[i], share[i])
				}
				put(encD)
			}
			for p := range prob.Blocks {
				x := block(p)
				cols := make([]float64, x.Cols*m)
				for j := 0; j < x.Cols; j++ {
					for i := 0; i < m; i++ {
						cols[j*m+i] = 2 / float64(m) * x.At(i, j)
					}
				}
				put(maskedGradient(pk, &tab, encD, cols, rng.NormalVec(x.Cols, 0, 10), 2, nil))
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("seed %d: the epoch's ciphertexts hash to %s, want %s", seed, got, want)
		}
	}
}

func hexSum(x *big.Int) string {
	s := sha256.Sum256(x.Bytes())
	return hex.EncodeToString(s[:])
}
