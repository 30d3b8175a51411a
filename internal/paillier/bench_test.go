package paillier

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"
)

func benchVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i%13) - 6.5
	}
	return v
}

// BenchmarkEncrypt times one warm encryption — the comb's Hs^r, b − 1
// squarings and at most combSubs·b products for b = ⌈⌈|n|/2⌉/64⌉, then the
// product into 1+m·n: 72 modular products at the paper's key size, 144 at
// twice it.
func BenchmarkEncrypt(b *testing.B) {
	m := big.NewInt(987654321)
	for _, bits := range []int{1024, 2048} {
		b.Run(fmt.Sprint(bits), func(b *testing.B) {
			sk := keyOfBits(b, bits)
			var err error
			if benchCt, err = sk.Encrypt(rand.Reader, m); err != nil { // builds the table
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if benchCt, err = sk.Encrypt(rand.Reader, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncryptVec compares serial vs. pooled vector encryption at the
// paper's 1024-bit modulus — the secure VFL protocol's per-epoch hot path.
// Decrypted plaintexts are asserted identical before timing.
func BenchmarkEncryptVec(b *testing.B) {
	sk := keyOfBits(b, 1024)
	pk := &sk.PublicKey
	v := benchVec(64)
	serialCts, err := pk.EncryptVec(rand.Reader, v)
	if err != nil {
		b.Fatal(err)
	}
	want, err := sk.DecryptVec(serialCts)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel8", 8},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			cts, err := pk.EncryptVecN(rand.Reader, v, cfg.workers)
			if err != nil {
				b.Fatal(err)
			}
			got, err := sk.DecryptVecN(cts, cfg.workers)
			if err != nil {
				b.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					b.Fatalf("parallel encryption changed plaintext %d", i)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pk.EncryptVecN(rand.Reader, v, cfg.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecryptVec compares serial vs. pooled vector decryption (CRT
// exponentiations dominate).
func BenchmarkDecryptVec(b *testing.B) {
	sk := keyOfBits(b, 1024)
	pk := &sk.PublicKey
	cts, err := pk.EncryptVec(rand.Reader, benchVec(64))
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel8", 8},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sk.DecryptVecN(cts, cfg.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var benchCt *Ciphertext

// BenchmarkMulPlain times one float scalar multiplication at the paper's key
// size. Before the signed short exponents a negative scalar cost a
// full-length exponentiation, 11× a positive one; the two must now agree to
// within the one modular inverse.
func BenchmarkMulPlain(b *testing.B) {
	sk := keyOfBits(b, 1024)
	pk := &sk.PublicKey
	ct, err := pk.EncryptFloat(rand.Reader, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		v    float64
	}{
		{"pos", 0.731},
		{"neg", -0.731},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchCt = pk.MulPlainFloat(ct, cfg.v)
			}
		})
	}
}

// BenchmarkDotPlain times the exponentiation kernel on one column of the
// secure epoch's training shape — 77 encrypted residuals against one feature
// — on a warm table; vfl's BenchmarkMaskedGradient is a party's three.
func BenchmarkDotPlain(b *testing.B) {
	sk := keyOfBits(b, 1024)
	pk := &sk.PublicKey
	vs := benchVec(77)
	for i := range vs {
		vs[i] *= 0.004 // ≈ (2/m)·x_ij
	}
	cts, err := pk.EncryptVec(rand.Reader, vs)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("77", func(b *testing.B) {
		tab := new(DotTable)
		if got, want := pk.DotPlainFloatCols(tab, cts, vs, 1, nil)[0], bitByBitDot(pk, cts, vs); got.C.Cmp(want.C) != 0 {
			b.Fatal("the kernel's residue is not the bit-by-bit reference's")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchCt = pk.DotPlainFloatCols(tab, cts, vs, 1, nil)[0]
		}
	})
}

// BenchmarkDecrypt times one CRT decryption (two half-size exponentiations
// to half-size exponents).
func BenchmarkDecrypt(b *testing.B) {
	sk := keyOfBits(b, 1024)
	ct, err := sk.EncryptFloat(rand.Reader, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}
