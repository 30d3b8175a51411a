package paillier

import (
	"crypto/rand"
	"fmt"
	"math/big"
	mrand "math/rand"
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

// BenchmarkDecryptVec times step 5's vector decryption at 1024 bits on
// GOMAXPROCS workers: nine masked gradients at scale Scale², eighteen CRT
// halves. The result is checked against per-element DecryptFloatAtScale
// first.
func BenchmarkDecryptVec(b *testing.B) {
	sk := keyOfBits(b, 1024)
	pk := &sk.PublicKey
	b.Run("9", func(b *testing.B) {
		cts := make([]*Ciphertext, 9)
		for i := range cts {
			cts[i] = pk.MulPlainFloat(mustEncryptFloat(b, pk, float64(i)-4.5), 0.731)
		}
		checkDecryptVec(b, sk, cts, 2, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sk.DecryptVecAtScale(cts, 2, 0, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

var benchCt *Ciphertext

// BenchmarkMulMod times one in-place modular product z = z·y (mul) and one
// squaring z = z·z (sqr) mod n², the step every Algorithm 3 kernel is made
// of, on a warm scratch. Each is checked against the QuoRem reference first.
func BenchmarkMulMod(b *testing.B) {
	for _, bits := range []int{1024, 2048} {
		pk := mulModKey(bits, int64(bits))
		rng := mrand.New(mrand.NewSource(int64(bits)))
		x, y := new(big.Int).Rand(rng, pk.N2), new(big.Int).Rand(rng, pk.N2)
		for _, op := range []string{"mul", "sqr"} {
			b.Run(fmt.Sprintf("%d/%s", bits, op), func(b *testing.B) {
				s, z, f := new(scratch), new(big.Int).Set(x), y
				if op == "sqr" {
					f = z
				}
				want := quoRemMulMod(pk, z, f)
				if pk.mulMod(z, z, f, s); z.Cmp(want) != 0 {
					b.Fatal("mulMod is not the QuoRem reference")
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pk.mulMod(z, z, f, s)
				}
			})
		}
	}
}

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
