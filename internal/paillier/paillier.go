// Package paillier implements the Paillier additively homomorphic
// cryptosystem over math/big, the encryption primitive behind the paper's
// VFL running example (Algorithm 3 uses Paillier with 1024-bit keys). It
// supports ciphertext addition, plaintext addition, and plaintext scalar
// multiplication, plus a fixed-point encoding so gradients (float64 vectors)
// can be exchanged under encryption.
package paillier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"
)

var one = big.NewInt(1)

// intPool recycles big.Int scratch values across the hot arithmetic paths
// (CRT decryption, encryption randomness, plaintext reduction).
// Only pure intermediates go back to the pool — a value that escapes into
// a Ciphertext or a returned plaintext is never Put, because the caller
// owns it. Pooled values keep their grown backing arrays, so steady-state
// vector encryption/decryption stops allocating limb storage.
var intPool = sync.Pool{New: func() any { return new(big.Int) }}

func getInt() *big.Int  { return intPool.Get().(*big.Int) }
func putInt(x *big.Int) { intPool.Put(x) }

// PublicKey holds the Paillier public parameters (n, g = n+1).
type PublicKey struct {
	N  *big.Int // modulus n = p·q
	N2 *big.Int // n²
}

// PrivateKey holds the decryption parameters. Decryption uses Paillier's
// CRT form: one exponentiation mod p² to the half-size exponent p−1 and
// one mod q² to q−1, instead of a full-size λ mod n².
type PrivateKey struct {
	PublicKey
	p, q     *big.Int
	p2, q2   *big.Int // p², q²
	pm1, qm1 *big.Int // p−1, q−1
	hp, hq   *big.Int // L_p(g^{p−1} mod p²)⁻¹ mod p, and the same for q
	qinv     *big.Int // q⁻¹ mod p, for CRT recombination
}

// Ciphertext is an element of Z*_{n²}.
type Ciphertext struct{ C *big.Int }

// GenerateKey creates a key pair with an n of roughly `bits` bits, reading
// randomness from rnd (use crypto/rand.Reader in production; any reader in
// tests).
func GenerateKey(rnd io.Reader, bits int) (*PrivateKey, error) {
	if bits < 64 {
		return nil, fmt.Errorf("paillier: key size %d too small", bits)
	}
	for {
		p, err := rand.Prime(rnd, bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating p: %w", err)
		}
		q, err := rand.Prime(rnd, bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating q: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		sk := &PrivateKey{
			PublicKey: PublicKey{N: n, N2: new(big.Int).Mul(n, n)},
			p:         p, q: q,
			p2: new(big.Int).Mul(p, p), q2: new(big.Int).Mul(q, q),
			pm1: new(big.Int).Sub(p, one), qm1: new(big.Int).Sub(q, one),
		}
		g := new(big.Int).Add(n, one)
		sk.hp = new(big.Int).ModInverse(lHalf(new(big.Int), g, sk.pm1, p, sk.p2), p)
		sk.hq = new(big.Int).ModInverse(lHalf(new(big.Int), g, sk.qm1, q, sk.q2), q)
		sk.qinv = new(big.Int).ModInverse(q, p)
		// All three inverses exist for distinct primes; rand.Prime only
		// promises probable ones.
		if sk.hp == nil || sk.hq == nil || sk.qinv == nil {
			continue
		}
		return sk, nil
	}
}

// lHalf sets z = L_p(c^{p−1} mod p²) = (c^{p−1} mod p² − 1)/p, the half-size
// analogue of Paillier's L function, given pm1 = p−1 and p2 = p².
func lHalf(z, c, pm1, p, p2 *big.Int) *big.Int {
	z.Mod(c, p2)
	z.Exp(z, pm1, p2)
	z.Sub(z, one)
	return z.Div(z, p)
}

// Encrypt encrypts m ∈ [0, n) with fresh randomness from rnd.
func (pk *PublicKey) Encrypt(rnd io.Reader, m *big.Int) (*Ciphertext, error) {
	if m.Sign() < 0 || m.Cmp(pk.N) >= 0 {
		return nil, fmt.Errorf("paillier: plaintext out of range [0, n)")
	}
	gcd := getInt()
	var r *big.Int
	for {
		var err error
		r, err = rand.Int(rnd, pk.N)
		if err != nil {
			putInt(gcd)
			return nil, fmt.Errorf("paillier: sampling r: %w", err)
		}
		if r.Sign() > 0 && gcd.GCD(nil, nil, r, pk.N).Cmp(one) == 0 {
			break
		}
	}
	putInt(gcd)
	// g^m = (1+n)^m = 1 + m·n (mod n²). gm escapes as the ciphertext; rn is
	// pure scratch and goes back to the pool.
	gm := new(big.Int).Mul(m, pk.N)
	gm.Add(gm, one)
	gm.Mod(gm, pk.N2)
	rn := getInt().Exp(r, pk.N, pk.N2)
	c := gm.Mul(gm, rn)
	c.Mod(c, pk.N2)
	putInt(rn)
	return &Ciphertext{C: c}, nil
}

// Decrypt recovers the plaintext in [0, n): m_p = L_p(c^{p−1} mod p²)·h_p
// mod p, likewise m_q, recombined mod n with Garner's formula.
func (sk *PrivateKey) Decrypt(ct *Ciphertext) (*big.Int, error) {
	if ct == nil || ct.C == nil || ct.C.Sign() <= 0 || ct.C.Cmp(sk.N2) >= 0 {
		return nil, errors.New("paillier: ciphertext out of range")
	}
	mp := lHalf(getInt(), ct.C, sk.pm1, sk.p, sk.p2)
	mp.Mul(mp, sk.hp)
	mp.Mod(mp, sk.p)
	mq := lHalf(getInt(), ct.C, sk.qm1, sk.q, sk.q2)
	mq.Mul(mq, sk.hq)
	mq.Mod(mq, sk.q)
	// m = m_q + q·((m_p − m_q)·q⁻¹ mod p). mp doubles as the diff scratch
	// and m is a fresh value the caller owns, so only mp/mq are recycled.
	mp.Sub(mp, mq)
	mp.Mul(mp, sk.qinv)
	mp.Mod(mp, sk.p)
	m := new(big.Int).Mul(mp, sk.q)
	m.Add(m, mq)
	putInt(mp)
	putInt(mq)
	return m, nil
}

// Add returns the encryption of a+b given encryptions of a and b.
func (pk *PublicKey) Add(a, b *Ciphertext) *Ciphertext {
	c := new(big.Int).Mul(a.C, b.C)
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c}
}

// AddPlain returns the encryption of a+m given an encryption of a and a
// plaintext m ∈ [0, n).
func (pk *PublicKey) AddPlain(a *Ciphertext, m *big.Int) *Ciphertext {
	red := getInt().Mod(m, pk.N)
	gm := new(big.Int).Mul(red, pk.N)
	putInt(red)
	gm.Add(gm, one)
	gm.Mod(gm, pk.N2)
	c := gm.Mul(gm, a.C)
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c}
}

// MulPlain returns the encryption of k·a given an encryption of a and a
// plaintext scalar k: the one-term DotPlain.
func (pk *PublicKey) MulPlain(a *Ciphertext, k *big.Int) *Ciphertext {
	return pk.DotPlain([]*Ciphertext{a}, []*big.Int{k})
}

// Bytes returns the serialized size of a ciphertext in bytes, used by the
// communication-cost accounting.
func (pk *PublicKey) Bytes() int { return (pk.N2.BitLen() + 7) / 8 }
