// Package paillier implements the Paillier additively homomorphic
// cryptosystem over math/big, the encryption primitive behind the paper's
// VFL running example (Algorithm 3 uses Paillier with 1024-bit keys), in
// the Damgård–Jurik–Nielsen form whose encryption randomiser is a short
// power of one fixed base. It
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

// intPool recycles big.Int scratch values across CRT decryption; the modular
// products of the other paths share scratchPool (dot.go).
// Only pure intermediates go back to the pool — a value that escapes into
// a Ciphertext or a returned plaintext is never Put, because the caller
// owns it. Pooled values keep their grown backing arrays, so steady-state
// vector encryption/decryption stops allocating limb storage.
var intPool = sync.Pool{New: func() any { return new(big.Int) }}

func getInt() *big.Int  { return intPool.Get().(*big.Int) }
func putInt(x *big.Int) { intPool.Put(x) }

// PublicKey holds the public parameters (n, h_s) of the Damgård–Jurik–
// Nielsen form of Paillier, g = n+1. It carries the lazily built fixed-base
// table of Hs, so it is handled by pointer only.
type PublicKey struct {
	N  *big.Int // modulus n = p·q
	N2 *big.Int // n²
	Hs *big.Int // h_s = (−x²)^n mod n², the base of every encryption randomiser

	fbOnce sync.Once
	fb     fixedBase // powers of Hs, built on first encryption
	brOnce sync.Once
	br     big.Int // Barrett's μ for n², built on first product (see mulMod)
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
// tests). Both primes are ≡ 3 (mod 4), so −1 is a non-residue of Jacobi
// symbol +1 and h = −x² generates, for a random unit x, the Jacobi-+1
// subgroup the short encryption exponents are drawn over; half of the prime
// candidates are rejected for it.
func GenerateKey(rnd io.Reader, bits int) (*PrivateKey, error) {
	if bits < 64 {
		return nil, fmt.Errorf("paillier: key size %d too small", bits)
	}
	for {
		p, err := blumPrime(rnd, bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating p: %w", err)
		}
		q, err := blumPrime(rnd, bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating q: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		x, err := rand.Int(rnd, n)
		if err != nil {
			return nil, fmt.Errorf("paillier: sampling x: %w", err)
		}
		if new(big.Int).GCD(nil, nil, x, n).Cmp(one) != 0 {
			continue
		}
		n2 := new(big.Int).Mul(n, n)
		// h = −x² mod n, h_s = h^n mod n².
		hs := x.Mul(x, x)
		hs.Sub(n, hs.Mod(hs, n))
		hs.Exp(hs, n, n2)
		sk := &PrivateKey{
			PublicKey: PublicKey{N: n, N2: n2, Hs: hs},
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

// blumPrime draws primes of the given size until one is ≡ 3 (mod 4).
func blumPrime(rnd io.Reader, bits int) (*big.Int, error) {
	for {
		p, err := rand.Prime(rnd, bits)
		if err != nil || p.Bit(1) == 1 {
			return p, err
		}
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

// Encrypt encrypts m ∈ [0, n) with fresh randomness from rnd:
// c = (1 + m·n) · Hs^r mod n², r uniform in [0, 2^⌈|n|/2⌉).
func (pk *PublicKey) Encrypt(rnd io.Reader, m *big.Int) (*Ciphertext, error) {
	if m == nil || m.Sign() < 0 || m.Cmp(pk.N) >= 0 {
		return nil, errors.New("paillier: plaintext out of range [0, n)")
	}
	if err := pk.fixedBase(); err != nil {
		return nil, err
	}
	r, err := rand.Int(rnd, &pk.fb.bound)
	if err != nil {
		return nil, fmt.Errorf("paillier: sampling r: %w", err)
	}
	// g^m = (1+n)^m = 1 + m·n < n². c escapes as the ciphertext.
	c := new(big.Int).Mul(m, pk.N)
	c.Add(c, one)
	pk.mulHsPow(c, r)
	return &Ciphertext{C: c}, nil
}

// Decrypt recovers the plaintext in [0, n): m_p = L_p(c^{p−1} mod p²)·h_p
// mod p, likewise m_q, recombined mod n with Garner's formula.
func (sk *PrivateKey) Decrypt(ct *Ciphertext) (*big.Int, error) {
	if !sk.inRange(ct) {
		return nil, errOutOfRange
	}
	mp, mq := sk.half(getInt(), ct.C, 0), sk.half(getInt(), ct.C, 1)
	return sk.combine(new(big.Int), mp, mq), nil
}

var errOutOfRange = errors.New("paillier: ciphertext out of range")

// inRange reports whether ct is a ciphertext Decrypt accepts: c ∈ (0, n²).
func (sk *PrivateKey) inRange(ct *Ciphertext) bool {
	return ct != nil && ct.C != nil && ct.C.Sign() > 0 && ct.C.Cmp(sk.N2) < 0
}

// half sets z to c's plaintext mod p (i = 0) or mod q (i = 1): one half of a
// CRT decryption, independent of the other.
func (sk *PrivateKey) half(z, c *big.Int, i int) *big.Int {
	p, p2, pm1, h := sk.p, sk.p2, sk.pm1, sk.hp
	if i == 1 {
		p, p2, pm1, h = sk.q, sk.q2, sk.qm1, sk.hq
	}
	lHalf(z, c, pm1, p, p2)
	z.Mul(z, h)
	return z.Mod(z, p)
}

// combine sets m = m_q + q·((m_p − m_q)·q⁻¹ mod p), the plaintext in [0, n),
// and returns the two pooled halves to the pool; m is not one of them.
func (sk *PrivateKey) combine(m, mp, mq *big.Int) *big.Int {
	mp.Sub(mp, mq)
	mp.Mul(mp, sk.qinv)
	mp.Mod(mp, sk.p)
	m.Mul(mp, sk.q)
	m.Add(m, mq)
	putInt(mp)
	putInt(mq)
	return m
}

// Add returns the encryption of a+b given encryptions of a and b.
func (pk *PublicKey) Add(a, b *Ciphertext) *Ciphertext {
	s := scratchPool.Get().(*scratch)
	c := new(big.Int) // escapes as the ciphertext
	pk.mulMod(c, a.C, b.C, s)
	scratchPool.Put(s)
	return &Ciphertext{C: c}
}

// AddPlain returns the encryption of a+m given an encryption of a and a
// plaintext m, taken mod n.
func (pk *PublicKey) AddPlain(a *Ciphertext, m *big.Int) *Ciphertext {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return pk.addPlain(a, s.x.Mod(m, pk.N), s)
}

// addPlain is AddPlain for m ∈ [0, n): a·g^m with g^m = (1+n)^m = 1 + m·n,
// which is below n² as it stands. Only the ciphertext leaves the scratch.
func (pk *PublicKey) addPlain(a *Ciphertext, m *big.Int, s *scratch) *Ciphertext {
	gm := s.y.Mul(m, pk.N)
	gm.Add(gm, one)
	c := new(big.Int)
	pk.mulMod(c, a.C, gm, s)
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
