package paillier

import (
	"fmt"
	"math/big"
	"sync"
)

// dotScratch is the working set of one DotPlain call: per-term signed
// exponents plus the temporaries of the in-place modular products. It is
// pooled whole, so a warm call allocates nothing but its result and the
// one modular inverse.
type dotScratch struct {
	mags         []big.Int // |kᵢ|, kᵢ taken as the signed representative in (−n/2, n/2]
	neg          []bool    // kᵢ < 0
	q, inv, t, d big.Int   // negative-term product, its inverse, product and quotient scratch
}

var dotPool = sync.Pool{New: func() any { return new(dotScratch) }}

func getDotScratch(terms int) *dotScratch {
	s := dotPool.Get().(*dotScratch)
	if cap(s.mags) < terms {
		s.mags, s.neg = make([]big.Int, terms), make([]bool, terms)
	}
	s.mags, s.neg = s.mags[:terms], s.neg[:terms]
	return s
}

// DotPlain returns the encryption of Σ kᵢ·aᵢ given encryptions of the aᵢ
// and plaintext scalars kᵢ — Π cᵢ^{kᵢ} mod n², computed as one fused
// multi-exponentiation. A scalar above n/2 is a negative number under the
// signed encoding, and Dec(c⁻¹) = −Dec(c), so negative terms are raised to
// the short |kᵢ| = n − kᵢ into a product of their own that is inverted
// once: the result is P·Q⁻¹. It decrypts to exactly what the term-by-term
// cᵢ^{kᵢ mod n} product decrypts to; the ciphertext differs from it by an
// encryption-of-zero factor. Only public values are involved — the
// exponents are the caller's own plaintexts.
func (pk *PublicKey) DotPlain(cts []*Ciphertext, ks []*big.Int) *Ciphertext {
	if len(cts) != len(ks) {
		panic(fmt.Sprintf("paillier: DotPlain length mismatch %d vs %d", len(cts), len(ks)))
	}
	s := getDotScratch(len(ks))
	defer dotPool.Put(s)
	half := getInt().Rsh(pk.N, 1)
	for i, k := range ks {
		mag := &s.mags[i]
		mag.Mod(k, pk.N)
		if s.neg[i] = mag.Cmp(half) > 0; s.neg[i] {
			mag.Sub(pk.N, mag)
		}
	}
	putInt(half)
	return pk.dot(cts, s)
}

// dot evaluates P·Q⁻¹ for the signed exponents loaded into s.
func (pk *PublicKey) dot(cts []*Ciphertext, s *dotScratch) *Ciphertext {
	out := new(big.Int) // escapes as the ciphertext
	pk.multiExp(out, cts, s, false)
	if pk.multiExp(&s.q, cts, s, true) == 0 {
		return &Ciphertext{C: out}
	}
	q := s.inv.ModInverse(&s.q, pk.N2)
	if q == nil {
		// Q is not a unit mod n², which takes a ciphertext sharing a
		// factor with n. Nothing can be inverted, so raise the negative
		// terms to the full-length n − |kᵢ| instead, as the textbook
		// cᵢ^{kᵢ mod n} would.
		for i := range s.mags {
			if s.neg[i] {
				s.mags[i].Sub(pk.N, &s.mags[i])
			}
		}
		pk.multiExp(&s.q, cts, s, true)
		q = &s.q
	}
	pk.mulMod(out, q, s)
	return &Ciphertext{C: out}
}

// multiExp sets z = Π cᵢ^{|kᵢ|} mod n² over the terms whose sign matches
// neg, and returns how many there were. Straus interleaving: the product
// shares one squaring chain — one squaring per exponent bit for all terms
// together, one multiplication per set bit.
func (pk *PublicKey) multiExp(z *big.Int, cts []*Ciphertext, s *dotScratch, neg bool) (terms int) {
	bits := 0
	for i := range s.mags {
		if s.neg[i] == neg {
			terms++
			bits = max(bits, s.mags[i].BitLen())
		}
	}
	z.SetUint64(1)
	for b := bits - 1; b >= 0; b-- {
		pk.mulMod(z, z, s)
		for i := range s.mags {
			if s.neg[i] == neg && s.mags[i].Bit(b) == 1 {
				pk.mulMod(z, cts[i].C, s)
			}
		}
	}
	return terms
}

// mulMod sets z = z·x mod n² in place. QuoRem with a caller-supplied
// quotient is what keeps the reduction allocation-free (Mod allocates its
// quotient on every call).
func (pk *PublicKey) mulMod(z, x *big.Int, s *dotScratch) {
	s.t.Mul(z, x)
	s.d.QuoRem(&s.t, pk.N2, z)
}
