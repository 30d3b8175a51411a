package paillier

import (
	"errors"
	"math/big"
)

// fbWindow is the digit width of the fixed-base table: an exponent is read
// as base-2^fbWindow digits and Hs^r is the product of one table entry per
// non-zero digit, with no squarings. At 1024 bits, 4 is 128 rows × 15
// residues ≈ 0.5 MiB per key; 5 and 6 save a further 20–25 % of an
// encryption for 0.8 and 1.4 MiB.
const (
	fbWindow = 4
	fbDigits = 1<<fbWindow - 1 // non-zero digit values
)

// randBits is the bit length of an encryption exponent: ⌈|n|/2⌉, the
// Damgård–Jurik–Nielsen rule.
func (pk *PublicKey) randBits() int { return (pk.N.BitLen() + 1) / 2 }

// fixedBase is the per-key state of encryption: the exclusive bound of the
// exponent draw and the table of Hs powers. It is read-only once built and
// shared by every encrypting goroutine.
type fixedBase struct {
	bound big.Int   // 2^randBits
	pows  []big.Int // pows[i·fbDigits + d−1] = Hs^(d·2^(fbWindow·i)) mod n²
	err   error     // why the key cannot encrypt
}

// fixedBase builds pk.fb on first use and reports whether the key can
// encrypt.
func (pk *PublicKey) fixedBase() error {
	pk.fbOnce.Do(pk.buildFixedBase)
	return pk.fb.err
}

func (pk *PublicKey) buildFixedBase() {
	fb := &pk.fb
	if pk.Hs == nil {
		fb.err = errors.New("paillier: public key has no Hs")
		return
	}
	if pk.Hs.Sign() <= 0 || pk.Hs.Cmp(pk.N2) >= 0 || new(big.Int).GCD(nil, nil, pk.Hs, pk.N).Cmp(one) != 0 {
		fb.err = errors.New("paillier: public key Hs is not a unit mod n²")
		return
	}
	k := pk.randBits()
	fb.bound.Lsh(one, uint(k))
	rows := (k + fbWindow - 1) / fbWindow
	fb.pows = make([]big.Int, rows*fbDigits)
	s := getDotScratch(0)
	defer dotPool.Put(s)
	// Every entry is its predecessor times the first entry of the
	// predecessor's row: inside a row that steps the digit d → d+1, and from a
	// row's last entry it yields the next row's first, Hs^(2^fbWindow·2^(fbWindow·i)).
	fb.pows[0].Set(pk.Hs)
	for i := 1; i < len(fb.pows); i++ {
		p := fb.pows[i].Set(&fb.pows[i-1])
		pk.mulMod(p, &fb.pows[(i-1)-(i-1)%fbDigits], s)
	}
}

// mulHsPow sets z = z·Hs^r mod n² in place for 0 ≤ r < pk.fb.bound, the
// table built: one modular product per non-zero digit of r.
func (pk *PublicKey) mulHsPow(z, r *big.Int) {
	s := getDotScratch(0)
	defer dotPool.Put(s)
	for i, bits := 0, r.BitLen(); i*fbWindow < bits; i++ {
		d := uint(0)
		for b := fbWindow - 1; b >= 0; b-- {
			d = d<<1 | r.Bit(i*fbWindow+b)
		}
		if d != 0 {
			pk.mulMod(z, &pk.fb.pows[i*fbDigits+int(d)-1], s)
		}
	}
}
