package paillier

import (
	"errors"
	"math/big"
)

// The fixed-base table is a Lim–Lee comb (CRYPTO '94). The exponent r is
// read as combBlocks blocks of a bits, each block as up to combSubs
// sub-blocks of b bits. Bit t of sub-block j of every block together form
// one combBlocks-bit index into sub-table j, whose entry is the product of
// the blocks' Hs^(2^(a·i+b·j)) the index selects; Hs^r is then
//
//	Π_t ( Π_j sub-table_j[index(j, t)] )^(2^t)
//
// — b − 1 squarings and one product per non-zero index, 7 + 64 at 1024 bits
// where a table of the same size read as 4-bit digits spent 120 products.
// 8 × 8 at 1024 bits is 8 sub-tables × 255 residues ≈ 0.5 MiB per key.
const (
	combBlocks  = 8
	combSubs    = 8
	combEntries = 1<<combBlocks - 1 // non-zero indices of one sub-table
)

// randBits is the bit length of an encryption exponent: ⌈|n|/2⌉, the
// Damgård–Jurik–Nielsen rule.
func (pk *PublicKey) randBits() int { return (pk.N.BitLen() + 1) / 2 }

// fixedBase is the per-key state of encryption: the exclusive bound of the
// exponent draw and the comb of Hs powers. It is read-only once built and
// shared by every encrypting goroutine.
type fixedBase struct {
	bound big.Int // 2^randBits
	a, b  int     // block and sub-block length in bits; a block's last sub-block may be shorter
	// pows[j·combEntries+u−1] = Π over the set bits i of u of Hs^(2^(a·i+b·j)) mod n²
	pows []big.Int
	err  error // why the key cannot encrypt
}

// subs is the number of sub-tables: ⌈a/b⌉, combSubs unless the key is tiny.
func (fb *fixedBase) subs() int { return len(fb.pows) / combEntries }

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
	fb.a = (k + combBlocks - 1) / combBlocks
	fb.b = (fb.a + combSubs - 1) / combSubs
	subs := (fb.a + fb.b - 1) / fb.b
	fb.pows = make([]big.Int, subs*combEntries)
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	// The single-bit indices first: b·j < a, so the exponents a·i + b·j rise
	// with (i, j) and one squaring chain visits them all.
	x, e := s.x.Set(pk.Hs), 0
	for i := 0; i < combBlocks; i++ {
		for j := 0; j < subs; j++ {
			for ; e < fb.a*i+fb.b*j; e++ {
				pk.mulMod(x, x, x, s)
			}
			fb.pows[j*combEntries+1<<i-1].Set(x)
		}
	}
	// Every other index is its lowest set bit times the rest.
	for j := 0; j < subs; j++ {
		sub := fb.pows[j*combEntries : (j+1)*combEntries]
		for u := 1; u <= combEntries; u++ {
			if rest := u & (u - 1); rest != 0 {
				pk.mulMod(&sub[u-1], &sub[rest-1], &sub[u&-u-1], s)
			}
		}
	}
}

// mulHsPow sets z = z·Hs^r mod n² in place for 0 ≤ r < pk.fb.bound, the
// table built. Zero indices are skipped, as the zero digits of the window
// table this replaced were.
func (pk *PublicKey) mulHsPow(z, r *big.Int) {
	fb := &pk.fb
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	acc, any, subs := &s.x, false, fb.subs()
	for t := fb.b - 1; t >= 0; t-- {
		if any {
			pk.mulMod(acc, acc, acc, s)
		}
		for j := 0; j < subs && fb.b*j+t < fb.a; j++ {
			u := uint(0)
			for i := combBlocks - 1; i >= 0; i-- {
				u = u<<1 | r.Bit(fb.a*i+fb.b*j+t)
			}
			if u == 0 {
				continue
			}
			e := &fb.pows[j*combEntries+int(u)-1]
			if any {
				pk.mulMod(acc, acc, e, s)
			} else {
				acc.Set(e)
				any = true
			}
		}
	}
	if any {
		pk.mulMod(z, z, acc, s)
	}
}
