package paillier

import (
	"math/big"
	mrand "math/rand"
	"testing"
)

// quoRemMulMod is mulMod as it stood before Barrett reduction, kept as the
// reference: the product reduced by QuoRem, whose remainder takes the sign of
// a negative product.
func quoRemMulMod(pk *PublicKey, x, y *big.Int) *big.Int {
	t := new(big.Int).Mul(x, y)
	z := new(big.Int)
	new(big.Int).QuoRem(t, pk.N2, z)
	return z
}

// mulModBits are the key sizes mulMod is pinned at: the comb's odd shapes
// (64, 136, 1022), the test key, the paper's key and twice it.
var mulModBits = []int{64, 136, 256, 1022, 1024, 2048}

// mulModKey is a public key over a seeded random odd n of exactly bits bits.
// mulMod reads n² alone, and a literal like this one builds its μ on first
// use.
func mulModKey(bits int, seed int64) *PublicKey {
	rng := mrand.New(mrand.NewSource(seed))
	n := new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(bits)))
	n.SetBit(n, bits-1, 1)
	n.SetBit(n, 0, 1)
	return &PublicKey{N: n, N2: new(big.Int).Mul(n, n)}
}

// mulModOperands are the operands of the table test at one key: the ends of
// [0, n²), seeded residues, unreduced values at and past n² and 2^L
// (L = bitlen(n²)) — the largest products Barrett takes and the first it
// leaves to QuoRem — and negatives.
func mulModOperands(pk *PublicKey, rng *mrand.Rand) []*big.Int {
	n2 := pk.N2
	l := uint(n2.BitLen())
	add := func(x *big.Int, k int64) *big.Int { return new(big.Int).Add(x, big.NewInt(k)) }
	pow := new(big.Int).Lsh(one, l)
	ops := []*big.Int{
		new(big.Int), big.NewInt(1), big.NewInt(2), add(n2, -1), add(n2, -2),
		new(big.Int).Set(n2), add(n2, 5), add(pow, -1), new(big.Int).Set(pow), add(pow, 1),
		add(new(big.Int).Lsh(one, l+7), 3),
		big.NewInt(-1), new(big.Int).Neg(add(n2, -1)),
	}
	for i := 0; i < 4; i++ {
		r := new(big.Int).Rand(rng, n2)
		ops = append(ops, r, new(big.Int).Neg(r))
	}
	return ops
}

// checkMulMod compares mulMod(x, y) with the QuoRem reference under every
// aliasing a caller uses — a fresh destination, z = x, z = y, z = x = y when
// the factors are equal, and the scratch's own x and y as destination and as
// operands — on one warm scratch whose stale temporaries must not matter.
func checkMulMod(t *testing.T, pk *PublicKey, s *scratch, x, y *big.Int) {
	t.Helper()
	want := quoRemMulMod(pk, x, y)
	fail := func(pattern string, got *big.Int) {
		t.Helper()
		if got.Cmp(want) != 0 {
			t.Fatalf("%d-bit n: mulMod(%v, %v) [%s] = %v, QuoRem gives %v", pk.N.BitLen(), x, y, pattern, got, want)
		}
	}
	z := new(big.Int)
	pk.mulMod(z, x, y, s)
	fail("fresh z", z)
	a, b := new(big.Int).Set(x), new(big.Int).Set(y)
	pk.mulMod(a, a, b, s)
	fail("z = x", a)
	a.Set(x)
	pk.mulMod(b, a, b, s)
	fail("z = y", b)
	if x.Cmp(y) == 0 {
		a.Set(x)
		pk.mulMod(a, a, a, s)
		fail("z = x = y", a)
	}
	pk.mulMod(&s.x, x, y, s)
	fail("z = s.x", &s.x)
	s.x.Set(x)
	pk.mulMod(&s.x, &s.x, y, s)
	fail("z = x = s.x", &s.x)
	s.x.Set(x)
	s.y.Set(y)
	pk.mulMod(z, &s.x, &s.y, s)
	fail("x = s.x, y = s.y", z)
	pk.mulMod(&s.y, x, &s.y, s)
	fail("z = y = s.y", &s.y)
}

// Barrett reduction must give the residue — and, for a negative or
// over-long product, the truncated remainder — the QuoRem it replaced gave,
// for every operand pair and aliasing at every key size.
func TestMulModMatchesQuoRem(t *testing.T) {
	for i, bits := range mulModBits {
		pk := mulModKey(bits, int64(bits))
		ops := mulModOperands(pk, mrand.New(mrand.NewSource(int64(i))))
		s := new(scratch)
		for _, x := range ops {
			for _, y := range ops {
				checkMulMod(t, pk, s, x, y)
			}
		}
	}
	// A generated key, whose n² is a product of two prime squares.
	sk := testKey(t)
	s := new(scratch)
	for _, x := range mulModOperands(&sk.PublicKey, mrand.New(mrand.NewSource(99))) {
		checkMulMod(t, &sk.PublicKey, s, x, x)
		checkMulMod(t, &sk.PublicKey, s, x, sk.Hs)
	}
}

// FuzzMulMod runs the same comparison on arbitrary operand bytes and signs
// at the six key sizes; the seeded corpus holds the table test's edges.
func FuzzMulMod(f *testing.F) {
	keys := make([]*PublicKey, len(mulModBits))
	for i, bits := range mulModBits {
		keys[i] = mulModKey(bits, int64(bits))
	}
	rng := mrand.New(mrand.NewSource(7))
	for i, pk := range keys {
		ops := mulModOperands(pk, rng)
		for j := 0; j < len(ops); j += 3 {
			x, y := ops[j], ops[(j+5)%len(ops)]
			f.Add(uint8(i), x.Bytes(), y.Bytes(), x.Sign() < 0, y.Sign() < 0)
		}
		top := new(big.Int).Sub(pk.N2, one).Bytes() // (n²−1)², the largest reduced product
		f.Add(uint8(i), top, top, false, false)
	}
	f.Fuzz(func(t *testing.T, key uint8, xb, yb []byte, xneg, yneg bool) {
		pk := keys[int(key)%len(keys)]
		x, y := new(big.Int).SetBytes(xb), new(big.Int).SetBytes(yb)
		if xneg {
			x.Neg(x)
		}
		if yneg {
			y.Neg(y)
		}
		checkMulMod(t, pk, new(scratch), x, y)
	})
}
