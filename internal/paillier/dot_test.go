package paillier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math"
	"math/big"
	mrand "math/rand"
	"strings"
	"testing"
)

// refDot is the term-by-term reference the fused kernel replaced: every
// term raised to its full-length k mod n, the powers folded with Add.
func refDot(pk *PublicKey, cts []*Ciphertext, ks []*big.Int) *Ciphertext {
	acc := &Ciphertext{C: big.NewInt(1)}
	for i, ct := range cts {
		k := new(big.Int).Mod(ks[i], pk.N)
		acc = pk.Add(acc, &Ciphertext{C: new(big.Int).Exp(ct.C, k, pk.N2)})
	}
	return acc
}

func encryptInts(t testing.TB, pk *PublicKey, rng *mrand.Rand, n int) []*Ciphertext {
	t.Helper()
	cts := make([]*Ciphertext, n)
	for i := range cts {
		ct, err := pk.Encrypt(rand.Reader, new(big.Int).Rand(rng, pk.N))
		if err != nil {
			t.Fatal(err)
		}
		cts[i] = ct
	}
	return cts
}

func mustDecrypt(t testing.TB, sk *PrivateKey, ct *Ciphertext) *big.Int {
	t.Helper()
	m, err := sk.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The fused kernel must decrypt to exactly what the term-by-term reference
// decrypts to, for every sign pattern and exponent length.
func TestDotPlainMatchesTermByTerm(t *testing.T) {
	sk := testKey(t)
	pk := &sk.PublicKey
	rng := mrand.New(mrand.NewSource(12))
	halfDown := new(big.Int).Rsh(pk.N, 1)     // (n−1)/2, the largest positive
	halfUp := new(big.Int).Add(halfDown, one) // (n+1)/2, the most negative
	short := func() *big.Int { return big.NewInt(rng.Int63n(1 << 40)) }
	signed := func() *big.Int {
		k := short()
		if rng.Intn(2) == 0 {
			k.Neg(k)
		}
		return k
	}
	fill := func(n int, gen func() *big.Int) []*big.Int {
		ks := make([]*big.Int, n)
		for i := range ks {
			ks[i] = gen()
		}
		return ks
	}
	edges := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(-1), halfDown, halfUp,
		new(big.Int).Sub(pk.N, one),           // −1, already wrapped
		new(big.Int).Add(pk.N, big.NewInt(5)), // unreduced
		new(big.Int).Rand(rng, pk.N),
	}
	cases := []struct {
		name string
		ks   []*big.Int
	}{
		{"empty", nil},
		{"one", fill(1, signed)},
		{"mixed77", fill(77, signed)},
		{"positive77", fill(77, short)},
		{"negative77", fill(77, func() *big.Int { k := short(); return k.Neg(k) })},
		{"zeros", fill(5, func() *big.Int { return new(big.Int) })},
		{"edges", edges},
		{"full-length", fill(9, func() *big.Int { return new(big.Int).Rand(rng, pk.N) })},
	}
	for _, tc := range cases {
		cts := encryptInts(t, pk, rng, len(tc.ks))
		got := mustDecrypt(t, sk, pk.DotPlain(cts, tc.ks))
		want := mustDecrypt(t, sk, refDot(pk, cts, tc.ks))
		if got.Cmp(want) != 0 {
			t.Errorf("%s: DotPlain decrypts to %v, term-by-term to %v", tc.name, got, want)
		}
	}
}

// MulPlain is the one-term DotPlain: the same ciphertext, bit for bit.
func TestMulPlainIsOneTermDotPlain(t *testing.T) {
	sk := testKey(t)
	pk := &sk.PublicKey
	rng := mrand.New(mrand.NewSource(13))
	a := encryptInts(t, pk, rng, 1)
	for _, k := range []*big.Int{big.NewInt(0), big.NewInt(7), big.NewInt(-3), new(big.Int).Rand(rng, pk.N)} {
		got, want := pk.MulPlain(a[0], k), pk.DotPlain(a, []*big.Int{k})
		if got.C.Cmp(want.C) != 0 {
			t.Errorf("k=%v: MulPlain and one-term DotPlain differ", k)
		}
		if m, ref := mustDecrypt(t, sk, got), mustDecrypt(t, sk, refDot(pk, a, []*big.Int{k})); m.Cmp(ref) != 0 {
			t.Errorf("k=%v: MulPlain decrypts to %v, c^k to %v", k, m, ref)
		}
	}
}

// The float entry point hands signs and magnitudes to the kernel without
// wrapping them mod n; the plaintext must still be the one the encoded
// scalars give term by term.
func TestDotPlainFloatMatchesEncodedReference(t *testing.T) {
	sk := testKey(t)
	pk := &sk.PublicKey
	rng := mrand.New(mrand.NewSource(14))
	vs := make([]float64, 77)
	ks := make([]*big.Int, len(vs))
	for i := range vs {
		vs[i] = rng.NormFloat64() * 0.03
		ks[i] = pk.Encode(vs[i])
	}
	vs[3], ks[3] = 0, pk.Encode(0)
	vs[4], ks[4] = -3e9, pk.Encode(-3e9) // |v·Scale| past 2^63: the big.Float branch
	cts := encryptInts(t, pk, rng, len(vs))
	got := mustDecrypt(t, sk, pk.DotPlainFloat(cts, vs))
	if want := mustDecrypt(t, sk, refDot(pk, cts, ks)); got.Cmp(want) != 0 {
		t.Fatalf("DotPlainFloat decrypts to %v, term-by-term to %v", got, want)
	}
	one := pk.MulPlainFloat(cts[0], vs[0])
	if want := mustDecrypt(t, sk, refDot(pk, cts[:1], ks[:1])); mustDecrypt(t, sk, one).Cmp(want) != 0 {
		t.Fatal("MulPlainFloat changed its plaintext")
	}
}

// A ciphertext sharing a factor with n is not a unit mod n², so the
// negative-term product cannot be inverted: the kernel must fall back to
// full-length exponents and produce the reference residue, not panic.
func TestDotPlainNonUnitFallback(t *testing.T) {
	sk := testKey(t)
	pk := &sk.PublicKey
	rng := mrand.New(mrand.NewSource(15))
	cts := encryptInts(t, pk, rng, 4)
	cts[2] = &Ciphertext{C: new(big.Int).Mul(sk.p, big.NewInt(1234567))}
	ks := []*big.Int{big.NewInt(9), big.NewInt(-4), big.NewInt(-77), big.NewInt(-1)}
	if got, want := pk.DotPlain(cts, ks), refDot(pk, cts, ks); got.C.Cmp(want.C) != 0 {
		t.Fatalf("fallback residue %v, want %v", got.C, want.C)
	}
	if got, want := pk.MulPlain(cts[2], ks[2]), refDot(pk, cts[2:3], ks[2:3]); got.C.Cmp(want.C) != 0 {
		t.Fatalf("one-term fallback residue %v, want %v", got.C, want.C)
	}
}

// bitByBitDot is the kernel DotPlainFloat ran on before the windowed one,
// kept as the residue reference: per column P·Q⁻¹ with every exponent walked
// bit by bit, and the negative terms raised to the full-length n − |k| when Q
// has no inverse.
func bitByBitDot(pk *PublicKey, cts []*Ciphertext, vs []float64) *Ciphertext {
	mags, neg := make([]*big.Int, len(vs)), make([]bool, len(vs))
	for i, v := range vs {
		mags[i] = new(big.Int)
		neg[i] = setScaled(mags[i], v)
	}
	multiExp := func(sign bool) (z *big.Int, terms int) {
		bits := 0
		for i := range mags {
			if neg[i] == sign {
				terms++
				bits = max(bits, mags[i].BitLen())
			}
		}
		z = big.NewInt(1)
		for b := bits - 1; b >= 0; b-- {
			z.Mod(z.Mul(z, z), pk.N2)
			for i := range mags {
				if neg[i] == sign && mags[i].Bit(b) == 1 {
					z.Mod(z.Mul(z, cts[i].C), pk.N2)
				}
			}
		}
		return z, terms
	}
	out, _ := multiExp(false)
	q, terms := multiExp(true)
	if terms == 0 {
		return &Ciphertext{C: out}
	}
	if q = q.ModInverse(q, pk.N2); q == nil {
		for i := range mags {
			if neg[i] {
				mags[i].Sub(pk.N, mags[i])
			}
		}
		q, _ = multiExp(true)
	}
	return &Ciphertext{C: out.Mod(out.Mul(out, q), pk.N2)}
}

// checkCols compares every column of got with the bit-by-bit kernel run on
// that column alone, as ciphertext residues, and — when plaintexts is set —
// with the term-by-term reference, as decrypted integers.
func checkCols(t *testing.T, sk *PrivateKey, plaintexts bool, name string, got, cts []*Ciphertext, cols []float64) {
	t.Helper()
	pk, m := &sk.PublicKey, len(cts)
	if len(got)*m != len(cols) {
		t.Fatalf("%s: %d columns for %d multipliers of %d rows", name, len(got), len(cols), m)
	}
	for j, ct := range got {
		col := cols[j*m : (j+1)*m]
		if want := bitByBitDot(pk, cts, col); ct.C.Cmp(want.C) != 0 {
			t.Fatalf("%s: column %d is not the bit-by-bit kernel's residue", name, j)
		}
		if !plaintexts {
			continue
		}
		ks := make([]*big.Int, m)
		for i, v := range col {
			ks[i] = pk.Encode(v)
		}
		if dec, want := mustDecrypt(t, sk, ct), mustDecrypt(t, sk, refDot(pk, cts, ks)); dec.Cmp(want) != 0 {
			t.Fatalf("%s: column %d decrypts to %v, term-by-term to %v", name, j, dec, want)
		}
	}
}

// Step 4's matrix kernel — shared odd powers, sliding windows, row chunks,
// one inversion for all columns — must return, column by column, the very
// residue the bit-by-bit kernel returned and the plaintext of the
// term-by-term reference, whatever the shape and the worker budget.
func TestDotPlainFloatColsMatchesBitByBitKernel(t *testing.T) {
	sk := testKey(t)
	pk := &sk.PublicKey
	rng := mrand.New(mrand.NewSource(21))
	tab := new(DotTable) // one table through every shape: it only ever grows
	for _, m := range []int{1, 2, 19, 77} {
		cts := encryptInts(t, pk, rng, m)
		for _, d := range []int{1, 3, 5} {
			cols := make([]float64, d*m)
			for i := range cols {
				cols[i] = rng.NormFloat64() * 0.03
			}
			// Column 0 stays mixed and takes the edge multipliers; the
			// others, where there are any, are one sign or all zero.
			edges := []float64{0, 1.0 / Scale, -1.0 / Scale, -3e9, 3e9, 1e-9, -0.5} // 3e9·Scale ≥ 2⁶³: setScaled's big.Float branch
			for i := 0; i < min(m, len(edges)); i++ {
				cols[i] = edges[i]
			}
			for j := 1; j < d; j++ {
				for i := j * m; i < (j+1)*m; i++ {
					switch j {
					case 1:
						cols[i] = math.Abs(cols[i])
					case 2:
						cols[i] = -math.Abs(cols[i])
					case 3:
						cols[i] = 0
					}
				}
			}
			for _, workers := range []int{1, 2, 3, 8, 1000} {
				got := pk.DotPlainFloatCols(tab, cts, cols, workers, nil)
				checkCols(t, sk, true, fmt.Sprintf("m=%d d=%d workers=%d", m, d, workers), got, cts, cols)
			}
		}
	}
	if got := pk.DotPlainFloatCols(tab, nil, nil, 2, nil); len(got) != 0 {
		t.Fatalf("no rows and no multipliers gave %d columns", len(got))
	}
}

// One ciphertext sharing a factor with n makes the product of the columns' Q
// a non-unit whenever any column raises it to a negative multiplier. That
// column falls back to full-length exponents; the others — where the
// multiplier is positive or zero, or nothing is negative at all — must come
// out exactly as they would alone.
func TestDotPlainNonUnitColumnDoesNotPoisonBatch(t *testing.T) {
	sk := testKey(t)
	pk := &sk.PublicKey
	rng := mrand.New(mrand.NewSource(22))
	const m, d, bad = 6, 4, 2
	cts := encryptInts(t, pk, rng, m)
	cts[bad] = &Ciphertext{C: new(big.Int).Mul(sk.p, big.NewInt(1234567))}
	cols := make([]float64, d*m)
	for i := range cols {
		cols[i] = rng.NormFloat64() * 0.03
	}
	cols[0*m+bad] = -0.25 // negative: this column's Q is the non-unit
	cols[1*m+bad] = 0.25  // positive: its Q is a unit and inverts alone
	cols[2*m+bad] = 0     // absent
	for i := 3 * m; i < 4*m; i++ {
		cols[i] = math.Abs(cols[i]) // no negative term, no Q
	}
	tab := new(DotTable)
	for _, workers := range []int{1, 2, 8} {
		got := pk.DotPlainFloatCols(tab, cts, cols, workers, nil)
		// Residues only: a plaintext under a non-unit is not meaningful.
		checkCols(t, sk, false, fmt.Sprintf("workers=%d", workers), got, cts, cols)
	}
}

// A warm 77-term dot product — the secure epoch's shape — must not allocate
// per term: the powers and the scratch live in the caller's table and the
// products reduce in place.
func TestDotPlainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool — math/big's own, under the division — drops items under the race detector")
	}
	sk := testKey(t)
	pk := &sk.PublicKey
	rng := mrand.New(mrand.NewSource(16))
	vs := make([]float64, 77)
	for i := range vs {
		vs[i] = rng.NormFloat64() * 0.03
	}
	cts := encryptInts(t, pk, rng, len(vs))
	tab := new(DotTable)
	pk.DotPlainFloatCols(tab, cts, vs, 1, nil) // grow the table
	allocs := testing.AllocsPerRun(20, func() { pk.DotPlainFloatCols(tab, cts, vs, 1, nil) })
	t.Logf("%.1f allocations per warm 77-term DotPlainFloatCols", allocs)
	if allocs > 48 {
		t.Errorf("warm 77-term DotPlainFloatCols allocates %.1f times, want ≤ 48 (none per term)", allocs)
	}
}

// A warm encryption allocates its exponent draw, its result and nothing per
// table step: the comb's products reduce in place on pooled scratch.
func TestEncryptAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	sk := testKey(t)
	// A negative encoding is full length. The first call builds the table
	// and warms the pools.
	m := new(big.Int).Sub(sk.N, big.NewInt(12345))
	if _, err := sk.Encrypt(rand.Reader, m); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := sk.Encrypt(rand.Reader, m); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocations per warm Encrypt", allocs)
	if allocs > 12 {
		t.Errorf("warm Encrypt allocates %.1f times, want ≤ 12 (none per table step)", allocs)
	}
}

func TestCheckEncodable(t *testing.T) {
	sk := testKey(t)
	pk := &sk.PublicKey
	nHalf, _ := new(big.Float).SetInt(new(big.Int).Rsh(pk.N, 1)).Float64()
	for _, tc := range []struct {
		v     float64
		level int
		ok    bool
	}{
		{0, 1, true}, {0, 2, true}, {-1.5, 1, true}, {1e30, 2, true},
		{math.NaN(), 1, false}, {math.Inf(1), 1, false}, {math.Inf(-1), 2, false},
		{1e300, 1, false}, {-1e300, 1, false},
		{nHalf / Scale * 0.99, 1, true}, {nHalf / Scale * 1.01, 1, false},
		{-nHalf / Scale * 0.99, 1, true}, {nHalf / Scale * 0.99, 2, false},
	} {
		err := pk.CheckEncodable(tc.v, tc.level)
		if (err == nil) != tc.ok || (err != nil && !errors.Is(err, ErrNotEncodable)) {
			t.Errorf("CheckEncodable(%v, %d) = %v, want ok=%v", tc.v, tc.level, err, tc.ok)
		}
		if _, encErr := pk.EncryptFloat(rand.Reader, tc.v); tc.level == 1 && (encErr == nil) != tc.ok {
			t.Errorf("EncryptFloat(%v) = %v, want ok=%v", tc.v, encErr, tc.ok)
		}
	}
	for _, workers := range []int{1, 4} {
		_, err := pk.EncryptVecN(rand.Reader, []float64{1, 2, math.NaN(), 4, math.Inf(1)}, workers)
		if !errors.Is(err, ErrNotEncodable) || !strings.Contains(err.Error(), "element 2") {
			t.Errorf("workers=%d: EncryptVecN over a NaN = %v, want ErrNotEncodable at element 2", workers, err)
		}
	}
}
