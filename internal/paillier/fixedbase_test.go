package paillier

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	mrand "math/rand"
	"strings"
	"sync"
	"testing"
)

// rBytes is how many bytes one exponent draw takes from its reader.
func rBytes(pk *PublicKey) int { return (pk.randBits() + 7) / 8 }

// GenerateKey's contract: both primes ≡ 3 (mod 4), and Hs = (−x²)^n is an
// n-th residue (it decrypts to 0) of Jacobi symbol +1 mod n.
func TestGenerateKeyBlumPrimesAndHs(t *testing.T) {
	for i := 0; i < 8; i++ {
		sk := keyOfBits(t, 128)
		for _, p := range []*big.Int{sk.p, sk.q} {
			if p.Bit(0) != 1 || p.Bit(1) != 1 {
				t.Fatalf("prime %v is not ≡ 3 (mod 4)", p)
			}
		}
		if sk.Hs.Sign() <= 0 || sk.Hs.Cmp(sk.N2) >= 0 {
			t.Fatalf("Hs %v outside (0, n²)", sk.Hs)
		}
		if got := mustDecrypt(t, sk, &Ciphertext{C: sk.Hs}); got.Sign() != 0 {
			t.Fatalf("Hs decrypts to %v: not an n-th residue", got)
		}
		if j := big.Jacobi(new(big.Int).Mod(sk.Hs, sk.N), sk.N); j != 1 {
			t.Fatalf("Jacobi(Hs, n) = %d, want +1", j)
		}
	}
}

// (a) and (f): the comb's product is Hs^r bit for bit. Encrypting 0 yields
// Hs^r itself, and the deterministic reader makes r known: Encrypt must draw
// it exactly as one rand.Int below 2^⌈|n|/2⌉ does — the same bytes, nothing
// more — so r never exceeds the DJN exponent length. The key sizes cover a
// comb with fewer sub-tables than combSubs (64), a block whose last
// sub-block is short (136: 9-bit blocks in 2-bit sub-blocks), and an
// exponent length that is no multiple of combBlocks·combSubs (1022), whose
// top block is short.
func TestFixedBaseMatchesExp(t *testing.T) {
	for _, bits := range []int{64, 136, 256, 1022, 1024} {
		sk := keyOfBits(t, bits)
		pk := &sk.PublicKey
		k := pk.randBits()
		if k != bits/2 { // rand.Prime sets the top two bits, so |n| = bits
			t.Fatalf("%d-bit key: exponent length %d, want %d", bits, k, bits/2)
		}
		bound := new(big.Int).Lsh(one, uint(k))
		check := func(name string, stream []byte) *big.Int {
			t.Helper()
			a, b := bytes.NewReader(stream), bytes.NewReader(stream)
			ct, err := pk.Encrypt(a, new(big.Int))
			if err != nil {
				t.Fatalf("%d/%s: %v", bits, name, err)
			}
			r, err := rand.Int(b, bound)
			if err != nil {
				t.Fatal(err)
			}
			if a.Len() != b.Len() || len(stream)-a.Len() != rBytes(pk) {
				t.Fatalf("%d/%s: Encrypt consumed %d bytes, one rand.Int draw consumes %d",
					bits, name, len(stream)-a.Len(), len(stream)-b.Len())
			}
			if r.BitLen() > k {
				t.Fatalf("%d/%s: r has %d bits, want ≤ %d", bits, name, r.BitLen(), k)
			}
			if want := new(big.Int).Exp(pk.Hs, r, pk.N2); ct.C.Cmp(want) != 0 {
				t.Fatalf("%d/%s: fixed-base Hs^r = %v, Exp says %v (r = %v)", bits, name, ct.C, want, r)
			}
			return r
		}
		nb := rBytes(pk)
		zero := make([]byte, nb+8)
		if r := check("r=0", zero); r.Sign() != 0 {
			t.Fatalf("all-zero stream drew r = %v", r)
		}
		// Every single bit of r: each lands in one block, sub-block and
		// squaring step of the comb.
		for i := 0; i < k; i++ {
			unit := make([]byte, nb+8)
			unit[nb-1-i/8] = 1 << (i % 8)
			if r := check(fmt.Sprintf("r=2^%d", i), unit); r.Cmp(new(big.Int).Lsh(one, uint(i))) != 0 {
				t.Fatalf("stream with bit %d set drew r = %v", i, r)
			}
		}
		full := bytes.Repeat([]byte{0xff}, nb+8)
		if r := check("r=2^k-1", full); r.Cmp(new(big.Int).Sub(bound, one)) != 0 {
			t.Fatalf("all-ones stream drew r = %v, want 2^%d − 1", r, k)
		}
		rng := mrand.New(mrand.NewSource(int64(bits)))
		stream := make([]byte, nb+8)
		for i := 0; i < 100; i++ {
			rng.Read(stream)
			check("seeded", stream)
		}
	}
}

// (b): round trip at the ends of the plaintext range; every ciphertext is a
// unit mod n² and differs from the previous one of the same plaintext.
func TestEncryptRoundTripEdgesAndUnits(t *testing.T) {
	sk := testKey(t)
	pk := &sk.PublicKey
	gcd := new(big.Int)
	for _, m := range []*big.Int{new(big.Int), big.NewInt(1), new(big.Int).Sub(pk.N, one)} {
		var prev *Ciphertext
		for i := 0; i < 10; i++ {
			ct, err := pk.Encrypt(rand.Reader, m)
			if err != nil {
				t.Fatal(err)
			}
			if got := mustDecrypt(t, sk, ct); got.Cmp(m) != 0 {
				t.Fatalf("round trip %v -> %v", m, got)
			}
			if ct.C.Sign() <= 0 || ct.C.Cmp(pk.N2) >= 0 || gcd.GCD(nil, nil, ct.C, pk.N).Cmp(one) != 0 {
				t.Fatalf("ciphertext %v of %v is not a unit mod n²", ct.C, m)
			}
			if prev != nil && prev.C.Cmp(ct.C) == 0 {
				t.Fatalf("two encryptions of %v are equal", m)
			}
			prev = ct
		}
	}
}

// textbookEncrypt is Paillier's original encryption, (1+mn)·r^n mod n² with
// r uniform in Z*_n — the form Encrypt used before the DJN randomiser and
// the one a peer with another implementation sends.
func textbookEncrypt(t *testing.T, pk *PublicKey, rng *mrand.Rand, m *big.Int) *Ciphertext {
	t.Helper()
	r := new(big.Int)
	for r.Sign() == 0 || new(big.Int).GCD(nil, nil, r, pk.N).Cmp(one) != 0 {
		r.Rand(rng, pk.N)
	}
	c := new(big.Int).Mul(m, pk.N)
	c.Add(c, one)
	c.Mul(c, r.Exp(r, pk.N, pk.N2))
	return &Ciphertext{C: c.Mod(c, pk.N2)}
}

// (c): a DJN ciphertext is an ordinary Paillier ciphertext, so textbook and
// DJN ciphertexts decrypt, add and dot together — which is why Decrypt, Add
// and DotPlain did not change with the randomiser.
func TestTextbookCiphertextsInteroperate(t *testing.T) {
	sk := testKey(t)
	pk := &sk.PublicKey
	rng := mrand.New(mrand.NewSource(18))
	for i := 0; i < 10; i++ {
		a, b, c := big.NewInt(rng.Int63()), big.NewInt(rng.Int63()), big.NewInt(rng.Int63())
		ta, tc := textbookEncrypt(t, pk, rng, a), textbookEncrypt(t, pk, rng, c)
		db, err := pk.Encrypt(rand.Reader, b)
		if err != nil {
			t.Fatal(err)
		}
		if got := mustDecrypt(t, sk, ta); got.Cmp(a) != 0 {
			t.Fatalf("textbook ciphertext of %v decrypts to %v", a, got)
		}
		if got, want := mustDecrypt(t, sk, pk.Add(ta, db)), new(big.Int).Add(a, b); got.Cmp(want) != 0 {
			t.Fatalf("textbook ⊕ DJN = %v, want %v", got, want)
		}
		// 5a − 3b + 2c, wrapped mod n like any signed Paillier result.
		ks := []*big.Int{big.NewInt(5), big.NewInt(-3), big.NewInt(2)}
		want := new(big.Int).Mul(a, ks[0])
		want.Add(want, new(big.Int).Mul(b, ks[1]))
		want.Add(want, new(big.Int).Mul(c, ks[2]))
		want.Mod(want, pk.N)
		if got := mustDecrypt(t, sk, pk.DotPlain([]*Ciphertext{ta, db, tc}, ks)); got.Cmp(want) != 0 {
			t.Fatalf("mixed DotPlain = %v, want %v", got, want)
		}
	}
}

// (d): eight goroutines racing the first encryption of a fresh key build one
// table and all encrypt correctly (run under -race by make verify-secure).
func TestFixedBaseFirstUseRace(t *testing.T) {
	sk := keyOfBits(t, 256)
	pk := &sk.PublicKey
	const workers = 8
	var (
		wg     sync.WaitGroup
		start  = make(chan struct{})
		tables [workers]*big.Int
		cts    [workers]*Ciphertext
		errs   [workers]error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			cts[w], errs[w] = pk.Encrypt(rand.Reader, big.NewInt(int64(1000+w)))
			tables[w] = &pk.fb.pows[0]
		}(w)
	}
	close(start)
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if tables[w] != tables[0] {
			t.Fatalf("worker %d saw a second table", w)
		}
		if got := mustDecrypt(t, sk, cts[w]); got.Int64() != int64(1000+w) {
			t.Fatalf("worker %d: decrypted %v", w, got)
		}
	}
	if want := pk.fb.subs() * combEntries; len(pk.fb.pows) != want {
		t.Fatalf("table has %d entries, want %d", len(pk.fb.pows), want)
	}
}

// A key assembled from (n, n²) alone — what a peer holding a pre-DJN key
// would build — or carrying a useless Hs must refuse to encrypt, not panic.
func TestEncryptRefusesKeyWithoutHs(t *testing.T) {
	sk := testKey(t)
	for _, tc := range []struct {
		name string
		hs   *big.Int
		want string
	}{
		{"missing", nil, "public key has no Hs"},
		{"zero", new(big.Int), "not a unit"},
		{"n²", sk.N2, "not a unit"},
		{"multiple of p", new(big.Int).Mul(sk.p, big.NewInt(3)), "not a unit"},
	} {
		pk := &PublicKey{N: sk.N, N2: sk.N2, Hs: tc.hs}
		for i := 0; i < 2; i++ { // the refusal is sticky
			if _, err := pk.Encrypt(rand.Reader, big.NewInt(7)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s: Encrypt error %v, want one mentioning %q", tc.name, err, tc.want)
			}
		}
		if _, err := pk.EncryptVecN(rand.Reader, []float64{1, 2}, 2); err == nil {
			t.Fatalf("%s: EncryptVecN must fail too", tc.name)
		}
	}
	// The other operations need no Hs.
	pk := &PublicKey{N: sk.N, N2: sk.N2}
	ct, err := sk.Encrypt(rand.Reader, big.NewInt(20))
	if err != nil {
		t.Fatal(err)
	}
	if got := mustDecrypt(t, sk, pk.MulPlain(pk.AddPlain(ct, big.NewInt(1)), big.NewInt(2))); got.Int64() != 42 {
		t.Fatalf("homomorphic ops on an Hs-less key: %v", got)
	}
}

// A reader that fails mid-draw surfaces as an error naming the draw.
func TestEncryptReaderError(t *testing.T) {
	sk := testKey(t)
	_, err := sk.Encrypt(io.LimitReader(rand.Reader, 3), big.NewInt(1))
	if err == nil || !strings.Contains(err.Error(), "sampling r") {
		t.Fatalf("short reader: %v", err)
	}
}
