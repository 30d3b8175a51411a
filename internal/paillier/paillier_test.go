package paillier

import (
	"crypto/rand"
	"math"
	"math/big"
	mrand "math/rand"
	"testing"
	"testing/quick"
)

const testBits = 256

func testKey(t *testing.T) *PrivateKey {
	t.Helper()
	return keyOfBits(t, testBits)
}

// keyOfBits generates a fresh key of the given size for a test or benchmark.
func keyOfBits(t testing.TB, bits int) *PrivateKey {
	t.Helper()
	sk, err := GenerateKey(rand.Reader, bits)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	sk := testKey(t)
	for _, m := range []int64{0, 1, 42, 1 << 30} {
		ct, err := sk.Encrypt(rand.Reader, big.NewInt(m))
		if err != nil {
			t.Fatal(err)
		}
		got, err := sk.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if got.Int64() != m {
			t.Fatalf("round trip %d -> %d", m, got.Int64())
		}
	}
}

func TestEncryptionIsRandomized(t *testing.T) {
	sk := testKey(t)
	a, _ := sk.Encrypt(rand.Reader, big.NewInt(7))
	b, _ := sk.Encrypt(rand.Reader, big.NewInt(7))
	if a.C.Cmp(b.C) == 0 {
		t.Fatal("two encryptions of the same plaintext must differ")
	}
}

func TestHomomorphicAdd(t *testing.T) {
	sk := testKey(t)
	a, _ := sk.Encrypt(rand.Reader, big.NewInt(100))
	b, _ := sk.Encrypt(rand.Reader, big.NewInt(23))
	sum, err := sk.Decrypt(sk.Add(a, b))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Int64() != 123 {
		t.Fatalf("Dec(Enc(100)+Enc(23)) = %d", sum.Int64())
	}
}

func TestAddPlainAndMulPlain(t *testing.T) {
	sk := testKey(t)
	a, _ := sk.Encrypt(rand.Reader, big.NewInt(10))
	got, _ := sk.Decrypt(sk.AddPlain(a, big.NewInt(5)))
	if got.Int64() != 15 {
		t.Fatalf("AddPlain = %d", got.Int64())
	}
	got, _ = sk.Decrypt(sk.MulPlain(a, big.NewInt(7)))
	if got.Int64() != 70 {
		t.Fatalf("MulPlain = %d", got.Int64())
	}
	// Negative scalar wraps correctly.
	neg, _ := sk.Decrypt(sk.MulPlain(a, big.NewInt(-3)))
	if sk.Decode(neg) != float64(-30)/Scale {
		// Decode interprets mod-n wrap; -30 should come back as n-30.
		want := new(big.Int).Sub(sk.N, big.NewInt(30))
		if neg.Cmp(want) != 0 {
			t.Fatalf("MulPlain(-3) = %v, want n-30", neg)
		}
	}
}

// Property: Dec(Enc(a) ⊕ Enc(b)) = a + b for random uint32 plaintexts.
func TestHomomorphismProperty(t *testing.T) {
	sk := testKey(t)
	f := func(a, b uint32) bool {
		ca, err1 := sk.Encrypt(rand.Reader, big.NewInt(int64(a)))
		cb, err2 := sk.Encrypt(rand.Reader, big.NewInt(int64(b)))
		if err1 != nil || err2 != nil {
			return false
		}
		got, err := sk.Decrypt(sk.Add(ca, cb))
		if err != nil {
			return false
		}
		return got.Int64() == int64(a)+int64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFloatEncodingRoundTrip(t *testing.T) {
	sk := testKey(t)
	for _, v := range []float64{0, 1.5, -2.75, 1e-6, -123.456, 3e5} {
		ct, err := sk.EncryptFloat(rand.Reader, v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sk.DecryptFloat(ct)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-v) > 1e-9*(1+math.Abs(v)) {
			t.Fatalf("float round trip %v -> %v", v, got)
		}
	}
}

// Property: float homomorphism with negatives, Dec(Enc(a)+Enc(b)) ≈ a+b.
func TestFloatHomomorphismProperty(t *testing.T) {
	sk := testKey(t)
	f := func(ai, bi int32) bool {
		a := float64(ai) / 1000
		b := float64(bi) / 1000
		ca, _ := sk.EncryptFloat(rand.Reader, a)
		cb, _ := sk.EncryptFloat(rand.Reader, b)
		got, err := sk.DecryptFloat(sk.Add(ca, cb))
		if err != nil {
			return false
		}
		return math.Abs(got-(a+b)) < 1e-8*(1+math.Abs(a+b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMulPlainFloatScaleLevel(t *testing.T) {
	sk := testKey(t)
	ct, _ := sk.EncryptFloat(rand.Reader, 2.5)
	prod := sk.MulPlainFloat(ct, -4.0)
	got, err := sk.DecryptFloatAtScale(prod, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-(-10.0)) > 1e-8 {
		t.Fatalf("2.5 × -4 = %v", got)
	}
	if _, err := sk.DecryptFloatAtScale(prod, 0); err == nil {
		t.Fatal("level 0 must error")
	}
}

func TestVectorHelpers(t *testing.T) {
	sk := testKey(t)
	a := []float64{1, -2, 3.5}
	b := []float64{0.5, 2, -1.5}
	ca, err := sk.EncryptVec(rand.Reader, a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := sk.EncryptVec(rand.Reader, b)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := sk.DecryptVec(sk.AddVec(ca, cb))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, 0, 2}
	for i := range want {
		if math.Abs(sum[i]-want[i]) > 1e-8 {
			t.Fatalf("vector sum = %v", sum)
		}
	}
}

func TestAddPlainFloat(t *testing.T) {
	sk := testKey(t)
	ct, _ := sk.EncryptFloat(rand.Reader, 1.25)
	got, err := sk.DecryptFloat(sk.AddPlainFloat(ct, -3.5))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-(-2.25)) > 1e-9 {
		t.Fatalf("AddPlainFloat = %v", got)
	}
}

// Add, AddPlain and AddPlainFloat reduce on pooled scratch; the residues must
// be the ones their allocating bodies — kept here — produced.
func TestAddPlainMatchesAllocatingReference(t *testing.T) {
	sk := testKey(t)
	pk := &sk.PublicKey
	refAdd := func(a, b *Ciphertext) *big.Int {
		c := new(big.Int).Mul(a.C, b.C)
		return c.Mod(c, pk.N2)
	}
	refAddPlain := func(a *Ciphertext, m *big.Int) *big.Int {
		gm := new(big.Int).Mul(new(big.Int).Mod(m, pk.N), pk.N)
		gm.Add(gm, one)
		gm.Mod(gm, pk.N2)
		c := gm.Mul(gm, a.C)
		return c.Mod(c, pk.N2)
	}
	a, err := pk.EncryptFloat(rand.Reader, 1.25)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pk.EncryptFloat(rand.Reader, -7)
	if err != nil {
		t.Fatal(err)
	}
	if got := pk.Add(a, b); got.C.Cmp(refAdd(a, b)) != 0 {
		t.Fatal("Add changed its residue")
	}
	nm1 := new(big.Int).Sub(pk.N, one)
	for _, m := range []*big.Int{
		new(big.Int), big.NewInt(1), nm1, // the ends of [0, n)
		big.NewInt(-5), new(big.Int).Set(pk.N), new(big.Int).Lsh(pk.N, 3), // taken mod n
	} {
		if got := pk.AddPlain(a, m); got.C.Cmp(refAddPlain(a, m)) != 0 {
			t.Fatalf("AddPlain(%v) changed its residue", m)
		}
	}
	nHalf, _ := new(big.Float).SetInt(new(big.Int).Rsh(pk.N, 1)).Float64()
	for _, v := range []float64{0, math.Copysign(0, -1), 1e-13, -1e-13, 3.5, -3.5, 3e9, -3e9, nHalf / Scale * 0.99, -nHalf / Scale * 0.99} {
		if got := pk.AddPlainFloat(a, v); got.C.Cmp(refAddPlain(a, pk.Encode(v))) != 0 {
			t.Fatalf("AddPlainFloat(%v) changed its residue", v)
		}
	}
	if raceEnabled {
		return // sync.Pool drops items under the race detector
	}
	pk.AddPlainFloat(a, -3.5) // warm the pool
	if allocs := testing.AllocsPerRun(50, func() { pk.AddPlainFloat(a, -3.5) }); allocs > 3 {
		t.Errorf("warm AddPlainFloat allocates %.1f times, want ≤ 3 (the ciphertext alone)", allocs)
	}
}

func TestErrors(t *testing.T) {
	sk := testKey(t)
	if _, err := GenerateKey(rand.Reader, 32); err == nil {
		t.Fatal("tiny key must error")
	}
	if _, err := sk.Encrypt(rand.Reader, big.NewInt(-1)); err == nil {
		t.Fatal("negative plaintext must error")
	}
	if _, err := sk.Encrypt(rand.Reader, new(big.Int).Set(sk.N)); err == nil {
		t.Fatal("plaintext ≥ n must error")
	}
	if _, err := sk.Encrypt(rand.Reader, nil); err == nil {
		t.Fatal("nil plaintext must error")
	}
	if _, err := sk.Decrypt(&Ciphertext{C: big.NewInt(0)}); err == nil {
		t.Fatal("zero ciphertext must error")
	}
	if _, err := sk.Decrypt(nil); err == nil {
		t.Fatal("nil ciphertext must error")
	}
}

func TestAddVecLengthMismatchPanics(t *testing.T) {
	sk := testKey(t)
	a, _ := sk.EncryptVec(rand.Reader, []float64{1})
	b, _ := sk.EncryptVec(rand.Reader, []float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sk.AddVec(a, b)
}

// CRT decryption must agree with the textbook single-exponentiation path,
// on fresh encryptions and on ciphertexts the homomorphic operations made.
func TestCRTMatchesNaiveDecryption(t *testing.T) {
	sk := testKey(t)
	pk := &sk.PublicKey
	// λ = lcm(p−1, q−1) and, with g = n+1, μ = λ⁻¹ mod n.
	lambda := new(big.Int).Mul(sk.pm1, sk.qm1)
	lambda.Div(lambda, new(big.Int).GCD(nil, nil, sk.pm1, sk.qm1))
	mu := new(big.Int).ModInverse(lambda, sk.N)
	naive := func(ct *Ciphertext) *big.Int {
		// u = c^λ mod n², m = L(u)·μ mod n.
		u := new(big.Int).Exp(ct.C, lambda, sk.N2)
		u.Sub(u, big.NewInt(1))
		u.Div(u, sk.N)
		u.Mul(u, mu)
		return u.Mod(u, sk.N)
	}
	rng := mrand.New(mrand.NewSource(17))
	var cts []*Ciphertext
	for i := int64(0); i < 20; i++ {
		m := big.NewInt(1000003 * (i + 1))
		ct, err := sk.Encrypt(rand.Reader, m)
		if err != nil {
			t.Fatal(err)
		}
		if got := mustDecrypt(t, sk, ct); got.Cmp(m) != 0 {
			t.Fatalf("CRT %v vs plaintext %v", got, m)
		}
		cts = append(cts, ct)
	}
	for i := 0; i < 20; i++ {
		a := encryptInts(t, pk, rng, 3)
		ks := []*big.Int{new(big.Int).Rand(rng, sk.N), big.NewInt(-rng.Int63()), big.NewInt(rng.Int63())}
		cts = append(cts, pk.Add(a[0], a[1]), pk.DotPlain(a, ks))
	}
	for i, ct := range cts {
		if got, want := mustDecrypt(t, sk, ct), naive(ct); got.Cmp(want) != 0 {
			t.Fatalf("ciphertext %d: CRT %v vs naive %v", i, got, want)
		}
	}
}

func TestBytes(t *testing.T) {
	sk := testKey(t)
	if got := sk.Bytes(); got < testBits/4-2 || got > testBits/4+2 {
		t.Fatalf("ciphertext bytes = %d, expected ≈ %d", got, testBits/4)
	}
}
