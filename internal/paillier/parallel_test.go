package paillier

import (
	"crypto/rand"
	"math"
	"math/big"
	mrand "math/rand"
	"strings"
	"testing"
)

// Parallel vector encryption/decryption must recover exactly the plaintexts
// the serial path recovers, for any worker budget.
func TestVecParallelRoundTrip(t *testing.T) {
	sk := testKey(t)
	pk := &sk.PublicKey
	v := make([]float64, 129)
	for i := range v {
		v[i] = math.Sin(float64(i)) * float64(i%17)
	}
	serialCts, err := pk.EncryptVec(rand.Reader, v)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sk.DecryptVec(serialCts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8, 0} {
		cts, err := pk.EncryptVecN(rand.Reader, v, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := sk.DecryptVecN(cts, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: element %d = %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
}

func mustEncryptFloat(tb testing.TB, pk *PublicKey, v float64) *Ciphertext {
	tb.Helper()
	ct, err := pk.EncryptFloat(rand.Reader, v)
	if err != nil {
		tb.Fatal(err)
	}
	return ct
}

// quoAtScale is the fixed-point decoding DecryptFloatAtScale did before
// atScale, kept as the reference: level big.Float divisions by Scale.
func quoAtScale(n, m *big.Int, level int) float64 {
	v := new(big.Int).Set(m)
	if v.Cmp(new(big.Int).Rsh(n, 1)) > 0 {
		v.Sub(v, n)
	}
	f := new(big.Float).SetInt(v)
	for i := 0; i < level; i++ {
		f.Quo(f, big.NewFloat(Scale))
	}
	out, _ := f.Float64()
	return out
}

// checkDecryptVec fails unless DecryptVecAtScale returns, bit for bit, what
// DecryptFloatAtScale returns for each ciphertext alone, and that is what the
// division-by-division decoding made of the plaintext.
func checkDecryptVec(tb testing.TB, sk *PrivateKey, cts []*Ciphertext, level, workers int) {
	tb.Helper()
	got, err := sk.DecryptVecAtScale(cts, level, workers, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if len(got) != len(cts) {
		tb.Fatalf("level %d, workers %d: %d values for %d ciphertexts", level, workers, len(got), len(cts))
	}
	for i, ct := range cts {
		want, err := sk.DecryptFloatAtScale(ct, level)
		if err != nil {
			tb.Fatal(err)
		}
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			tb.Fatalf("level %d, workers %d: element %d decrypts to %v, alone to %v", level, workers, i, got[i], want)
		}
		if ref := quoAtScale(sk.N, mustDecrypt(tb, sk, ct), level); math.Float64bits(want) != math.Float64bits(ref) {
			tb.Fatalf("level %d: element %d decodes to %v, by division to %v", level, i, want, ref)
		}
	}
}

// The vector decryption cuts its ciphertexts into CRT halves and recombines
// them; whatever the budget, each value must be the single-ciphertext one.
// Its tasks are the halves, 2·len of them through the caller's loop, and a
// warm nine-ciphertext call allocates little beyond what Exp itself does.
func TestDecryptVecAtScaleMatchesPerElement(t *testing.T) {
	sk := testKey(t)
	pk := &sk.PublicKey
	rng := mrand.New(mrand.NewSource(25))
	for _, level := range []int{1, 2, 3} {
		for _, n := range []int{0, 1, 3, 9} {
			cts := make([]*Ciphertext, n)
			for i := range cts {
				// Odd elements carry a uniform plaintext, whose decoding has
				// more than 53 significant bits to round.
				m := pk.EncodeAtScale(rng.NormFloat64()*50, level)
				switch {
				case i == 0:
					m.SetInt64(0)
				case i%2 == 1:
					m.Rand(rng, pk.N)
				}
				ct, err := pk.Encrypt(rand.Reader, m)
				if err != nil {
					t.Fatal(err)
				}
				cts[i] = ct
			}
			for _, workers := range []int{1, 2, 3, 8} {
				checkDecryptVec(t, sk, cts, level, workers)
			}
			tasks := -1
			if _, err := sk.DecryptVecAtScale(cts, level, 1, func(n int, fn func(int)) {
				tasks = n
				for i := n - 1; i >= 0; i-- {
					fn(i)
				}
			}); err != nil || tasks != 2*n {
				t.Fatalf("level %d: %d ciphertexts ran as %d tasks (err %v), want %d", level, n, tasks, err, 2*n)
			}
		}
	}
	if _, err := sk.DecryptVecAtScale(nil, 0, 1, nil); err == nil {
		t.Fatal("level 0 must error")
	}
	if raceEnabled {
		return // sync.Pool drops items under the race detector
	}
	cts := make([]*Ciphertext, 9)
	for i := range cts {
		cts[i] = mustEncryptFloat(t, pk, float64(i)-4.5)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := sk.DecryptVecAtScale(cts, 2, 1, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocations per warm 9-ciphertext DecryptVecAtScale", allocs)
	if allocs > 18*30 {
		t.Errorf("warm 9-ciphertext DecryptVecAtScale allocates %.1f times, want ≤ %d (30 a half, most of them inside big.Int.Exp)", allocs, 18*30)
	}
}

// Two out-of-range ciphertexts: the error names the lower index on every
// budget and every repetition, not whichever failing decryption finished
// first — step 5 of Algorithm 3 reports through this call.
func TestDecryptVecAtScaleReportsLowestIndex(t *testing.T) {
	sk := testKey(t)
	cts := make([]*Ciphertext, 9)
	for i := range cts {
		cts[i] = mustEncryptFloat(t, &sk.PublicKey, float64(i))
	}
	cts[4] = &Ciphertext{C: new(big.Int).Set(sk.N2)}
	cts[7] = &Ciphertext{C: new(big.Int)}
	for _, workers := range []int{1, 2, 8} {
		for rep := 0; rep < 50; rep++ {
			_, err := sk.DecryptVecAtScale(cts, 2, workers, nil)
			if err == nil || !strings.Contains(err.Error(), "element 4") {
				t.Fatalf("workers=%d rep %d: error %v, want one naming element 4", workers, rep, err)
			}
		}
	}
}

// A failing element must surface the lowest-indexed error deterministically,
// regardless of which worker hits it first.
func TestDecryptVecNReportsFirstError(t *testing.T) {
	sk := testKey(t)
	pk := &sk.PublicKey
	cts, err := pk.EncryptVec(rand.Reader, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	cts[3] = nil
	cts[6] = nil
	for _, workers := range []int{1, 4} {
		_, err := sk.DecryptVecN(cts, workers)
		if err == nil {
			t.Fatalf("workers=%d: nil ciphertext must error", workers)
		}
		if want := "element 3"; !strings.Contains(err.Error(), want) {
			t.Fatalf("workers=%d: error %q should name the first failing %s", workers, err, want)
		}
	}
}
