package vfl

import (
	"crypto/rand"
	"testing"

	"digfl/internal/obs"
	"digfl/internal/paillier"
)

// Attaching a sink must leave the plaintext trainer bit-identical, with
// exact epoch and aggregate counters.
func TestVFLSinkDoesNotPerturbRun(t *testing.T) {
	const epochs = 9
	prob := regProblem(13)
	plain := (&Trainer{Problem: prob, Cfg: Config{Epochs: epochs, LR: 0.05}}).Run()

	c := &obs.Collector{}
	observed := (&Trainer{Problem: prob, Cfg: Config{
		Epochs: epochs, LR: 0.05, Runtime: obs.Runtime{Sink: c},
	}}).Run()

	a, b := plain.Model.Params(), observed.Model.Params()
	for j := range a {
		if a[j] != b[j] {
			t.Fatalf("sink perturbed the run: θ[%d] %v vs %v", j, a[j], b[j])
		}
	}
	snap := c.Snapshot()
	if snap.Epochs != epochs || snap.Aggregates != epochs {
		t.Fatalf("epochs/aggregates = %d/%d, want %d/%d",
			snap.Epochs, snap.Aggregates, epochs, epochs)
	}
}

// The collected Paillier counters must equal the closed form implied by
// Algorithm 3: per gradient call with m samples, n parties and D total
// features — m encryptions, m·(n−1) + D·m additions, m·D plaintext
// multiplications and D decryptions; two calls (train + validation) per
// epoch.
func TestSecurePaillierCountsClosedForm(t *testing.T) {
	const epochs = 3
	prob := nPartyProblem(21, 40, 6, 3)
	mt, mv := prob.Train.Len(), prob.Val.Len()
	d := prob.Train.Dim()
	n := prob.Parties()

	c := &obs.Collector{}
	if _, err := RunSecureN(prob, SecureConfig{
		Epochs: epochs, LR: 0.05, KeyBits: 256, MaskSeed: 5,
		Runtime: obs.Runtime{Sink: c},
	}); err != nil {
		t.Fatal(err)
	}

	m := int64(mt + mv) // samples touched per epoch across the two calls
	snap := c.Snapshot()
	checks := []struct {
		name      string
		got, want int64
	}{
		{"Epochs", snap.Epochs, epochs},
		{"PaillierEnc", snap.PaillierEnc, epochs * m},
		{"PaillierDec", snap.PaillierDec, epochs * 2 * int64(d)},
		{"PaillierAdd", snap.PaillierAdd, epochs * (m*int64(n-1) + int64(d)*m)},
		{"PaillierMulPlain", snap.PaillierMulPlain, epochs * m * int64(d)},
	}
	for _, ck := range checks {
		if ck.got != ck.want {
			t.Errorf("%s = %d, want closed form %d (m_t=%d m_v=%d D=%d n=%d E=%d)",
				ck.name, ck.got, ck.want, mt, mv, d, n, epochs)
		}
	}
	if snap.PaillierOps() == 0 {
		t.Error("PaillierOps total is zero")
	}
}

// With a shared key and mask seed, the secure protocol's decrypted outputs
// must be bit-identical with and without a sink attached (ciphertext
// randomness never reaches the plaintexts).
func TestSecureSinkDoesNotPerturb(t *testing.T) {
	prob := nPartyProblem(22, 32, 4, 2)
	key, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	base := SecureConfig{Epochs: 4, LR: 0.05, Key: key, MaskSeed: 9}
	plain, err := RunSecureN(prob, base)
	if err != nil {
		t.Fatal(err)
	}
	instrumented := base
	instrumented.Runtime = obs.Runtime{Sink: &obs.Collector{}}
	observed, err := RunSecureN(prob, instrumented)
	if err != nil {
		t.Fatal(err)
	}
	for j := range plain.Theta {
		if plain.Theta[j] != observed.Theta[j] {
			t.Fatalf("sink perturbed θ[%d]: %v vs %v", j, plain.Theta[j], observed.Theta[j])
		}
	}
	for i := range plain.Shapley {
		if plain.Shapley[i] != observed.Shapley[i] {
			t.Fatalf("sink perturbed Shapley[%d]", i)
		}
	}
}

// SecureConfig's worker resolution: an explicit Runtime.Workers wins and a
// zero value keeps the protocol's historical GOMAXPROCS default.
func TestSecureWorkersPrecedence(t *testing.T) {
	if got := (SecureConfig{Runtime: obs.Runtime{Workers: 1}}).workers(); got != 1 {
		t.Errorf("Runtime.Workers=1: resolved %d, want 1", got)
	}
	if got := (SecureConfig{Runtime: obs.Runtime{Workers: 3}}).workers(); got != 3 {
		t.Errorf("Runtime.Workers=3: resolved %d, want 3", got)
	}
	if got := (SecureConfig{}).workers(); got < 1 {
		t.Errorf("zero config resolved %d workers", got)
	}
}
