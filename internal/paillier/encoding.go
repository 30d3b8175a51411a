package paillier

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"sync"

	"digfl/internal/parallel"
)

// Scale is the default fixed-point scale: floats are encoded as
// trunc(v·Scale) — truncated toward zero, not rounded — before encryption.
// 2^40 keeps ~12 decimal digits while leaving ample headroom in a ≥256-bit
// modulus for the sums the VFL protocol accumulates.
const Scale = 1 << scaleBits

const scaleBits = 40

// ErrNotEncodable is the sentinel wrapped by CheckEncodable's errors; match
// it with errors.Is.
var ErrNotEncodable = errors.New("paillier: value not encodable")

// CheckEncodable reports whether the fixed-point encoding can carry v at
// scale Scale^level: v·Scale must be a finite float64 and |v|·Scale^level
// must stay below n/2, the bound past which the signed encoding wraps.
// EncryptFloat checks for itself; callers of Encode, EncodeAtScale,
// AddPlainFloat, MulPlainFloat and DotPlainFloat, which have no error to
// return, check values they cannot vouch for first.
func (pk *PublicKey) CheckEncodable(v float64, level int) error {
	if s := v * Scale; math.IsNaN(s) || math.IsInf(s, 0) {
		return fmt.Errorf("%w: %v", ErrNotEncodable, v)
	}
	shift := scaleBits * level
	// |v| < 2^exp, so exp+shift ≤ bitlen(n)−2 puts |v|·Scale^level below
	// 2^(bitlen(n)−2) ≤ n/2 — all but astronomically large values stop here.
	if _, exp := math.Frexp(v); exp+shift <= pk.N.BitLen()-2 {
		return nil
	}
	scaled := big.NewFloat(math.Abs(v))
	scaled.SetMantExp(scaled, shift)
	half := new(big.Float).SetInt(new(big.Int).Rsh(pk.N, 1)) // (n−1)/2, exactly
	if scaled.Cmp(half) > 0 {
		return fmt.Errorf("%w: |%v|·2^%d exceeds n/2", ErrNotEncodable, v, shift)
	}
	return nil
}

// setScaled sets z = trunc(|v|·Scale) and reports whether v is negative.
// It panics on a value whose product with Scale is not finite: a caller
// that skipped CheckEncodable has a bug, and there is no error to return.
func setScaled(z *big.Int, v float64) (neg bool) {
	a := math.Abs(v * Scale)
	switch {
	case a < 1<<63:
		z.SetUint64(uint64(a)) // the common case, without a big.Float
	case a <= math.MaxFloat64:
		big.NewFloat(a).Int(z)
	default:
		panic(fmt.Sprintf("paillier: %v is not encodable", v))
	}
	return v < 0
}

// Encode maps a float64 to a field element: non-negative values map to
// trunc(v·Scale), negative values wrap to n − trunc(|v|·Scale).
func (pk *PublicKey) Encode(v float64) *big.Int { return pk.EncodeAtScale(v, 1) }

// EncodeAtScale encodes v at fixed-point scale Scale^level with Encode's
// resolution — Encode(v)·Scale^(level−1) mod n — the level of a ciphertext
// that went through level−1 float multiplications.
func (pk *PublicKey) EncodeAtScale(v float64, level int) *big.Int {
	return pk.encodeTo(new(big.Int), v, level)
}

// encodeTo is EncodeAtScale into z. With z grown it allocates nothing: the
// reduction of a value already in (−n, n) has an empty quotient.
func (pk *PublicKey) encodeTo(z *big.Int, v float64, level int) *big.Int {
	neg := setScaled(z, v)
	z.Lsh(z, uint(scaleBits*(level-1)))
	if neg {
		z.Neg(z)
	}
	return z.Mod(z, pk.N)
}

// Decode inverts Encode: values above n/2 are interpreted as negative.
func (pk *PublicKey) Decode(m *big.Int) float64 {
	return pk.atScale(new(big.Int).Set(m), 1)
}

// atScale decodes m at fixed-point scale Scale^level, values above n/2 as
// negative, overwriting m. The division by Scale^level is exact, so the one
// rounding is the float64 conversion's.
func (pk *PublicKey) atScale(m *big.Int, level int) float64 {
	r := getInt().Sub(pk.N, m)
	if r.Cmp(m) < 0 { // m > n/2
		m.Neg(r)
	}
	putInt(r)
	f := new(big.Float).SetInt(m)
	v, _ := f.SetMantExp(f, -scaleBits*level).Float64()
	return v
}

// EncryptFloat encrypts a float64 under the fixed-point encoding. A value
// the encoding cannot carry (see CheckEncodable) is an error.
func (pk *PublicKey) EncryptFloat(rnd io.Reader, v float64) (*Ciphertext, error) {
	if err := pk.CheckEncodable(v, 1); err != nil {
		return nil, err
	}
	return pk.Encrypt(rnd, pk.Encode(v))
}

// DecryptFloat decrypts to a float64 under the fixed-point encoding.
func (sk *PrivateKey) DecryptFloat(ct *Ciphertext) (float64, error) {
	return sk.DecryptFloatAtScale(ct, 1)
}

// EncryptVec encrypts every element of v serially. For large vectors prefer
// EncryptVecN, which spreads the per-element modular exponentiations over
// the shared bounded worker pool.
func (pk *PublicKey) EncryptVec(rnd io.Reader, v []float64) ([]*Ciphertext, error) {
	return pk.EncryptVecN(rnd, v, 1)
}

// EncryptVecN encrypts every element of v using at most `workers`
// goroutines (0 or negative selects GOMAXPROCS). When more than one worker
// may run, rnd must be safe for concurrent use — crypto/rand.Reader is. The
// plaintexts inside the returned ciphertexts are identical to the serial
// path for any worker count; only the encryption randomness differs.
func (pk *PublicKey) EncryptVecN(rnd io.Reader, v []float64, workers int) ([]*Ciphertext, error) {
	out := make([]*Ciphertext, len(v))
	var firstErr vecErr
	parallel.For(len(v), workers, func(i int) {
		ct, err := pk.EncryptFloat(rnd, v[i])
		if err != nil {
			firstErr.set(i, fmt.Errorf("paillier: encrypting element %d: %w", i, err))
			return
		}
		out[i] = ct
	})
	if err := firstErr.get(); err != nil {
		return nil, err
	}
	return out, nil
}

// DecryptVec decrypts every element serially. For large vectors prefer
// DecryptVecN.
func (sk *PrivateKey) DecryptVec(cts []*Ciphertext) ([]float64, error) {
	return sk.DecryptVecN(cts, 1)
}

// DecryptVecN decrypts every element using at most `workers` goroutines
// (0 or negative selects GOMAXPROCS). The result is bit-identical to the
// serial path: decryption is a pure function of each ciphertext.
func (sk *PrivateKey) DecryptVecN(cts []*Ciphertext, workers int) ([]float64, error) {
	return sk.DecryptVecAtScale(cts, 1, workers, nil)
}

// DecryptVecAtScale decrypts ciphertexts whose plaintexts are at fixed-point
// scale Scale^level to exactly what DecryptFloatAtScale returns for each. Its
// tasks are the 2·len(cts) CRT halves — one exponentiation mod p² or mod q²
// each, so the worker budget is filled even by fewer ciphertexts than
// workers — run through each(n, fn), or parallel.For with the worker budget
// when each is nil, and recombined serially. An out-of-range ciphertext fails
// the call before any exponentiation, and the error names the lowest such
// index whatever the budget.
func (sk *PrivateKey) DecryptVecAtScale(cts []*Ciphertext, level, workers int, each func(n int, fn func(t int))) ([]float64, error) {
	if level < 1 {
		return nil, fmt.Errorf("paillier: invalid scale level %d", level)
	}
	for i, ct := range cts {
		if !sk.inRange(ct) {
			return nil, fmt.Errorf("paillier: decrypting element %d: %w", i, errOutOfRange)
		}
	}
	if each == nil {
		each = func(n int, fn func(int)) { parallel.For(n, workers, fn) }
	}
	halves := make([]*big.Int, 2*len(cts))
	each(len(halves), func(t int) {
		halves[t] = sk.half(getInt(), cts[t/2].C, t%2)
	})
	out := make([]float64, len(cts))
	m := getInt()
	for i := range out {
		out[i] = sk.atScale(sk.combine(m, halves[2*i], halves[2*i+1]), level)
	}
	putInt(m)
	return out, nil
}

// vecErr retains the error from the lowest-indexed failing element of a
// parallel vector operation, so the reported error is deterministic no
// matter which worker fails first.
type vecErr struct {
	mu  sync.Mutex
	i   int
	err error
}

func (e *vecErr) set(i int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err == nil || i < e.i {
		e.i, e.err = i, err
	}
}

func (e *vecErr) get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// AddVec returns the element-wise homomorphic sum of two ciphertext vectors.
func (pk *PublicKey) AddVec(a, b []*Ciphertext) []*Ciphertext {
	if len(a) != len(b) {
		panic(fmt.Sprintf("paillier: AddVec length mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]*Ciphertext, len(a))
	for i := range a {
		out[i] = pk.Add(a[i], b[i])
	}
	return out
}

// AddPlainFloat returns the encryption of a + v under fixed-point encoding.
func (pk *PublicKey) AddPlainFloat(a *Ciphertext, v float64) *Ciphertext {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return pk.addPlain(a, pk.encodeTo(&s.x, v, 1), s)
}

// MulPlainFloat multiplies a ciphertext by a plaintext float. The plaintext
// inside the result is at fixed-point scale Scale² (one extra Scale factor
// per float multiplication) — decrypt it with DecryptFloatAtScale(ct, 2).
func (pk *PublicKey) MulPlainFloat(a *Ciphertext, v float64) *Ciphertext {
	return pk.DotPlainFloat([]*Ciphertext{a}, []float64{v})
}

// DotPlainFloat returns the encryption of Σ vᵢ·aᵢ at fixed-point scale
// Scale²: one column of DotPlainFloatCols on a table of the call's own.
func (pk *PublicKey) DotPlainFloat(cts []*Ciphertext, vs []float64) *Ciphertext {
	if len(cts) != len(vs) {
		panic(fmt.Sprintf("paillier: DotPlainFloat length mismatch %d vs %d", len(cts), len(vs)))
	}
	return pk.dotCols(new(DotTable), cts, 1, func(_, i int, mag *big.Int) bool {
		return setScaled(mag, vs[i])
	}, 1, nil)[0]
}

// DecryptFloatAtScale decrypts a ciphertext whose plaintext is at
// fixed-point scale Scale^level; level 1 is the ordinary encoding, level 2
// the result of one MulPlainFloat, and so on.
func (sk *PrivateKey) DecryptFloatAtScale(ct *Ciphertext, level int) (float64, error) {
	if level < 1 {
		return 0, fmt.Errorf("paillier: invalid scale level %d", level)
	}
	m, err := sk.Decrypt(ct)
	if err != nil {
		return 0, err
	}
	return sk.atScale(m, level), nil
}
