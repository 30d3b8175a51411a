package vfl

import (
	"crypto/rand"
	"fmt"
	"math"
	"runtime"
	"time"

	"digfl/internal/faults"
	"digfl/internal/obs"
	"digfl/internal/paillier"
	"digfl/internal/parallel"
	"digfl/internal/tensor"
)

// SecureConfig parameterizes the encrypted vertical protocol of Algorithm 3
// (the paper's running example is two-party linear regression, after Yang
// et al.). Participant 1 holds the label and the first feature block; every
// other participant holds one further block; a trusted third party holds
// the Paillier key pair.
type SecureConfig struct {
	Epochs  int
	LR      float64
	KeyBits int // Paillier modulus size; the paper uses 1024
	// Key optionally supplies a pre-generated third-party key pair,
	// skipping per-run key generation — production deployments provision
	// the trusted third party once and amortize it across runs. KeyBits is
	// ignored when Key is set.
	Key *paillier.PrivateKey
	// MaskSeed seeds the gradient masks M₁, M₂ (Algorithm 3 step 4).
	MaskSeed int64
	// Runtime is the unified worker-budget-plus-observability surface.
	// Runtime.Workers bounds the pool used for the per-element Paillier
	// operations (vector encryption, the ring folds, the per-feature
	// encrypted dot products, and decryption); 1 forces the serial path
	// and 0 or negative selects GOMAXPROCS (the protocol's historical
	// default — Paillier is compute-bound, so serial-by-default would
	// only hide cores). Every decrypted result — and every accumulated
	// ciphertext, given the same [[d]] — is bit-identical for any worker
	// count: modular arithmetic is exact, so how the products are split
	// cannot perturb them.
	//
	// Runtime.Sink receives exact PaillierOp counter events (Enc, Dec,
	// Add, MulPlain) alongside the protocol's pool batches, so the paper's
	// computation-cost tables come from real counters: for a run with
	// known dimensions the collected counts equal the closed form implied
	// by Algorithm 3 (asserted in this package's tests).
	Runtime obs.Runtime
	// Faults optionally injects deterministic transient secure-round
	// failures (and straggler delays for individual parties). An injected
	// failure models message loss before the round consumes any entropy,
	// so a retried round is bit-identical to one that never failed.
	Faults *faults.Injector
	// MaxRetries bounds how many times a failed encrypted gradient round
	// is retried (so a round runs at most 1+MaxRetries attempts); when the
	// budget is exhausted the run fails with faults.ErrRetriesExhausted.
	// A retry follows its failure at once: the failure is injected, so
	// there is nothing to wait out.
	MaxRetries int
}

// workers resolves the effective Paillier pool size: the protocol is
// compute-bound, so a zero Runtime.Workers means GOMAXPROCS, not serial.
func (c SecureConfig) workers() int {
	if c.Runtime.Workers > 0 {
		return c.Runtime.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// SecureNResult reports the outcome of a secure run together with the
// DIG-FL per-epoch contributions computed inside the protocol (Eq. 27) and
// the exact communication cost of the encrypted exchanges.
type SecureNResult struct {
	// Theta is the final global model (block 1 ‖ … ‖ block n); in the real
	// protocol each party only ever sees its own block.
	Theta []float64
	// PerEpoch[t][i] is φ̂_{t+1,i} for party i.
	PerEpoch [][]float64
	// Shapley is the aggregated contribution Σ_t φ̂_{t,i} (Eq. 15).
	Shapley []float64
	// CommBytes counts every ciphertext and masked plaintext exchanged.
	CommBytes int64
}

// secureParty is one participant's private state.
type secureParty struct {
	x     *tensor.Matrix // local training features
	xv    *tensor.Matrix // local validation features
	theta []float64
}

// residualSpec captures how a model family's gradient factors through the
// shared encrypted residual [[d]] = [[p1Res(u₁, y)]] ⊕ u2Coeff·u₂:
//
//	∇loss_j = scale(m) · Σ_i d_i · x_ij
//
// Linear regression uses d = u₁+u₂−y with scale 2/m (the exact MSE
// gradient); logistic regression uses the Hardy et al. second-order Taylor
// approximation of the cross-entropy around z = 0, whose gradient is
// (1/m)·Σ (z/4 − ỹ/2)·x with ỹ = 2y−1.
type residualSpec struct {
	p1Res   func(u1, y float64) float64
	u2Coeff float64
	scale   func(m int) float64
}

func specFor(kind ModelKind) residualSpec {
	if kind == LinReg {
		return residualSpec{
			p1Res:   func(u1, y float64) float64 { return u1 - y },
			u2Coeff: 1,
			scale:   func(m int) float64 { return 2 / float64(m) },
		}
	}
	return residualSpec{
		p1Res:   func(u1, y float64) float64 { return float64(0.25*u1) - float64(0.5*(float64(2*y)-1)) },
		u2Coeff: 0.25,
		scale:   func(m int) float64 { return 1 / float64(m) },
	}
}

// RunSecureN executes the encrypted protocol of Algorithm 3 for any number
// of parties: cooperative computation of the training gradient, the
// validation gradient, and the per-epoch DIG-FL contributions, with additive
// masks hiding each party's gradient from the trusted third party. Labels
// (train and validation) belong to party 1. Linear regression uses the exact
// encrypted MSE gradient; logistic regression uses the Taylor-approximated
// cross-entropy gradient of Hardy et al. (the standard trick, since Paillier
// cannot evaluate the sigmoid). Party 1 starts the encrypted residual [[e]],
// every other party folds in its local result along a ring, the last party
// broadcasts the completed [[d]] to everyone, and each party then
// accumulates its masked encrypted gradient block for the third party to
// decrypt — the structure of the multi-party frameworks (FDML, Liu et al.)
// the paper says DIG-FL applies to.
func RunSecureN(prob *Problem, cfg SecureConfig) (*SecureNResult, error) {
	if err := prob.validate(); err != nil {
		return nil, err
	}
	if prob.Parties() < 2 {
		return nil, fmt.Errorf("vfl: secure protocol needs at least 2 parties, got %d", prob.Parties())
	}
	if cfg.Epochs <= 0 || cfg.LR <= 0 {
		return nil, fmt.Errorf("vfl: invalid secure config %+v", cfg)
	}
	// Trusted third party: key generation (Algorithm 3 step 1), or a
	// pre-provisioned key pair.
	sk := cfg.Key
	if sk == nil {
		bits := cfg.KeyBits
		if bits == 0 {
			bits = 1024
		}
		var err error
		sk, err = paillier.GenerateKey(rand.Reader, bits)
		if err != nil {
			return nil, fmt.Errorf("vfl: third party keygen: %w", err)
		}
	}
	pk := &sk.PublicKey
	ctBytes := int64(pk.Bytes())

	parties := make([]*secureParty, prob.Parties())
	for i, b := range prob.Blocks {
		idx := make([]int, 0, b.Size())
		for j := b.Lo; j < b.Hi; j++ {
			idx = append(idx, j)
		}
		parties[i] = &secureParty{
			x:     prob.Train.X.SelectCols(idx),
			xv:    prob.Val.X.SelectCols(idx),
			theta: make([]float64, b.Size()),
		}
	}
	maskRNG := tensor.NewRNG(cfg.MaskSeed)
	spec := specFor(prob.Kind)
	workers := cfg.workers()
	sink := cfg.Runtime.Sink

	// Step 4's table of [[d]] powers, one party at a time. The run owns it
	// so that every epoch after the first finds it grown.
	var tab paillier.DotTable

	inj, maxRetries := cfg.Faults, cfg.MaxRetries
	// secureRound wraps one encrypted gradient round (round 0: training,
	// round 1: validation) with the transient-failure retry loop: an
	// injected failure is retried at once, up to MaxRetries times. Failures
	// are injected before the round consumes any mask entropy, so the
	// eventual successful attempt produces ciphertexts and plaintexts
	// bit-identical to a run that never failed.
	secureRound := func(t, round int, y []float64, useVal bool) ([][]float64, int64, error) {
		for attempt := 0; inj.SecureRoundFails(t, round, attempt); attempt++ {
			if attempt >= maxRetries {
				return nil, 0, fmt.Errorf("vfl: epoch %d secure round %d failed %d times: %w",
					t, round, attempt+1, faults.ErrRetriesExhausted)
			}
			obs.Emit(sink, obs.Event{Kind: obs.KindRetry, T: t, N: int64(attempt + 1)})
		}
		return secureGradientN(sk, parties, &tab, y, useVal, spec, maskRNG, workers, sink)
	}

	res := &SecureNResult{Shapley: make([]float64, len(parties))}
	for t := 1; t <= cfg.Epochs; t++ {
		obs.Emit(sink, obs.Event{Kind: obs.KindEpochStart, T: t})
		epochStart := obs.Start(sink)
		// Injected straggler delays: a slow party holds up the synchronous
		// ring without changing any result.
		for i := range parties {
			if d, ok := inj.Straggles(t, i); ok {
				obs.Emit(sink, obs.Event{Kind: obs.KindStraggler, T: t, Part: i, Dur: d})
				time.Sleep(d)
			}
		}
		// Jointly compute the (unmasked-to-owner) training gradient blocks.
		grads, comm, err := secureRound(t, 0, prob.Train.Y, false)
		if err != nil {
			return nil, fmt.Errorf("vfl: epoch %d training gradient: %w", t, err)
		}
		res.CommBytes += comm * ctBytes
		// And the validation gradient blocks (Algorithm 3 line 4).
		vals, comm2, err := secureRound(t, 1, prob.Val.Y, true)
		if err != nil {
			return nil, fmt.Errorf("vfl: epoch %d validation gradient: %w", t, err)
		}
		res.CommBytes += comm2 * ctBytes
		// Per-epoch contributions (Eq. 27): each party computes the inner
		// product of its validation-gradient block with its block of
		// G_t = α·∇loss and reports the scalar to the third party.
		phis := make([]float64, len(parties))
		for i := range parties {
			phis[i] = float64(cfg.LR * tensor.Dot(vals[i], grads[i]))
			res.Shapley[i] += phis[i]
		}
		res.PerEpoch = append(res.PerEpoch, phis)
		res.CommBytes += int64(len(parties)) * 8
		// Local model updates (Algorithm 3 line 6).
		for i, p := range parties {
			tensor.AXPY(-cfg.LR, grads[i], p.theta)
		}
		obs.Emit(sink, obs.Event{Kind: obs.KindEpochEnd, T: t,
			Dur: obs.Since(sink, epochStart)})
	}
	for _, p := range parties {
		res.Theta = append(res.Theta, p.theta...)
	}
	return res, nil
}

// secureGradientN runs Algorithm 3 steps 2–5 for n parties on the given
// labels (owned by party 1). It returns every party's plaintext gradient
// block and the number of ciphertexts exchanged. The per-element Paillier
// operations run on the shared bounded pool with the given worker budget;
// the decrypted outputs are bit-identical for any budget. Each stage emits
// its exact homomorphic-operation count to the sink: per call with m
// samples, n parties and D total features that is m encryptions,
// m·(n−1) + D·m additions (ring folds, accumulation combines, masks),
// m·D plaintext multiplications and D decryptions. The counts are
// Algorithm 3's logical operations, whatever the fused kernel spends on
// them. A value the fixed-point encoding cannot carry — a diverged run's
// NaN, ±Inf or overflow, in an operand or in what a sum of products can
// reach — fails the call with ErrNonFinite before it is encoded.
func secureGradientN(sk *paillier.PrivateKey, parties []*secureParty, tab *paillier.DotTable, y []float64, useVal bool, spec residualSpec, maskRNG *tensor.RNG, workers int, sink obs.Sink) (grads [][]float64, ciphertexts int64, err error) {
	pk := &sk.PublicKey
	feats := func(p *secureParty) *tensor.Matrix {
		if useVal {
			return p.xv
		}
		return p.x
	}
	if feats(parties[0]).Rows != len(y) {
		return nil, 0, fmt.Errorf("labels (%d) do not match feature rows (%d)", len(y), feats(parties[0]).Rows)
	}
	m := len(y)

	// Step 2: party 1 starts the residual ring with its encrypted share.
	u1 := tensor.MatVec(feats(parties[0]), parties[0].theta)
	e := make([]float64, m)
	for i := range e {
		e[i] = spec.p1Res(u1[i], y[i])
	}
	if err := checkEncodable(pk, "residual", 1, e); err != nil {
		return nil, 0, err
	}
	// dBound ≥ max_i |d_i|: every party's largest share, summed. Step 4
	// sizes its accumulated sums against it.
	dBound := tensor.NormInf(e)
	encD, err := pk.EncryptVecN(rand.Reader, e, workers)
	if err != nil {
		return nil, 0, err
	}
	ciphertexts += int64(m)
	obs.Emit(sink, obs.Event{Kind: obs.KindPaillierEnc, N: int64(m)})

	// Step 3 (ring): every other party folds in its local result; the
	// completed [[d]] is then broadcast to all n parties.
	for _, p := range parties[1:] {
		share := tensor.MatVec(feats(p), p.theta)
		tensor.Scale(spec.u2Coeff, share)
		if err := checkEncodable(pk, "ring share", 1, share); err != nil {
			return nil, 0, err
		}
		dBound += tensor.NormInf(share)
		parallel.ForObs(m, workers, sink, func(i int) {
			encD[i] = pk.AddPlainFloat(encD[i], share[i])
		})
		obs.Emit(sink, obs.Event{Kind: obs.KindPaillierAdd, N: int64(m)})
		ciphertexts += int64(m) // forwarding [[d]] along the ring
	}
	ciphertexts += int64(m * (len(parties) - 1)) // broadcast of the final [[d]]

	// Step 4: each party accumulates its masked encrypted gradient block
	// [[∂loss/∂θ_j + M_j]] = Σ_i [[d_i]]·scale·x_ij ⊕ [[M_j]].
	grads = make([][]float64, len(parties))
	for pi, p := range parties {
		x := feats(p)
		d := x.Cols
		masks := maskRNG.NormalVec(d, 0, 10)
		// The party's plaintext multipliers k_ij = scale·x_ij, one
		// contiguous column per feature, and what each feature's masked
		// sum can reach: |Σ_i d_i·k_ij + M_j| ≤ dBound·Σ_i|k_ij| + |M_j|
		// has to fit scale Scale², or the plaintext wraps mod n unseen.
		scale := spec.scale(m)
		cols := make([]float64, d*m)
		sumBound := make([]float64, d)
		for j := 0; j < d; j++ {
			var k1 float64
			for i := 0; i < m; i++ {
				k := scale * x.At(i, j)
				cols[j*m+i] = k
				k1 += math.Abs(k)
			}
			sumBound[j] = float64(dBound*k1) + math.Abs(masks[j])
		}
		if err := checkEncodable(pk, "scaled feature", 1, cols); err != nil {
			return nil, 0, err
		}
		if err := checkEncodable(pk, "masked gradient bound", 2, sumBound); err != nil {
			return nil, 0, err
		}
		enc := maskedGradient(pk, tab, encD, cols, masks, workers, sink)
		// Per feature: m plaintext multiplications, m−1 accumulation
		// combines, one masking addition — batched into exact counters.
		obs.Emit(sink, obs.Event{Kind: obs.KindPaillierMulPlain, N: int64(m) * int64(d)})
		obs.Emit(sink, obs.Event{Kind: obs.KindPaillierAdd, N: int64(m) * int64(d)})
		ciphertexts += int64(2 * d) // masked ciphertexts out, plaintexts back
		// Step 5: third party decrypts; the party removes its mask.
		out, err := sk.DecryptVecAtScale(enc, 2, workers, func(n int, fn func(int)) {
			parallel.ForObs(n, workers, sink, fn)
		})
		if err != nil {
			return nil, 0, err
		}
		for j := range out {
			out[j] -= masks[j]
		}
		obs.Emit(sink, obs.Event{Kind: obs.KindPaillierDec, N: int64(d)})
		grads[pi] = out
	}
	return grads, ciphertexts, nil
}

// maskedGradient is Algorithm 3 step 4 for one party: for each of its
// len(masks) features j, the masked encrypted dot product
// Σ_i [[d_i]]·cols[j·m+i] ⊕ [[M_j]]. All of the party's features go to the
// Paillier kernel as one matrix, which shares the powers of [[d]] between
// them and cuts the rows to fit the worker budget; the ciphertext bits do
// not depend on the worker count. tab is the run's table.
func maskedGradient(pk *paillier.PublicKey, tab *paillier.DotTable, encD []*paillier.Ciphertext, cols, masks []float64, workers int, sink obs.Sink) []*paillier.Ciphertext {
	enc := pk.DotPlainFloatCols(tab, encD, cols, workers, func(n int, fn func(int)) {
		parallel.ForObs(n, workers, sink, fn)
	})
	for j := range enc {
		enc[j] = pk.AddPlain(enc[j], pk.EncodeAtScale(masks[j], 2))
	}
	return enc
}

// checkEncodable fails with ErrNonFinite, naming the first offender, when
// the fixed-point encoding at scale Scale^level cannot carry every value.
func checkEncodable(pk *paillier.PublicKey, what string, level int, vs []float64) error {
	for i, v := range vs {
		if err := pk.CheckEncodable(v, level); err != nil {
			return fmt.Errorf("%s %d: %w: %w", what, i, ErrNonFinite, err)
		}
	}
	return nil
}
