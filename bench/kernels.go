package main

import (
	"crypto/rand"
	"math/big"
	"time"

	"digfl/internal/core"
	"digfl/internal/dataset"
	"digfl/internal/fednet"
	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/paillier"
	"digfl/internal/robust"
	"digfl/internal/sampling"
	"digfl/internal/tensor"
)

// The kernel pass times each layer's inner operation on its own, at the
// shapes the workloads use, after the traced phase. Every traced run makes
// the whole pass, whatever its workload, so a kernel's trajectory does not
// depend on which workload a reader happens to look at.

// kernelSink keeps the compiler from discarding a kernel's result.
var kernelSink float64

// kernelBatches is how many batches of calls one kernel is timed over.
const kernelBatches = 8

// timeKernel returns f's time per call in nanoseconds on a quiet host: the
// batch size doubles until one batch lasts batchTime, then kernelBatches
// such batches are timed and the quiet estimate of a batch is taken.
func timeKernel(batchTime time.Duration, f func()) float64 {
	f()
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if d := time.Since(t0); d >= batchTime || n >= 1<<24 {
			break
		}
		n *= 2
	}
	per := make([]float64, kernelBatches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per[b] = float64(time.Since(t0)) / float64(n)
	}
	return quiet(per, 1)
}

func runKernels(res *result) error {
	batch := 8 * time.Millisecond
	keyBits := vflKeyBits
	if res.opts.smoke {
		batch, keyBits = 200*time.Microsecond, 256
	}
	const dim, cohort, pop = 2000, 64, 100_000
	rng := tensor.NewRNG(res.opts.seed)
	vec := func() []float64 { return rng.NormalVec(dim, 0, 1) }
	ns := func(f func()) float64 { return timeKernel(batch, f) }
	usOf := func(f func()) float64 { return timeKernel(batch, f) / 1e3 }

	// tensor
	a, b := vec(), vec()
	res.layer("tensor.dot_2000_ns", ns(func() { kernelSink += tensor.Dot(a, b) }))
	res.layer("tensor.axpy_2000_ns", ns(func() { tensor.AXPY(1e-9, a, b) }))
	res.layer("tensor.pool_getput_ns", ns(func() { tensor.PutVec(tensor.GetVec(dim)) }))

	// fednet codec (the driver's share of an update)
	var encErr error
	res.layer("fednet.codec_v2_encode_update_ns", ns(func() {
		body, err := fednet.CodecV2.EncodeUpdate(1, 1, a)
		if err != nil {
			encErr = err
		}
		tensor.PutBytes(body)
	}))
	if encErr != nil {
		return encErr
	}

	// hfl fold over one cohort
	deltas := make([][]float64, cohort)
	for k := range deltas {
		deltas[k] = vec()
	}
	valGrad := vec()
	var foldErr error
	res.layer("hfl.meanstream_fold_64x2000_us", usOf(func() {
		fold := hfl.MeanStream{}.NewFold(dim, cohort, valGrad)
		for k, d := range deltas {
			if err := fold.Add(k, d); err != nil {
				foldErr = err
			}
		}
		fr, err := fold.Close()
		if err != nil {
			foldErr = err
			return
		}
		kernelSink += fr.Sum[0]
	}))
	if foldErr != nil {
		return foldErr
	}

	// sampling: one cohort draw from the reference population
	population := make([]int, pop)
	for i := range population {
		population[i] = i
	}
	smp := sampling.MustNew(sampling.Config{Seed: res.opts.seed, Size: cohort})
	epoch := 0
	res.layer("sampling.cohort_100k_us", usOf(func() {
		epoch++
		kernelSink += float64(smp.Cohort(epoch, population)[0])
	}))

	// core: the estimator's Observe on a streamed and on a buffered epoch
	reported := smp.Cohort(1, population)
	streamed := core.NewHFLEstimator(pop, dim, core.ResourceSaving, nil)
	streamed.TotalsOnly = true
	sep := &hfl.Epoch{ValGrad: valGrad, Reported: reported, DeltaDots: make([]float64, cohort)}
	res.layer("core.observe_dots_100k_us", usOf(func() {
		sep.T++
		kernelSink += streamed.Observe(sep)[reported[0]]
	}))
	buffered := core.NewHFLEstimator(cohort, dim, core.ResourceSaving, nil)
	buffered.TotalsOnly = true
	bep := &hfl.Epoch{ValGrad: valGrad, Deltas: deltas}
	res.layer("core.observe_deltas_64x2000_us", usOf(func() {
		bep.T++
		kernelSink += buffered.Observe(bep)[0]
	}))

	// robust: quarantine bookkeeping and Eq. 17 weights over one cohort
	// (first-order projection, no estimator attached)
	quar := robust.MustNewQuarantine(robust.Quarantine{})
	qep := &hfl.Epoch{ValGrad: valGrad, Deltas: deltas}
	res.layer("robust.quarantine_weights_64_us", usOf(func() {
		qep.T++
		kernelSink += quar.Weights(qep)[0]
	}))

	// nn: the utility evaluation and HVP the audit engines spend their time
	// in, and the validation gradient every fednet round takes
	audit := newAuditProblem(res.opts.seed, res.opts.smoke)
	softmax := audit.model.Clone()
	res.layer("nn.softmax_loss_us", usOf(func() { kernelSink += softmax.Loss(audit.val.X, audit.val.Y) }))
	hv := rng.NormalVec(softmax.NumParams(), 0, 1)
	res.layer("nn.softmax_hvp_us", usOf(func() {
		kernelSink += nn.HVP(softmax, audit.parts[0].X, audit.parts[0].Y, hv)[0]
	}))
	val := dataset.SynthTabular(dataset.TabularConfig{
		Name: "kernelval", N: 24, D: dim, Task: dataset.Regression,
		Informative: 8, Noise: 0.3, Seed: res.opts.seed,
	})
	linreg := nn.NewLinearRegression(dim, false)
	res.layer("nn.linreg_val_grad_2000_us", usOf(func() { kernelSink += linreg.Grad(val.X, val.Y)[0] }))

	// paillier at the secure workload's key size; vfl-secure has already
	// reported its own key generation
	t0 := time.Now()
	key, err := paillier.GenerateKey(rand.Reader, keyBits)
	if err != nil {
		return err
	}
	if _, ok := res.values["paillier.keygen_ms"]; !ok {
		res.layer("paillier.keygen_ms", ms(time.Since(t0)))
	}
	pk := &key.PublicKey
	m := big.NewInt(123456789)
	var pErr error
	res.layer("paillier.encrypt_us", usOf(func() {
		if _, err := pk.Encrypt(rand.Reader, m); err != nil {
			pErr = err
		}
	}))
	ct1, err := pk.EncryptFloat(rand.Reader, 0.25)
	if err != nil {
		return err
	}
	ct2, err := pk.EncryptFloat(rand.Reader, -1.5)
	if err != nil {
		return err
	}
	res.layer("paillier.decrypt_us", usOf(func() {
		if _, err := key.Decrypt(ct1); err != nil {
			pErr = err
		}
	}))
	res.layer("paillier.add_us", usOf(func() { pk.Add(ct1, ct2) }))
	// A negative plaintext encodes near n, the exponent size the protocol's
	// residual-times-feature products actually see.
	res.layer("paillier.mulplain_us", usOf(func() { pk.MulPlainFloat(ct1, -0.731) }))
	return pErr
}
