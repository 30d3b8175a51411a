package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"digfl/internal/core"
	"digfl/internal/dataset"
	"digfl/internal/obs"
	"digfl/internal/paillier"
	"digfl/internal/tensor"
	"digfl/internal/vfl"
)

// vfl-secure: Algorithm 3 — encrypted vertical linear regression with the
// per-epoch contributions computed inside the protocol (Eq. 27). A round is
// one secure epoch.
const (
	vflParties  = 3
	vflFeatures = 9
	vflRows     = 96 // 77 train + 19 validation
	vflKeyBits  = 1024
	vflLR       = 0.05
	// vflEpochs is the measured epoch count at refSeconds.
	vflEpochs = 14
	// vflTolerance bounds how far the fixed-point encrypted run may drift
	// from the float64 plaintext trainer.
	vflTolerance = 1e-6
)

func newVFLProblem(seed int64, rows int) *vfl.Problem {
	full := dataset.SynthTabular(dataset.TabularConfig{
		Name: "benchvfl", N: rows, D: vflFeatures, Task: dataset.Regression,
		Informative: 6, Noise: 0.2, Seed: seed,
	})
	train, val := full.Split(0.2, tensor.NewRNG(seed))
	return &vfl.Problem{
		Train: train, Val: val, Kind: vfl.LinReg,
		Blocks: dataset.VerticalBlocks(vflFeatures, vflParties),
	}
}

// epochSink timestamps the secure protocol's epoch events; it is how the
// benchmark sees a round from outside a single RunSecureN call.
type epochSink struct {
	mu   sync.Mutex
	durs []float64 // ms
	tr   *tracer
}

func (s *epochSink) Emit(e obs.Event) {
	if e.Kind != obs.KindEpochEnd {
		return
	}
	s.mu.Lock()
	s.durs = append(s.durs, ms(e.Dur))
	s.mu.Unlock()
	s.tr.root("vfl.secure_epoch", time.Now().Add(-e.Dur), e.T)
}

// vflPlain is the plaintext single-worker baseline on the same problem.
type vflPlain struct {
	theta   []float64
	shapley []float64
	epochUS float64
}

func runVFLPlain(prob *vfl.Problem, epochs int) (*vflPlain, error) {
	tr := &vfl.Trainer{Problem: prob, Cfg: vfl.Config{Epochs: epochs, LR: vflLR, KeepLog: true}}
	t0 := time.Now()
	res, err := tr.RunContext(context.Background())
	if err != nil {
		return nil, err
	}
	wall := time.Since(t0)
	attr := core.EstimateVFL(res.Log, prob.Blocks, core.ResourceSaving, nil)
	return &vflPlain{theta: res.Model.Params(), shapley: attr.Totals, epochUS: us(wall) / float64(epochs)}, nil
}

// vflPhase is one RunSecureN call's measurements.
type vflPhase struct {
	epochs    int
	wall      time.Duration
	latencies []float64
	commBytes int64
	mem       memDelta
	counts    obs.Snapshot
}

func runVFLSecure(prob *vfl.Problem, key *paillier.PrivateKey, seed int64, epochs int, tr *tracer, res *result, plain *vflPlain) (*vflPhase, error) {
	ph := &vflPhase{epochs: epochs}
	sink := &epochSink{tr: tr}
	collector := &obs.Collector{}
	m0 := readMem(true)
	t0 := time.Now()
	out, err := vfl.RunSecureN(prob, vfl.SecureConfig{
		Epochs: epochs, LR: vflLR, Key: key, MaskSeed: seed,
		Runtime: obs.Runtime{Workers: runtime.GOMAXPROCS(0), Sink: obs.Tee(sink, collector)},
	})
	ph.wall = time.Since(t0)
	ph.mem = readMem(false).since(m0)
	res.attempted += int64(epochs)
	if err != nil {
		res.failed += int64(epochs)
		return nil, err
	}
	ph.latencies = sink.durs
	ph.commBytes = out.CommBytes
	ph.counts = collector.Snapshot()

	if len(ph.latencies) != epochs {
		res.fail(fmt.Errorf("secure run reported %d epochs, want %d", len(ph.latencies), epochs))
	}
	for j := range plain.theta {
		if d := math.Abs(out.Theta[j] - plain.theta[j]); d > vflTolerance {
			res.fail(fmt.Errorf("secure θ[%d] is %.3g from the plaintext trainer", j, d))
			break
		}
	}
	for i := range plain.shapley {
		if d := math.Abs(out.Shapley[i] - plain.shapley[i]); d > vflTolerance {
			res.fail(fmt.Errorf("secure φ[%d] is %.3g from core.EstimateVFL on the plaintext log", i, d))
			break
		}
	}
	// Algorithm 3's closed form: per gradient call over m samples, n parties
	// and D features — m encryptions, m(n−1)+Dm additions, mD plaintext
	// multiplications, D decryptions; two calls (training, validation) per
	// epoch.
	m := int64(prob.Train.Len() + prob.Val.Len())
	d, n, e := int64(vflFeatures), int64(vflParties), int64(epochs)
	for _, ck := range []struct {
		name      string
		got, want int64
	}{
		{"encryptions", ph.counts.PaillierEnc, e * m},
		{"decryptions", ph.counts.PaillierDec, e * 2 * d},
		{"additions", ph.counts.PaillierAdd, e * (m*(n-1) + d*m)},
		{"plaintext multiplications", ph.counts.PaillierMulPlain, e * m * d},
	} {
		if ck.got != ck.want {
			res.fail(fmt.Errorf("%d Paillier %s, closed form says %d", ck.got, ck.name, ck.want))
		}
	}
	return ph, nil
}

func runVFL(o runOpts) (*result, error) {
	epochs := scaleRounds(vflEpochs, o.seconds, 2)
	if o.trace {
		epochs /= 2
	}
	res := newResult("vfl-secure", o)
	res.stamp["rounds"] = epochs
	bits, rows := vflKeyBits, vflRows
	if o.smoke {
		bits, rows = 256, 30
	}
	res.stamp["key_bits"] = bits

	// Key generation is a random prime search whose time no median tames;
	// the trusted third party is provisioned ahead of the set-up clock and
	// its cost reported on its own.
	t0 := time.Now()
	key, err := paillier.GenerateKey(rand.Reader, bits)
	if err != nil {
		return nil, err
	}
	keygenMS := ms(time.Since(t0))

	// Set-up: build the vertically partitioned problem, run the plaintext
	// baseline, and take one encrypted epoch with the provisioned key so the
	// big-integer scratch pools are warm before the clock starts.
	var prob *vfl.Problem
	var plain *vflPlain
	var setupS []float64
	for rep := 0; rep < setupReps; rep++ {
		res.host.sample()
		t0 := time.Now()
		prob = newVFLProblem(o.seed, rows)
		if plain, err = runVFLPlain(prob, epochs); err != nil {
			return nil, err
		}
		if _, err := vfl.RunSecureN(prob, vfl.SecureConfig{
			Epochs: 1, LR: vflLR, Key: key, MaskSeed: o.seed,
			Runtime: obs.Runtime{Workers: runtime.GOMAXPROCS(0)},
		}); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	res.host.sample()
	base, err := runVFLSecure(prob, key, o.seed, epochs, nil, res, plain)
	if err != nil {
		return nil, err
	}
	res.host.sample()
	res.timing(quiet(setupS, 1), base.epochs, base.wall, base.latencies, 1)
	res.e2e(base.epochs, float64(base.commBytes)/float64(base.epochs), base.mem)
	if !o.trace {
		return res, nil
	}

	tr := newTracer(epochs)
	traced, err := runVFLSecure(prob, key, o.seed, epochs, tr, res, plain)
	if err != nil {
		return nil, err
	}
	perEpoch := func(n int64) float64 { return float64(n) / float64(epochs) }
	res.layer("vfl.secure_epoch_ms", median(traced.latencies))
	res.layer("vfl.plain_epoch_us", plain.epochUS)
	res.layer("paillier.keygen_ms", keygenMS)
	res.layer("paillier.enc_per_epoch", perEpoch(traced.counts.PaillierEnc))
	res.layer("paillier.dec_per_epoch", perEpoch(traced.counts.PaillierDec))
	res.layer("paillier.add_per_epoch", perEpoch(traced.counts.PaillierAdd))
	res.layer("paillier.mulplain_per_epoch", perEpoch(traced.counts.PaillierMulPlain))
	res.layer("bench.trace_overhead_frac", traced.wall.Seconds()/base.wall.Seconds()-1)
	res.gc(traced.mem)
	res.tracer = tr
	return res, nil
}

func init() { workloads["vfl-secure"] = runVFL }
