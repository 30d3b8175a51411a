package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"digfl/internal/core"
	"digfl/internal/dataset"
	"digfl/internal/hfl"
	"digfl/internal/logio"
	"digfl/internal/metrics"
	"digfl/internal/nn"
	"digfl/internal/shapley"
	"digfl/internal/tensor"
)

// audit-engines: the paper's headline comparison as an offline audit. A
// training log is archived once; each measured pass reads the archive back
// and feeds every epoch, in lockstep, to DIG-FL ResourceSaving, DIG-FL
// Interactive, GTG-Shapley and TMC-Shapley. A round is one log epoch
// replayed through all four.
const (
	auditParts = 8
	// auditEpochs is the archived log's length. Each pass's first round also
	// pays for reading the archive; with 16 epochs those are 6.25 % of the
	// rounds, so round_p95_ms falls among them and not on the edge between
	// them and the rest (with 20 it would sit exactly on that edge).
	auditEpochs = 16
	// auditPasses is the measured pass count at refSeconds.
	auditPasses = 13
	// Rank-agreement floors against the exact per-round Shapley value, fixed
	// below what seeds 1–40 measured so that no seed fails: ResourceSaving
	// agrees exactly (τ = 1) on all forty, and its floor leaves room for one
	// adjacent swap among 8; GTG's sampled permutations cost it one swap
	// (τ = 0.929) on fourteen seeds and two (0.857) on one, and its floor sits
	// two swaps below that.
	gtgTauFloor = 0.7
	rsTauFloor  = 0.9
)

// auditProblem is the federation the audit replays: graded label corruption
// (participant i mislabels i/n of its shard) separates the ground-truth
// ranking, so rank agreement measures the estimator and not coin flips.
type auditProblem struct {
	model  nn.Model
	parts  []dataset.Dataset
	val    dataset.Dataset
	epochs int
}

// newAuditProblem builds the audit federation; smoke shrinks it for the
// package test.
func newAuditProblem(seed int64, smoke bool) *auditProblem {
	samples, epochs := 2000, auditEpochs
	if smoke {
		samples, epochs = 400, 4
	}
	rng := tensor.NewRNG(seed)
	full := dataset.MNISTLike(samples, seed)
	train, val := full.Split(0.2, rng)
	parts := dataset.PartitionIID(train, auditParts, rng)
	for i := 1; i < auditParts; i++ {
		parts[i] = dataset.Mislabel(parts[i], float64(i)/auditParts, rng.Split(int64(i)))
	}
	return &auditProblem{
		model: nn.NewSoftmaxRegression(train.Dim(), train.Classes),
		parts: parts, val: val, epochs: epochs,
	}
}

func (p *auditProblem) valLoss() shapley.ValLoss {
	m := p.model.Clone()
	return func(theta []float64) float64 {
		m.SetParams(theta)
		return m.Loss(p.val.X, p.val.Y)
	}
}

func (p *auditProblem) engine(name string, seed int64) (shapley.Engine, error) {
	return shapley.NewEngine(name, shapley.EngineSpec{N: auditParts, Loss: p.valLoss(), Seed: seed})
}

// auditSetup is what set-up leaves for the measured loop.
type auditSetup struct {
	archive []byte
	exact   []float64
	trainMS float64 // per training epoch
	writeMS float64
}

// setup trains the federation with KeepLog, computes the exact engine once
// as the ranking reference, and archives the log.
func (p *auditProblem) setup(seed int64) (*auditSetup, error) {
	tr := &hfl.Trainer{
		Model: p.model, Parts: p.parts, Val: p.val,
		Cfg: hfl.Config{Epochs: p.epochs, LR: 0.3, KeepLog: true},
	}
	t0 := time.Now()
	run, err := tr.RunContext(context.Background())
	if err != nil {
		return nil, err
	}
	s := &auditSetup{trainMS: ms(time.Since(t0)) / float64(p.epochs)}
	exact, err := p.engine("exact", seed)
	if err != nil {
		return nil, err
	}
	for _, ep := range run.Log {
		exact.Observe(ep)
	}
	s.exact = exact.Finalize().Totals
	var buf bytes.Buffer
	t0 = time.Now()
	if err := logio.WriteHFL(&buf, run.Log); err != nil {
		return nil, err
	}
	s.writeMS = ms(time.Since(t0))
	s.archive = buf.Bytes()
	return s, nil
}

// auditPass is one pass's outputs: each estimator's totals and the engines'
// distinct utility evaluations.
type auditPass struct {
	rs, inter, gtg, tmc []float64
	gtgEvals, tmcEvals  int64
	log                 []*hfl.Epoch
}

// auditPhase is what a measured phase (several passes) observed.
type auditPhase struct {
	rounds    int
	wall      time.Duration
	latencies []float64
	mem       memDelta
	last      *auditPass
}

// pass reads the archive and replays it. done receives the completion time
// of every epoch; tr, when non-nil, records a span per layer call.
func (p *auditProblem) pass(s *auditSetup, seed int64, n int, tr *tracer, done func(time.Time)) (*auditPass, error) {
	id := tr.begin("logio.read_hfl", n*p.epochs+1)
	log, err := logio.ReadHFL(bytes.NewReader(s.archive))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	rs := core.NewHFLEstimator(auditParts, p.model.NumParams(), core.ResourceSaving, nil)
	inter := core.NewHFLEstimator(auditParts, p.model.NumParams(), core.Interactive, core.LocalHVP(p.model, p.parts))
	gtg, err := p.engine("gtg", seed)
	if err != nil {
		return nil, err
	}
	tmc, err := p.engine("tmc", seed)
	if err != nil {
		return nil, err
	}
	for k, ep := range log {
		round := n*p.epochs + k + 1
		id := tr.begin("core.rs", round)
		rs.Observe(ep)
		tr.end(id)
		id = tr.begin("core.interactive", round)
		inter.Observe(ep)
		tr.end(id)
		id = tr.begin("shapley.gtg", round)
		gtg.Observe(ep)
		tr.end(id)
		id = tr.begin("shapley.tmc", round)
		tmc.Observe(ep)
		tr.end(id)
		done(time.Now())
	}
	g, t := gtg.Finalize(), tmc.Finalize()
	return &auditPass{
		rs: rs.Attribution().Totals, inter: inter.Attribution().Totals,
		gtg: g.Totals, tmc: t.Totals,
		gtgEvals: g.Cost.UtilityEvals, tmcEvals: t.Cost.UtilityEvals,
		log: log,
	}, nil
}

// phase runs passes and checks every pass against the first.
func (p *auditProblem) phase(s *auditSetup, seed int64, passes int, tr *tracer, res *result) (*auditPhase, error) {
	ph := &auditPhase{rounds: passes * p.epochs}
	marks := make([]time.Time, 0, ph.rounds+1)
	var first *auditPass
	m0 := readMem(true)
	marks = append(marks, time.Now())
	for n := 0; n < passes; n++ {
		pass, err := p.pass(s, seed, n, tr, func(at time.Time) { marks = append(marks, at) })
		if err != nil {
			return nil, err
		}
		res.attempted += int64(4 * p.epochs)
		if first == nil {
			first = pass
		} else if !equalBits(pass.rs, first.rs) || !equalBits(pass.inter, first.inter) ||
			!equalBits(pass.gtg, first.gtg) || !equalBits(pass.tmc, first.tmc) {
			res.fail(fmt.Errorf("pass %d totals differ from pass 1", n+1))
		}
		ph.last = pass
	}
	ph.mem = readMem(false).since(m0)
	ph.wall = marks[len(marks)-1].Sub(marks[0])
	for k := 1; k < len(marks); k++ {
		ph.latencies = append(ph.latencies, ms(marks[k].Sub(marks[k-1])))
	}
	return ph, nil
}

func runAudit(o runOpts) (*result, error) {
	passes := scaleRounds(auditPasses, o.seconds, 2)
	if o.trace {
		passes /= 2
	}
	res := newResult("audit-engines", o)
	p := newAuditProblem(o.seed, o.smoke)
	res.stamp["rounds"] = passes * p.epochs
	res.stamp["passes"] = passes

	var s *auditSetup
	var setupS []float64
	for rep := 0; rep < setupReps; rep++ {
		res.host.sample()
		t0 := time.Now()
		var err error
		if s, err = p.setup(o.seed); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	res.host.sample()
	base, err := p.phase(s, o.seed, passes, nil, res)
	if err != nil {
		return nil, err
	}
	res.host.sample()
	last := base.last
	// The archive round-trips bit for bit: what was read serialises back to
	// the bytes it was read from.
	var again bytes.Buffer
	if err := logio.WriteHFL(&again, last.log); err != nil {
		return nil, err
	}
	if !bytes.Equal(again.Bytes(), s.archive) {
		res.fail(fmt.Errorf("logio round-trip is not bit-identical"))
	}
	gtgTau := metrics.Kendall(s.exact, last.gtg)
	rsTau := metrics.Kendall(s.exact, last.rs)
	res.layer("shapley.gtg_kendall_tau", gtgTau)
	res.layer("core.rs_kendall_tau", rsTau)
	if gtgTau < gtgTauFloor {
		res.fail(fmt.Errorf("gtg Kendall tau %.3f below floor %.2f", gtgTau, gtgTauFloor))
	}
	if rsTau < rsTauFloor {
		res.fail(fmt.Errorf("resource-saving Kendall tau %.3f below floor %.2f", rsTau, rsTauFloor))
	}
	res.timing(quiet(setupS, 1), base.rounds, base.wall, base.latencies, p.epochs)
	res.e2e(base.rounds, float64(len(s.archive))/float64(p.epochs), base.mem)
	if !o.trace {
		return res, nil
	}

	tr := newTracer(passes * (4*p.epochs + 1))
	traced, err := p.phase(s, o.seed, passes, tr, res)
	if err != nil {
		return nil, err
	}
	total, _ := tr.totals()
	perEpoch := func(name string) float64 { return ms(total[name]) / float64(traced.rounds) }
	res.layer("core.rs_ms_per_epoch", perEpoch("core.rs"))
	res.layer("core.interactive_ms_per_epoch", perEpoch("core.interactive"))
	res.layer("shapley.gtg_ms_per_epoch", perEpoch("shapley.gtg"))
	res.layer("shapley.tmc_ms_per_epoch", perEpoch("shapley.tmc"))
	res.layer("shapley.gtg_utility_evals", float64(traced.last.gtgEvals))
	res.layer("shapley.tmc_utility_evals", float64(traced.last.tmcEvals))
	res.layer("logio.read_hfl_ms", ms(total["logio.read_hfl"])/float64(passes))
	res.layer("logio.write_hfl_ms", s.writeMS)
	res.layer("hfl.trainer_epoch_ms", s.trainMS)
	res.layer("bench.trace_overhead_frac", traced.wall.Seconds()/base.wall.Seconds()-1)
	res.gc(traced.mem)
	res.tracer = tr
	return res, nil
}

func init() { workloads["audit-engines"] = runAudit }
