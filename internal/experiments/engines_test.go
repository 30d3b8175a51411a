package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"digfl/internal/baselines"
	"digfl/internal/dataset"
	"digfl/internal/faults"
	"digfl/internal/hfl"
	"digfl/internal/metrics"
	"digfl/internal/shapley"
	"digfl/internal/tensor"
)

// engineN is the engine studies' federation size: big enough that the
// samplers' budgets separate, small enough that exhaustive 2^n
// enumeration stays cheap.
const engineN = 8

// gradedMislabel shards train IID and has participant i mislabel i/n of its
// shard, so the ground-truth contribution ranking is well separated and
// rank agreement measures estimator quality rather than coin flips between
// near-tied honest participants.
func gradedMislabel(train dataset.Dataset, rng *tensor.RNG) []dataset.Dataset {
	parts := dataset.PartitionIID(train, engineN, rng)
	for i := 1; i < engineN; i++ {
		parts[i] = dataset.Mislabel(parts[i], float64(i)/float64(engineN), rng.Split(int64(i)))
	}
	return parts
}

// engineRun trains the federation the engine studies evaluate — engineN
// participants with graded label corruption on a 0.2 validation split —
// and returns its log and the engines' validation-loss oracle.
func engineRun(o Opts) ([]*hfl.Epoch, shapley.ValLoss) {
	fed := newFederation(HFLSetting{Dataset: "MNIST", ValFrac: 0.2, Samples: o.samples(2000), Seed: o.Seed}, gradedMislabel)
	tr := fed.trainer(hfl.Config{Epochs: o.epochs(10), LR: 0.3, KeepLog: true})
	log := tr.Run().Log
	return log, baselines.NewValLoss(tr.Model, tr.Val.X, tr.Val.Y)
}

// feedEngine replays a training log through a fresh engine.
func feedEngine(t *testing.T, name string, spec shapley.EngineSpec, log []*hfl.Epoch) *shapley.Report {
	t.Helper()
	eng, err := shapley.NewEngine(name, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range log {
		eng.Observe(ep)
	}
	return eng.Finalize()
}

// engineMatrixRow is one engine's accuracy-vs-cost cell: rank agreement
// with the exact per-round Shapley value against the utility evaluations
// the engine spent earning it.
type engineMatrixRow struct {
	engine           string
	kendall, pearson float64
	utilityEvals     int64
}

// engineMatrix trains one federation and replays its log through every
// registered contribution engine, scoring each engine's totals against the
// exact engine's next to its utility-evaluation count.
func engineMatrix(t *testing.T, o Opts) []engineMatrixRow {
	log, loss := engineRun(o)
	spec := shapley.EngineSpec{N: engineN, Loss: loss, Seed: o.Seed}
	exact := feedEngine(t, "exact", spec, log)
	var rows []engineMatrixRow
	for _, name := range shapley.Engines() {
		rep := feedEngine(t, name, spec, log)
		rows = append(rows, engineMatrixRow{
			engine:       name,
			kendall:      metrics.Kendall(exact.Totals, rep.Totals),
			pearson:      metrics.Pearson(exact.Totals, rep.Totals),
			utilityEvals: rep.Cost.UtilityEvals,
		})
	}
	return rows
}

// TestEngineMatrixAcceptance is the PR-level accuracy-vs-cost gate: the
// guided samplers (gtg, dpvs) must recover the exact contribution ranking
// (Kendall τ ≥ 0.9) while spending fewer utility evaluations than plain
// TMC sampling does.
func TestEngineMatrixAcceptance(t *testing.T) {
	matrix := engineMatrix(t, QuickOpts())
	rows := make(map[string]engineMatrixRow, len(matrix))
	var pins []string
	for _, row := range matrix {
		rows[row.engine] = row
		pins = append(pins, fmt.Sprintf("%s,%s,%s,%d", row.engine, f(row.kendall), f(row.pearson), row.utilityEvals))
	}
	for _, name := range []string{"exact", "tmc", "gt", "gtg", "dpvs"} {
		if _, ok := rows[name]; !ok {
			t.Fatalf("matrix is missing engine %q", name)
		}
	}
	if tau := rows["exact"].kendall; tau != 1 {
		t.Fatalf("exact: τ vs exact = %v, want exactly 1", tau)
	}
	tmc := rows["tmc"]
	for _, name := range []string{"gtg", "dpvs"} {
		row := rows[name]
		if row.kendall < 0.9 {
			t.Fatalf("%s: Kendall τ %.3f < 0.9", name, row.kendall)
		}
		if row.utilityEvals >= tmc.utilityEvals {
			t.Fatalf("%s: %d utility evals, must undercut tmc's %d",
				name, row.utilityEvals, tmc.utilityEvals)
		}
	}
	if tmc.utilityEvals >= rows["exact"].utilityEvals {
		t.Fatalf("tmc: %d utility evals should undercut exact's %d",
			tmc.utilityEvals, rows["exact"].utilityEvals)
	}
	checkGoldenRows(t, "engine matrix", pins, goldenEngines)
}

// volatilityRow summarizes one engine's rank stability on the same training
// log under two perturbations: resampling (pairwise Kendall τ between the
// rankings the engine produces under different sampling seeds) and
// participation (pairwise τ between the rankings produced under different
// seeded partial-participation patterns, each epoch degraded by one dropped
// participant). Deterministic engines (exact enumeration) sit at τ = 1
// exactly on the seed axis; a sampler's spread measures how much of its
// ranking is noise, and the participation spread measures how sensitive
// every engine's ranking is to who shows up.
type volatilityRow struct {
	engine string
	// The min/mean/max of the pairwise-τ distribution across sampling
	// seeds, then across participation patterns.
	minTau, meanTau, maxTau             float64
	partMinTau, partMeanTau, partMaxTau float64
	// asyncTaus[k] is the engine's τ between its ranking on the pristine
	// log and its ranking on the asyncQuorums[k]-of-N buffered view of the
	// same log (stale updates folded discounted by the real AsyncPlanner)
	// — how much ranking an engine loses to the async participation
	// pattern at each quorum.
	asyncTaus []float64
}

// volatilitySeeds is the seed fan each engine is resampled under;
// volatilityPatterns is the participation-pattern fan.
const (
	volatilitySeeds    = 4
	volatilityPatterns = 3
)

// asyncQuorums is the K sweep of the async participation axis: each K
// derives a K-of-N buffered view of the shared log through the real
// AsyncPlanner.
var asyncQuorums = []int{2, 4, 8}

// asyncLog derives the async-participation view of a full-participation
// training log: the same lag schedule the async trainer uses decides who
// lags each epoch, the planner cuts the K-of-N quorum, and committed stale
// updates carry their (1+s)^(-1/2) discount — exactly the deltas an async
// run would have folded, over the untouched broadcast trajectory. Epochs
// whose commit set is empty are dropped (no update entered the model).
func asyncLog(t *testing.T, log []*hfl.Epoch, n, quorum int, seed int64) []*hfl.Epoch {
	t.Helper()
	pl, err := hfl.NewAsyncPlanner(
		hfl.AsyncConfig{Quorum: quorum, MaxStaleness: 2},
		faults.MustNew(faults.Config{Seed: seed, Straggler: 0.5}), nil)
	if err != nil {
		t.Fatal(err)
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	type key struct{ part, origin int }
	held := make(map[key][]float64)
	var out []*hfl.Epoch
	for _, ep := range log {
		sched := pl.Schedule(ep.T, active)
		deltas := make(map[int][]float64, len(sched.Fresh))
		for _, i := range sched.Fresh {
			c := append([]float64(nil), ep.Deltas[i]...)
			held[key{i, ep.T}] = c
			deltas[i] = c
		}
		ac, err := pl.Commit(ep.T, len(ep.Theta), hfl.MeanStream{}, ep.ValGrad, sched, deltas)
		if err != nil {
			t.Fatal(err)
		}
		if len(ac.Reported) == 0 {
			continue
		}
		d := *ep
		d.Reported = ac.Reported
		d.Deltas = make([][]float64, len(ac.Committed))
		for j, e := range ac.Committed {
			d.Deltas[j] = held[key{e.Part, e.Origin}]
		}
		out = append(out, &d)
	}
	return out
}

// degradeLog derives a partial-participation view of a full-participation
// training log: every epoch drops one seeded participant (Lemma-3 zero row
// for the estimator), keeping the broadcast trajectory untouched.
func degradeLog(log []*hfl.Epoch, seed int64) []*hfl.Epoch {
	rng := tensor.NewRNG(seed)
	out := make([]*hfl.Epoch, len(log))
	for i, ep := range log {
		drop := rng.Intn(len(ep.Deltas))
		d := *ep
		d.Reported = make([]int, 0, len(ep.Deltas)-1)
		d.Deltas = make([][]float64, 0, len(ep.Deltas)-1)
		for k, delta := range ep.Deltas {
			if k == drop {
				continue
			}
			d.Reported = append(d.Reported, k)
			d.Deltas = append(d.Deltas, delta)
		}
		out[i] = &d
	}
	return out
}

// tauSpread reduces a family of totals vectors to the min/mean/max of
// their pairwise Kendall τ.
func tauSpread(totals [][]float64) (min, mean, max float64) {
	min, max = 1, -1
	var sum float64
	pairs := 0
	for a := 0; a < len(totals); a++ {
		for b := a + 1; b < len(totals); b++ {
			tau := metrics.Kendall(totals[a], totals[b])
			sum += tau
			pairs++
			if tau < min {
				min = tau
			}
			if tau > max {
				max = tau
			}
		}
	}
	return min, sum / float64(pairs), max
}

// volatility trains one federation, then replays its log through every
// registered engine under several sampling seeds and several seeded
// partial-participation patterns, and reports the pairwise Kendall τ
// spread of the resulting rankings on each axis.
func volatility(t *testing.T, o Opts) []volatilityRow {
	log, loss := engineRun(o)

	degraded := make([][]*hfl.Epoch, volatilityPatterns)
	for p := range degraded {
		degraded[p] = degradeLog(log, o.Seed+int64(100*(p+1)))
	}
	asyncViews := make([][]*hfl.Epoch, len(asyncQuorums))
	for k, q := range asyncQuorums {
		asyncViews[k] = asyncLog(t, log, engineN, q, o.Seed)
	}

	mkSpec := func(seed int64) shapley.EngineSpec {
		return shapley.EngineSpec{N: engineN, Loss: loss, Seed: seed}
	}
	var rows []volatilityRow
	for _, name := range shapley.Engines() {
		seedTotals := make([][]float64, volatilitySeeds)
		for k := range seedTotals {
			seedTotals[k] = feedEngine(t, name, mkSpec(o.Seed+int64(1000*k)), log).Totals
		}
		partTotals := make([][]float64, volatilityPatterns)
		for p := range partTotals {
			partTotals[p] = feedEngine(t, name, mkSpec(o.Seed), degraded[p]).Totals
		}
		row := volatilityRow{engine: name}
		row.minTau, row.meanTau, row.maxTau = tauSpread(seedTotals)
		row.partMinTau, row.partMeanTau, row.partMaxTau = tauSpread(partTotals)
		for _, view := range asyncViews {
			asyncTotals := feedEngine(t, name, mkSpec(o.Seed), view).Totals
			row.asyncTaus = append(row.asyncTaus, metrics.Kendall(seedTotals[0], asyncTotals))
		}
		rows = append(rows, row)
	}
	return rows
}

// TestVolatilityDeterministic is the verify-engines rerun gate: the whole
// volatility report is a pure function of Opts, so rerunning it under the
// same options — across several seeds — must be bit-identical.
func TestVolatilityDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		o := QuickOpts()
		o.Seed = seed
		first := volatility(t, o)
		second := volatility(t, o)
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("seed %d: volatility rerun diverged:\n%+v\nvs\n%+v", seed, first, second)
		}
		var pins []string
		for _, row := range first {
			if row.minTau > row.meanTau || row.meanTau > row.maxTau {
				t.Fatalf("seed %d: %s: min/mean/max out of order: %+v", seed, row.engine, row)
			}
			if row.partMinTau > row.partMeanTau || row.partMeanTau > row.partMaxTau {
				t.Fatalf("seed %d: %s: participation spread out of order: %+v", seed, row.engine, row)
			}
			if row.engine == "exact" && (row.minTau != 1 || row.maxTau != 1) {
				t.Fatalf("seed %d: exact must be seed-invariant, got %+v", seed, row)
			}
			if len(row.asyncTaus) != len(asyncQuorums) {
				t.Fatalf("seed %d: %s: %d async taus, want one per quorum %v",
					seed, row.engine, len(row.asyncTaus), asyncQuorums)
			}
			pin := []string{row.engine, fmt.Sprint(volatilitySeeds), f(row.minTau), f(row.meanTau), f(row.maxTau),
				fmt.Sprint(volatilityPatterns), f(row.partMinTau), f(row.partMeanTau), f(row.partMaxTau)}
			for k, tau := range row.asyncTaus {
				if tau < -1 || tau > 1 {
					t.Fatalf("seed %d: %s: async tau k=%d out of range: %v",
						seed, row.engine, asyncQuorums[k], tau)
				}
				pin = append(pin, f(tau))
			}
			pins = append(pins, strings.Join(pin, ","))
		}
		checkGoldenRows(t, fmt.Sprintf("seed %d volatility", seed), pins, goldenVolatility[seed-1])
	}
}
