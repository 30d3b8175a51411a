package experiments

import (
	"fmt"
	"io"
	"strconv"

	"digfl/internal/faults"
	"digfl/internal/hfl"
	"digfl/internal/metrics"
	"digfl/internal/shapley"
	"digfl/internal/tensor"
)

// VolatilityRow summarizes one engine's rank stability on the same training
// log under two perturbations: resampling (pairwise Kendall τ between the
// rankings the engine produces under different sampling seeds) and
// participation (pairwise τ between the rankings produced under different
// seeded partial-participation patterns, each epoch degraded by one dropped
// participant). Deterministic engines (exact enumeration) sit at τ = 1
// exactly on the seed axis; a sampler's spread measures how much of its
// ranking is noise, and the participation spread measures how sensitive
// every engine's ranking is to who shows up.
type VolatilityRow struct {
	Engine   string
	Seeds    int
	Patterns int
	// MinTau/MeanTau/MaxTau summarize the pairwise-τ distribution across
	// sampling seeds.
	MinTau, MeanTau, MaxTau float64
	// PartMinTau/PartMeanTau/PartMaxTau summarize the pairwise-τ
	// distribution across participation patterns.
	PartMinTau, PartMeanTau, PartMaxTau float64
	// AsyncTaus[k] is the engine's τ between its ranking on the pristine
	// log and its ranking on the asyncQuorums[k]-of-N buffered view of the
	// same log (stale updates folded discounted by the real AsyncPlanner)
	// — how much ranking an engine loses to the async participation
	// pattern at each quorum.
	AsyncTaus []float64
}

// VolatilityResult is the -exp volatility report: per-engine rank
// stability on one shared training log. The whole result is a pure
// function of Opts — reruns are bit-identical, which `make verify-engines`
// gates on.
type VolatilityResult struct {
	N, Epochs int
	Rows      []VolatilityRow
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
func asyncLog(log []*hfl.Epoch, n, quorum int, seed int64) []*hfl.Epoch {
	pl, err := hfl.NewAsyncPlanner(
		hfl.AsyncConfig{Quorum: quorum, MaxStaleness: 2},
		faults.MustNew(faults.Config{Seed: seed, Straggler: 0.5}), nil)
	if err != nil {
		panic(err)
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
			panic(err)
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

// Volatility trains one federation, then replays its log through every
// registered engine under several sampling seeds and several seeded
// partial-participation patterns, and reports the pairwise Kendall τ
// spread of the resulting rankings on each axis.
func Volatility(o Opts) *VolatilityResult {
	o.validate()
	tr, epochs := engineTrainer(o)
	run := tr.Run()
	loss := engineValLoss(tr)

	degraded := make([][]*hfl.Epoch, volatilityPatterns)
	for p := range degraded {
		degraded[p] = degradeLog(run.Log, o.Seed+int64(100*(p+1)))
	}
	asyncViews := make([][]*hfl.Epoch, len(asyncQuorums))
	for k, q := range asyncQuorums {
		asyncViews[k] = asyncLog(run.Log, engineN, q, o.Seed)
	}

	mkSpec := func(seed int64) shapley.EngineSpec {
		return shapley.EngineSpec{N: engineN, Loss: loss, Seed: seed}
	}
	res := &VolatilityResult{N: engineN, Epochs: epochs}
	for _, name := range shapley.Engines() {
		seedTotals := make([][]float64, volatilitySeeds)
		for k := range seedTotals {
			seedTotals[k] = feedEngine(name, mkSpec(o.Seed+int64(1000*k)), run.Log).Totals
		}
		partTotals := make([][]float64, volatilityPatterns)
		for p := range partTotals {
			partTotals[p] = feedEngine(name, mkSpec(o.Seed), degraded[p]).Totals
		}
		row := VolatilityRow{Engine: name, Seeds: volatilitySeeds, Patterns: volatilityPatterns}
		row.MinTau, row.MeanTau, row.MaxTau = tauSpread(seedTotals)
		row.PartMinTau, row.PartMeanTau, row.PartMaxTau = tauSpread(partTotals)
		for _, view := range asyncViews {
			asyncTotals := feedEngine(name, mkSpec(o.Seed), view).Totals
			row.AsyncTaus = append(row.AsyncTaus, metrics.Kendall(seedTotals[0], asyncTotals))
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Render writes the volatility report.
func (r *VolatilityResult) Render(w io.Writer) {
	writeHeader(w, "Contribution engines — rank stability across sampling seeds and participation")
	fmt.Fprintf(w, "n=%d epochs=%d seeds=%d patterns=%d quorums=%v graded corruption (pairwise Kendall tau of totals; a.kQ = tau vs Q-of-N async buffered view)\n\n",
		r.N, r.Epochs, volatilitySeeds, volatilityPatterns, asyncQuorums)
	fmt.Fprintf(w, "%-16s %8s %8s %8s   %8s %8s %8s  ",
		"engine", "min", "mean", "max", "p.min", "p.mean", "p.max")
	for _, q := range asyncQuorums {
		fmt.Fprintf(w, " %7s", fmt.Sprintf("a.k%d", q))
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-16s %8.3f %8.3f %8.3f   %8.3f %8.3f %8.3f  ",
			row.Engine, row.MinTau, row.MeanTau, row.MaxTau,
			row.PartMinTau, row.PartMeanTau, row.PartMaxTau)
		for _, tau := range row.AsyncTaus {
			fmt.Fprintf(w, " %7.3f", tau)
		}
		fmt.Fprintln(w)
	}
}

// Tables renders the report as CSV.
func (r *VolatilityResult) Tables() map[string][][]string {
	head := []string{
		"engine", "seeds", "min_tau", "mean_tau", "max_tau",
		"patterns", "part_min_tau", "part_mean_tau", "part_max_tau",
	}
	for _, q := range asyncQuorums {
		head = append(head, fmt.Sprintf("async_tau_k%d", q))
	}
	rows := [][]string{head}
	for _, row := range r.Rows {
		rec := []string{
			row.Engine, strconv.Itoa(row.Seeds), f(row.MinTau), f(row.MeanTau), f(row.MaxTau),
			strconv.Itoa(row.Patterns), f(row.PartMinTau), f(row.PartMeanTau), f(row.PartMaxTau),
		}
		for _, tau := range row.AsyncTaus {
			rec = append(rec, f(tau))
		}
		rows = append(rows, rec)
	}
	return map[string][][]string{"engines_volatility": rows}
}
