// Command digfl-bench regenerates the tables and figures of the DIG-FL
// paper's evaluation section on the synthetic simulator.
//
// Usage:
//
//	digfl-bench -exp all            # every table and figure
//	digfl-bench -exp fig3 -scale 1  # one experiment at full simulator scale
//	digfl-bench -exp fig6 -trace t.jsonl  # also record an observability trace
//	digfl-bench -exp faults -faults dropout=0.4,crash=8  # fault-tolerance check
//	digfl-bench -exp net -json out.json   # networked-runtime check + timings
//	digfl-bench -exp adversarial -attacks kind=sign_flip,frac=0.3  # defense check
//	digfl-bench -exp wire -json BENCH.json  # binary-wire gate: bytes, allocs, bit-identity
//	digfl-bench -exp load -load clients=2000,delay=20ms  # concurrent-client load test
//	digfl-bench -list               # list experiment ids
//
// With -trace, every training run and estimator pass streams typed events
// (epochs, local updates, aggregations, Paillier operations) to the named
// JSONL file, and a counter snapshot is printed after each experiment.
//
// With -json, a machine-readable summary is written after the run in the
// versioned digfl-bench schema (v2): one entry per experiment with wall
// time, epoch count, and the p50/p99 per-round latency (epoch durations,
// plus closed networked rounds when the experiment runs over the wire);
// the wire and load experiments add codec, bytes-on-wire, allocs-per-round,
// and concurrency fields. When the target file already exists (either a v2
// envelope or a v1 bare record array), this run's entries are APPENDED, so
// one file accumulates the perf trajectory across revisions.
//
// Experiment ids map one-to-one to the paper's artifacts; fig2/table2,
// fig4/table4 and fig5/table5 are aliases for the runners that produce both.
// The extra "faults" id runs the fault-tolerance lifecycle (injected
// dropout/straggler/crash with checkpoint+resume, plus secure-round
// retries) and reports whether resume bit-identity, schedule determinism,
// and retry transparency held; the extra "net" id runs the networked
// coordinator/participant runtime over a loopback HTTP listener and checks
// it reproduces the in-process trainer bit for bit; the extra "adversarial"
// id attacks a federation per the -attacks spec and reports how the defense
// stack (update screening + contribution-guided quarantine) held up against
// the undefended run; the extra "wire" id runs a streamed sampled-cohort
// federation over the digfl-fednet/2 binary wire against the in-process
// streamed trainer (bytes on wire, allocs per round, bit-identity); the
// extra "load" id hammers a live
// coordinator with concurrent /v1/score readers and long-poll round
// watchers per the -load spec; the extra "engines" id replays one training
// log through every registered contribution engine (exact, TMC, GT, GTG,
// DPVS) and reports rank accuracy against exact Shapley next to
// utility-evaluation cost; the extra "volatility" id reports each engine's
// rank stability (Kendall tau spread) across sampling seeds and async
// quorum sizes; the extra "async" id races the synchronous drop-straggler
// policy against the asynchronous staleness-discounted fold on a
// class-disjoint federation and reports epochs-to-target at several sticky
// straggler rates. None is part of the paper's evaluation, so -exp all
// includes none of them.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"digfl/internal/experiments"
	"digfl/internal/obs"
)

type runner struct {
	ids  []string
	desc string
	run  func(o experiments.Opts) []result
}

// result pairs the human rendering with the CSV tables; bench optionally
// carries experiment-specific machine-readable entries for -json output.
type result struct {
	render func(w *os.File)
	tables map[string][][]string
	bench  []experiments.BenchEntry
}

func runners() []runner {
	return []runner{
		{
			ids:  []string{"fig2", "table2"},
			desc: "second-term ablation: per-epoch phi vs phi-hat, 14 datasets",
			run: func(o experiments.Opts) []result {
				r := experiments.SecondTerm(o)
				return []result{{render: func(w *os.File) { r.Render(w) }, tables: r.Tables()}}
			},
		},
		{
			ids:  []string{"fig3"},
			desc: "HFL: DIG-FL vs actual Shapley (PCC + cost)",
			run: func(o experiments.Opts) []result {
				r := experiments.HFLvsActual(o)
				return []result{{render: func(w *os.File) { r.Render(w) }, tables: r.Tables()}}
			},
		},
		{
			ids:  []string{"table3"},
			desc: "VFL: DIG-FL vs actual Shapley on 10 tabular datasets",
			run: func(o experiments.Opts) []result {
				r := experiments.VFLvsActual(o)
				return []result{{render: func(w *os.File) { r.Render(w) }, tables: r.Tables()}}
			},
		},
		{
			ids:  []string{"fig4", "table4"},
			desc: "HFL comparison: DIG-FL vs TMC / GT / MR / IM",
			run: func(o experiments.Opts) []result {
				r := experiments.HFLComparison(o)
				return []result{{render: func(w *os.File) { r.Render(w) }, tables: r.Tables()}}
			},
		},
		{
			ids:  []string{"fig5", "table5"},
			desc: "VFL comparison: DIG-FL vs TMC / GT",
			run: func(o experiments.Opts) []result {
				r := experiments.VFLComparison(o)
				return []result{{render: func(w *os.File) { r.Render(w) }, tables: r.Tables()}}
			},
		},
		{
			ids:  []string{"fig6"},
			desc: "per-epoch estimated vs actual Shapley (HFL)",
			run: func(o experiments.Opts) []result {
				r := experiments.PerEpoch(o)
				return []result{{render: func(w *os.File) { r.Render(w) }, tables: r.Tables()}}
			},
		},
		{
			ids:  []string{"fig7"},
			desc: "reweight mechanism: accuracy vs m and convergence curves",
			run: func(o experiments.Opts) []result {
				a := experiments.Reweight("CIFAR10", experiments.NonIID, o)
				b := experiments.Reweight("MOTOR", experiments.Mislabeled, o)
				return []result{
					{render: func(w *os.File) { a.Render(w) }, tables: a.Tables()},
					{render: func(w *os.File) { b.Render(w) }, tables: b.Tables()},
				}
			},
		},
	}
}

// faultsRunner builds the fault-tolerance runner from a -faults spec. It is
// not part of runners(): -exp all reproduces the paper's artifacts only, so
// adding the robustness check never perturbs existing output.
func faultsRunner(spec experiments.FaultSpec) runner {
	return runner{
		ids:  []string{"faults"},
		desc: "fault tolerance: dropout/straggler/crash+resume, secure retry (not in 'all')",
		run: func(o experiments.Opts) []result {
			r := experiments.FaultTolerance(spec, o)
			return []result{{render: func(w *os.File) { r.Render(w) }, tables: r.Tables()}}
		},
	}
}

// netRunner exercises the networked coordinator/participant runtime over a
// loopback HTTP listener. Like "faults", it is a robustness check outside
// the paper's artifact set, so -exp all does not include it.
func netRunner() runner {
	return runner{
		ids:  []string{"net"},
		desc: "networked runtime: loopback HTTP run vs in-process trainer (not in 'all')",
		run: func(o experiments.Opts) []result {
			r := experiments.Net(o)
			return []result{{render: func(w *os.File) { r.Render(w) }, tables: r.Tables()}}
		},
	}
}

// wireRunner runs the streamed sampled-cohort federation once over the
// digfl-fednet/2 binary wire and checks it against the in-process streamed
// trainer. Outside the paper's artifact set, so -exp all does not include
// it.
func wireRunner() runner {
	return runner{
		ids:  []string{"wire"},
		desc: "binary wire: bytes/allocs per round + bit-identity vs in-process (not in 'all')",
		run: func(o experiments.Opts) []result {
			r := experiments.Wire(o)
			return []result{{render: func(w *os.File) { r.Render(w) }, tables: r.Tables(), bench: r.Bench()}}
		},
	}
}

// loadRunner builds the concurrent-client load test from a -load spec.
// Outside the paper's artifact set, so -exp all does not include it.
func loadRunner(spec experiments.LoadSpec) runner {
	return runner{
		ids:  []string{"load"},
		desc: "load test: concurrent score readers + round watchers (not in 'all')",
		run: func(o experiments.Opts) []result {
			r := experiments.Load(spec, o)
			return []result{{render: func(w *os.File) { r.Render(w) }, tables: r.Tables(), bench: r.Bench()}}
		},
	}
}

// chaosRunner runs the deterministic chaos harness: seeded coordinator
// kills with WAL recovery plus an edge death with root failover, gated on
// bit-identity against uninterrupted references. Outside the paper's
// artifact set, so -exp all does not include it.
func chaosRunner() runner {
	return runner{
		ids:  []string{"chaos"},
		desc: "chaos harness: coordinator kills + WAL recovery, edge failover (not in 'all')",
		run: func(o experiments.Opts) []result {
			r := experiments.Chaos(o)
			return []result{{render: func(w *os.File) { r.Render(w) }, tables: r.Tables(), bench: r.Bench()}}
		},
	}
}

// enginesRunner replays one training log through every registered
// contribution engine and reports rank accuracy vs exact Shapley next to
// utility-evaluation cost. Outside the paper's artifact set, so -exp all
// does not include it.
func enginesRunner() runner {
	return runner{
		ids:  []string{"engines"},
		desc: "contribution engines: rank accuracy vs utility-eval cost (not in 'all')",
		run: func(o experiments.Opts) []result {
			r := experiments.EngineMatrix(o)
			return []result{{render: func(w *os.File) { r.Render(w) }, tables: r.Tables(), bench: r.Bench()}}
		},
	}
}

// asyncRunner runs the buffered-federation study: sync-drop vs
// staleness-discounted async fold at several sticky-straggler rates, gated
// on fresh-path bit-identity, determinism, and an epochs-to-target
// advantage. Outside the paper's artifact set, so -exp all does not
// include it.
func asyncRunner() runner {
	return runner{
		ids:  []string{"async"},
		desc: "async federation: sync-drop vs staleness-discounted fold (not in 'all')",
		run: func(o experiments.Opts) []result {
			r := experiments.Async(o)
			return []result{{render: func(w *os.File) { r.Render(w) }, tables: r.Tables(), bench: r.Bench()}}
		},
	}
}

// volatilityRunner reports each engine's rank stability across sampling
// seeds. Outside the paper's artifact set, so -exp all does not include it.
func volatilityRunner() runner {
	return runner{
		ids:  []string{"volatility"},
		desc: "contribution engines: rank stability across sampling seeds (not in 'all')",
		run: func(o experiments.Opts) []result {
			r := experiments.Volatility(o)
			return []result{{render: func(w *os.File) { r.Render(w) }, tables: r.Tables()}}
		},
	}
}

// adversarialRunner builds the adversarial-robustness runner from an
// -attacks spec. Like "faults" and "net", it is outside the paper's
// artifact set, so -exp all does not include it.
func adversarialRunner(spec experiments.AdvSpec) runner {
	return runner{
		ids:  []string{"adversarial"},
		desc: "adversarial defense: attacks vs screening+quarantine (not in 'all')",
		run: func(o experiments.Opts) []result {
			r := experiments.Adversarial(spec, o)
			return []result{{render: func(w *os.File) { r.Render(w) }, tables: r.Tables()}}
		},
	}
}

// benchSink harvests the per-round latencies a generic bench entry
// summarizes (the schema lives in experiments.BenchEntry).
type benchSink struct {
	mu   sync.Mutex
	durs []time.Duration
	eps  int64
}

func (s *benchSink) Emit(e obs.Event) {
	switch e.Kind {
	case obs.KindEpochEnd:
		s.mu.Lock()
		s.eps++
		s.durs = append(s.durs, e.Dur)
		s.mu.Unlock()
	case obs.KindNetRoundEnd:
		s.mu.Lock()
		s.durs = append(s.durs, e.Dur)
		s.mu.Unlock()
	}
}

func main() {
	exp := flag.String("exp", "all", "experiment id (see -list) or 'all'")
	scale := flag.Float64("scale", 1.0, "workload scale in (0,1]")
	seed := flag.Int64("seed", 42, "random seed")
	csvDir := flag.String("csv", "", "also write each table/figure's data as CSV into this directory")
	trace := flag.String("trace", "", "write an observability trace (JSONL) to this file and print counter snapshots")
	faultsSpec := flag.String("faults", "", "fault spec for -exp faults, comma-separated key=value (seed, dropout, straggler, delay, crash, secure, every, retries)")
	attacksSpec := flag.String("attacks", "", "attack spec for -exp adversarial, comma-separated key=value (seed, kind, frac, n, scale, noise, rate, flip, clip, patience)")
	loadSpec := flag.String("load", "", "load spec for -exp load, comma-separated key=value (clients, delay)")
	jsonPath := flag.String("json", "", "append machine-readable results (digfl-bench schema v2: wall time, round latency percentiles, wire/load metrics) to this JSON file")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	spec, err := experiments.ParseFaultSpec(*faultsSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "digfl-bench: %v\n", err)
		os.Exit(2)
	}
	advSpec, err := experiments.ParseAdvSpec(*attacksSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "digfl-bench: %v\n", err)
		os.Exit(2)
	}
	lspec, err := experiments.ParseLoadSpec(*loadSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "digfl-bench: %v\n", err)
		os.Exit(2)
	}
	rs := append(runners(), faultsRunner(spec), netRunner(), adversarialRunner(advSpec),
		wireRunner(), loadRunner(lspec), chaosRunner(), enginesRunner(), volatilityRunner(),
		asyncRunner())
	if *list {
		for _, r := range rs {
			fmt.Printf("%-14s %s\n", join(r.ids), r.desc)
		}
		return
	}
	o := experiments.Opts{Scale: *scale, Seed: *seed}
	if o.Scale <= 0 || o.Scale > 1 {
		fmt.Fprintf(os.Stderr, "digfl-bench: -scale must be in (0,1], got %v\n", o.Scale)
		os.Exit(2)
	}

	// With -trace, every run feeds a JSONL trace writer plus an in-memory
	// collector whose snapshot is printed after each experiment.
	var collector *obs.Collector
	var tw *obs.TraceWriter
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "digfl-bench: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			if err := tw.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "digfl-bench: trace: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "digfl-bench: trace: %v\n", err)
			}
		}()
		collector = &obs.Collector{}
		tw = obs.NewTraceWriter(f)
		o.Sink = obs.Tee(collector, tw)
	}

	var records []experiments.BenchEntry
	emit := func(r runner) {
		oo := o
		var bs *benchSink
		if *jsonPath != "" {
			bs = &benchSink{}
			oo.Sink = obs.Tee(o.Sink, bs)
		}
		start := time.Now()
		var extra []experiments.BenchEntry
		for _, res := range r.run(oo) {
			res.render(os.Stdout)
			extra = append(extra, res.bench...)
			if *csvDir != "" {
				if err := writeTables(*csvDir, res.tables); err != nil {
					fmt.Fprintf(os.Stderr, "digfl-bench: %v\n", err)
					os.Exit(1)
				}
			}
		}
		if bs != nil {
			lq := experiments.Quantiles(bs.durs, 0.50, 0.99)
			records = append(records, experiments.BenchEntry{
				Exp:        r.ids[0],
				WallMS:     float64(time.Since(start)) / float64(time.Millisecond),
				Epochs:     bs.eps,
				RoundP50MS: float64(lq[0]) / float64(time.Millisecond),
				RoundP99MS: float64(lq[1]) / float64(time.Millisecond),
				Rounds:     len(bs.durs),
			})
			records = append(records, extra...)
		}
		if collector != nil {
			fmt.Printf("\n[obs] %s\n", collector.Snapshot())
		}
	}
	// flush appends this run's entries to the target file: existing v1 or
	// v2 bench files are extended, so one file holds the perf trajectory.
	flush := func() {
		if *jsonPath == "" {
			return
		}
		prev, err := os.ReadFile(*jsonPath)
		if err != nil && !os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "digfl-bench: json: %v\n", err)
			os.Exit(1)
		}
		bf, err := experiments.ReadBench(prev)
		if err != nil {
			fmt.Fprintf(os.Stderr, "digfl-bench: json: %v\n", err)
			os.Exit(1)
		}
		bf.Append(records...)
		data, err := bf.Marshal()
		if err == nil {
			err = os.WriteFile(*jsonPath, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "digfl-bench: json: %v\n", err)
			os.Exit(1)
		}
	}
	if *exp == "all" {
		for _, r := range rs {
			if contains(r.ids, "faults") || contains(r.ids, "net") || contains(r.ids, "adversarial") ||
				contains(r.ids, "wire") || contains(r.ids, "load") || contains(r.ids, "chaos") ||
				contains(r.ids, "engines") || contains(r.ids, "volatility") || contains(r.ids, "async") {
				continue // robustness checks are opt-in; 'all' stays the paper set
			}
			emit(r)
		}
		flush()
		return
	}
	for _, r := range rs {
		if contains(r.ids, *exp) {
			emit(r)
			flush()
			return
		}
	}
	var known []string
	for _, r := range rs {
		known = append(known, r.ids...)
	}
	sort.Strings(known)
	fmt.Fprintf(os.Stderr, "digfl-bench: unknown experiment %q (known: %v)\n", *exp, known)
	os.Exit(2)
}

// writeTables dumps each named table as <dir>/<stem>.csv.
func writeTables(dir string, tables map[string][][]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for stem, rows := range tables {
		f, err := os.Create(filepath.Join(dir, stem+".csv"))
		if err != nil {
			return err
		}
		err = experiments.WriteCSV(f, rows)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func join(ids []string) string {
	s := ids[0]
	for _, id := range ids[1:] {
		s += "/" + id
	}
	return s
}

func contains(ids []string, want string) bool {
	for _, id := range ids {
		if id == want {
			return true
		}
	}
	return false
}
