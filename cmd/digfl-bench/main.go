// Command digfl-bench regenerates the tables and figures of the DIG-FL
// paper's evaluation section on the synthetic simulator, and runs the
// runtime's pass/fail acceptance studies.
//
// Usage:
//
//	digfl-bench -exp all            # every table and figure of the paper
//	digfl-bench -exp fig3 -scale 1  # one experiment at full simulator scale
//	digfl-bench -exp fig6 -csv out  # also write the figure's data as CSV
//	digfl-bench -exp fig6 -trace t.jsonl  # also record an observability trace
//	digfl-bench -exp faults -faults dropout=0.4,crash=8  # fault-tolerance check
//	digfl-bench -exp adversarial -attacks kind=sign_flip,frac=0.3  # defense check
//	digfl-bench -list               # list experiment ids
//
// With -trace, every training run and estimator pass streams typed events
// (epochs, local updates, aggregations, Paillier operations) to the named
// JSONL file, and a counter snapshot is printed after each experiment.
//
// The paper's ids map one-to-one to its artifacts (fig2/table2, fig4/table4
// and fig5/table5 are aliases for the runners that produce both); the cost
// columns of Fig. 3c-d and Tables IV-V are theirs and stay. The other ids
// (-list marks them) are acceptance gates for the runtime around the paper
// — bit-identity against a reference, closed-form byte counts, an
// allocation ceiling, epochs-to-target, rank agreement and utility-
// evaluation counts — and -exp all includes none of them. They print no
// latency or throughput: timings live in bench/ (BENCHMARK.json, run by
// `bash bench/run.sh`), which measures them over repeated, reference-checked,
// environment-stamped runs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"digfl/internal/experiments"
	"digfl/internal/obs"
)

// experiment is one row of the CLI's table. paper marks the rows -exp all
// runs: the paper's artifacts only, so adding a runtime study never
// perturbs that output.
type experiment struct {
	ids   []string
	desc  string
	paper bool
	run   func(o experiments.Opts) []experiments.Report
}

// one adapts a single-report runner to the table's signature.
func one[R experiments.Report](f func(experiments.Opts) R) func(experiments.Opts) []experiments.Report {
	return func(o experiments.Opts) []experiments.Report { return []experiments.Report{f(o)} }
}

// table lists every experiment; the two specs parameterize the studies that
// take one (-faults, -attacks).
func table(fs experiments.FaultSpec, as experiments.AdvSpec) []experiment {
	return []experiment{
		{[]string{"fig2", "table2"}, "second-term ablation: per-epoch phi vs phi-hat, 14 datasets", true,
			one(experiments.SecondTerm)},
		{[]string{"fig3"}, "HFL: DIG-FL vs actual Shapley (PCC + cost)", true,
			one(experiments.HFLvsActual)},
		{[]string{"table3"}, "VFL: DIG-FL vs actual Shapley on 10 tabular datasets", true,
			one(experiments.VFLvsActual)},
		{[]string{"fig4", "table4"}, "HFL comparison: DIG-FL vs TMC / GT / MR / IM", true,
			one(experiments.HFLComparison)},
		{[]string{"fig5", "table5"}, "VFL comparison: DIG-FL vs TMC / GT", true,
			one(experiments.VFLComparison)},
		{[]string{"fig6"}, "per-epoch estimated vs actual Shapley (HFL)", true,
			one(experiments.PerEpoch)},
		{[]string{"fig7"}, "reweight mechanism: accuracy vs m and convergence curves", true,
			func(o experiments.Opts) []experiments.Report {
				return []experiments.Report{
					experiments.Reweight("CIFAR10", experiments.NonIID, o),
					experiments.Reweight("MOTOR", experiments.Mislabeled, o),
				}
			}},
		{[]string{"faults"}, "fault tolerance: dropout/straggler/crash+resume, secure retry", false,
			one(func(o experiments.Opts) *experiments.FaultTolResult { return experiments.FaultTolerance(fs, o) })},
		{[]string{"net"}, "networked runtime: loopback HTTP run vs in-process trainer", false,
			one(experiments.Net)},
		{[]string{"adversarial"}, "adversarial defense: attacks vs screening+quarantine", false,
			one(func(o experiments.Opts) *experiments.AdvResult { return experiments.Adversarial(as, o) })},
		{[]string{"wire"}, "binary wire: closed-form bytes, alloc ceiling, bit-identity vs in-process", false,
			one(experiments.Wire)},
		{[]string{"chaos"}, "chaos harness: coordinator kills + WAL recovery, buffered and async", false,
			one(experiments.Chaos)},
		{[]string{"engines"}, "contribution engines: rank accuracy vs utility-eval cost", false,
			one(experiments.EngineMatrix)},
		{[]string{"volatility"}, "contribution engines: rank stability across sampling seeds", false,
			one(experiments.Volatility)},
		{[]string{"async"}, "async federation: sync-drop vs staleness-discounted fold", false,
			one(experiments.Async)},
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its exits turned into return codes (0 ok, 1 I/O failure,
// 2 usage), so deferred cleanup — the trace writer's flush — runs on every
// path.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "digfl-bench: "+format+"\n", a...)
		return code
	}
	fs := flag.NewFlagSet("digfl-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment id (see -list) or 'all'")
	scale := fs.Float64("scale", 1.0, "workload scale in (0,1]")
	seed := fs.Int64("seed", 42, "random seed")
	csvDir := fs.String("csv", "", "also write each table/figure's data as CSV into this directory")
	trace := fs.String("trace", "", "write an observability trace (JSONL) to this file and print counter snapshots")
	faultsSpec := fs.String("faults", "", "fault spec for -exp faults, comma-separated key=value (seed, dropout, straggler, delay, crash, secure, every, retries)")
	attacksSpec := fs.String("attacks", "", "attack spec for -exp adversarial, comma-separated key=value (seed, kind, frac, n, scale, noise, rate, flip, clip, patience)")
	list := fs.Bool("list", false, "list experiment ids and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		return fail(2, "unexpected argument %q: experiments are selected with -exp", fs.Arg(0))
	}
	spec, err := experiments.ParseFaultSpec(*faultsSpec)
	if err != nil {
		return fail(2, "%v", err)
	}
	advSpec, err := experiments.ParseAdvSpec(*attacksSpec)
	if err != nil {
		return fail(2, "%v", err)
	}
	exps := table(spec, advSpec)
	if *list {
		for _, e := range exps {
			desc := e.desc
			if !e.paper {
				desc += " (not in 'all')"
			}
			fmt.Fprintf(stdout, "%-14s %s\n", strings.Join(e.ids, "/"), desc)
		}
		return 0
	}
	o := experiments.Opts{Scale: *scale, Seed: *seed}
	if o.Scale <= 0 || o.Scale > 1 {
		return fail(2, "-scale must be in (0,1], got %v", o.Scale)
	}
	var picked []experiment
	var known []string
	for _, e := range exps {
		known = append(known, e.ids...)
		if (*exp == "all" && e.paper) || slices.Contains(e.ids, *exp) {
			picked = append(picked, e)
		}
	}
	if len(picked) == 0 {
		slices.Sort(known)
		return fail(2, "unknown experiment %q (known: %v)", *exp, known)
	}

	// With -trace, every run feeds a JSONL trace writer plus an in-memory
	// collector whose snapshot is printed after each experiment.
	var collector *obs.Collector
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			return fail(1, "%v", err)
		}
		tw := obs.NewTraceWriter(f)
		defer func() {
			if err := tw.Flush(); err != nil {
				code = max(code, fail(1, "trace: %v", err))
			}
			if err := f.Close(); err != nil {
				code = max(code, fail(1, "trace: %v", err))
			}
		}()
		collector = &obs.Collector{}
		o.Sink = obs.Tee(collector, tw)
	}

	for _, e := range picked {
		for _, rep := range e.run(o) {
			rep.Render(stdout)
			if *csvDir != "" {
				if err := writeTables(*csvDir, rep.Tables()); err != nil {
					return fail(1, "%v", err)
				}
			}
		}
		if collector != nil {
			fmt.Fprintf(stdout, "\n[obs] %s\n", collector.Snapshot())
		}
	}
	return 0
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
