// Command digfl-bench regenerates the tables and figures of the DIG-FL
// paper's evaluation section on the synthetic simulator.
//
// Usage:
//
//	digfl-bench -exp all            # every table and figure of the paper
//	digfl-bench -exp fig3 -scale 1  # one experiment at full simulator scale
//	digfl-bench -exp fig6 -csv out  # also write the figure's data as CSV
//	digfl-bench -exp fig6 -trace t.jsonl  # also record an observability trace
//	digfl-bench -list               # list experiment ids
//
// With -trace, every training run and estimator pass streams typed events
// (epochs, local updates, aggregations, Paillier operations) to the named
// JSONL file, and a counter snapshot is printed after each experiment.
//
// The ids map one-to-one to the paper's artifacts (fig2/table2, fig4/table4
// and fig5/table5 are aliases for the runners that produce both); the cost
// columns of Fig. 3c-d and Tables IV-V are theirs and stay. The runtime's
// acceptance studies are internal/experiments tests, run by the make
// verify-* gates. This command prints no latency or throughput: timings live
// in bench/ (BENCHMARK.json, run by `bash bench/run.sh`), which measures them
// over repeated, reference-checked, environment-stamped runs.
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

// experiment is one row of the CLI's table: one artifact of the paper.
type experiment struct {
	ids  []string
	desc string
	run  func(o experiments.Opts) []experiments.Report
}

// one adapts a single-report runner to the table's signature.
func one[R experiments.Report](f func(experiments.Opts) R) func(experiments.Opts) []experiments.Report {
	return func(o experiments.Opts) []experiments.Report { return []experiments.Report{f(o)} }
}

// table lists every experiment, in the order -exp all runs them.
func table() []experiment {
	return []experiment{
		{[]string{"fig2", "table2"}, "second-term ablation: per-epoch phi vs phi-hat, 14 datasets",
			one(experiments.SecondTerm)},
		{[]string{"fig3"}, "HFL: DIG-FL vs actual Shapley (PCC + cost)",
			one(experiments.HFLvsActual)},
		{[]string{"table3"}, "VFL: DIG-FL vs actual Shapley on 10 tabular datasets",
			one(experiments.VFLvsActual)},
		{[]string{"fig4", "table4"}, "HFL comparison: DIG-FL vs TMC / GT / MR / IM",
			one(experiments.HFLComparison)},
		{[]string{"fig5", "table5"}, "VFL comparison: DIG-FL vs TMC / GT",
			one(experiments.VFLComparison)},
		{[]string{"fig6"}, "per-epoch estimated vs actual Shapley (HFL)",
			one(experiments.PerEpoch)},
		{[]string{"fig7"}, "reweight mechanism: accuracy vs m and convergence curves",
			func(o experiments.Opts) []experiments.Report {
				return []experiments.Report{
					experiments.Reweight("CIFAR10", experiments.NonIID, o),
					experiments.Reweight("MOTOR", experiments.Mislabeled, o),
				}
			}},
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
	exps := table()
	if *list {
		for _, e := range exps {
			fmt.Fprintf(stdout, "%-14s %s\n", strings.Join(e.ids, "/"), e.desc)
		}
		return 0
	}
	o := experiments.Opts{Scale: *scale, Seed: *seed}
	// Written so that NaN fails.
	if !(0 < o.Scale && o.Scale <= 1) {
		return fail(2, "-scale must be in (0,1], got %v", o.Scale)
	}
	var picked []experiment
	var known []string
	for _, e := range exps {
		known = append(known, e.ids...)
		if *exp == "all" || slices.Contains(e.ids, *exp) {
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
