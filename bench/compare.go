package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// benchmarkFile mirrors BENCHMARK.json, the contract this directory is
// written to: the command, the workloads and why each exists, and the
// metrics with their units, directions and regression bounds.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// runSet is the parsed output of many runs: workload → metric → one value
// per run. A set is a file holding the concatenated standard output of the
// runs; each run contributes its stamp line and its result line.
type runSet map[string]map[string][]float64

func readRunSet(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := runSet{}
	workload := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, `{"stamp":`):
			var st struct {
				Stamp struct {
					Workload string `json:"workload"`
				} `json:"stamp"`
			}
			if err := json.Unmarshal([]byte(line), &st); err != nil {
				return nil, fmt.Errorf("%s: stamp line: %w", path, err)
			}
			workload = st.Stamp.Workload
		case strings.HasPrefix(line, `{"attempted":`):
			var r struct {
				Correct bool `json:"correct"`
				Metrics map[string]struct {
					Value float64 `json:"value"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				return nil, fmt.Errorf("%s: result line: %w", path, err)
			}
			if workload == "" {
				return nil, fmt.Errorf("%s: result line without a stamp line before it", path)
			}
			if !r.Correct {
				return nil, fmt.Errorf("%s: a %s run reported correct=false", path, workload)
			}
			if set[workload] == nil {
				set[workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				set[workload][name] = append(set[workload][name], m.Value)
			}
			workload = ""
		}
	}
	return set, sc.Err()
}

// Verdicts, in the words of the choosing-metrics guide.
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares set B against set A for one bounded metric.
//
//   - every run of B better than every run of A: better, whatever the spread
//   - either side's quartile spread wider than the bound: unresolved
//   - B's median worse than A's by more than the bound: worse
//   - B's median better than A's by more than A's own quartile spread: better
//   - otherwise: same
func judge(a, b []float64, lowerIsBetter bool, bound float64) string {
	sign := 1.0
	if !lowerIsBetter {
		sign = -1
	}
	// cost is "how bad": lower is always better after the sign flip.
	cost := func(v []float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = sign * x
		}
		return sortedCopy(out)
	}
	ca, cb := cost(a), cost(b)
	if cb[len(cb)-1] < ca[0] {
		return verdictBetter
	}
	a1, a2, a3 := quartiles(a)
	b1, b2, b3 := quartiles(b)
	spread := func(q1, q2, q3 float64) float64 {
		if q2 == 0 {
			return 0
		}
		return (q3 - q1) / math.Abs(q2)
	}
	if len(a) > 1 && len(b) > 1 && (spread(a1, a2, a3) > bound || spread(b1, b2, b3) > bound) {
		return verdictUnresolved
	}
	change := sign * (b2 - a2) // positive: B costs more
	switch {
	case change > bound*math.Abs(a2):
		return verdictWorse
	case change < 0 && -change > a3-a1:
		return verdictBetter
	}
	return verdictSame
}

// compareMain implements `bench compare <setA> <setB>`: per (workload,
// metric), each side's median and quartiles and a verdict from the bounds
// in BENCHMARK.json. It returns the process exit code: 1 on any worse.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare <setA> <setB>")
		return 2
	}
	bf, err := readBenchmarkFile("BENCHMARK.json")
	var a, b runSet
	if err == nil {
		a, err = readRunSet(args[0])
	}
	if err == nil {
		b, err = readRunSet(args[1])
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	return compareSets(bf, a, b)
}

func compareSets(bf *benchmarkFile, a, b runSet) int {
	worse := 0
	fmt.Printf("%-14s %-34s %5s  %-38s %-38s %8s  %s\n",
		"workload", "metric", "bound", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change", "verdict")
	row := func(workload string, m benchMetric) {
		va, vb := a[workload][m.Name], b[workload][m.Name]
		if len(va) == 0 || len(vb) == 0 {
			return
		}
		a1, a2, a3 := quartiles(va)
		b1, b2, b3 := quartiles(vb)
		change := "n/a"
		if a2 != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(b2-a2)/math.Abs(a2))
		}
		bound, verdict := "", "-"
		if m.Bound != nil {
			bound = fmt.Sprintf("%.2f", *m.Bound)
			verdict = judge(va, vb, m.Better == "lower", *m.Bound)
			if verdict == verdictWorse {
				worse++
			}
		}
		side := func(q1, q2, q3 float64, n int) string {
			return fmt.Sprintf("%.6g [%.6g, %.6g] (%d)", q2, q1, q3, n)
		}
		fmt.Printf("%-14s %-34s %5s  %-38s %-38s %8s  %s\n",
			workload, m.Name, bound, side(a1, a2, a3, len(va)), side(b1, b2, b3, len(vb)), change, verdict)
	}
	names := make([]string, 0, len(bf.Workloads))
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	for _, w := range names {
		for _, m := range bf.EndToEnd {
			row(w, m)
		}
		for _, m := range bf.PerLayer {
			row(w, m)
		}
	}
	if worse > 0 {
		fmt.Printf("%d (workload, metric) pairs are worse\n", worse)
		return 1
	}
	return 0
}

// planMain implements `bench plan`: it prints BENCHMARK.json's run length
// and workload names on one line, for runset.sh to loop over.
func planMain() int {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench plan: %v\n", err)
		return 2
	}
	fmt.Print(bf.RunSeconds)
	for _, w := range bf.Workloads {
		fmt.Print(" ", w.Name)
	}
	fmt.Println()
	return 0
}
