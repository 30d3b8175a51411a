package main

import (
	"bytes"
	"math"
	"regexp"
	"testing"
)

// smokeSeconds sizes every workload to its minimum round count.
const smokeSeconds = 0.01

func loadBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// BENCHMARK.json and the code name the same workloads and the same metrics,
// with the same units, in names the contract accepts.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if bf.RunSeconds != refSeconds {
		t.Errorf("run_seconds = %d, the round counts are sized for %d", bf.RunSeconds, refSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the code registers %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no runner", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, file []benchMetric, code []metric, bounded bool) {
		if len(file) != len(code) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code has %d", kind, len(file), len(code))
		}
		for i, m := range file {
			if m.Name != code[i].name || m.Unit != code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json says %s [%s], the code says %s [%s]",
					kind, i, m.Name, m.Unit, code[i].name, code[i].unit)
			}
			if !name.MatchString(m.Name) {
				t.Errorf("%s: name %q is outside the contract's alphabet", kind, m.Name)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: %s has better=%q", kind, m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s: %s bound presence is wrong", kind, m.Name)
			}
			if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s: %s bound %v outside (0, 0.25]", kind, m.Name, *m.Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
	for _, m := range bf.EndToEnd {
		if *m.Bound > *bf.EndToEnd[0].Bound {
			t.Errorf("%s has a wider bound than setup_s", m.Name)
		}
	}
	if bf.EndToEnd[0].Name != "setup_s" {
		t.Errorf("first end-to-end metric is %s, want setup_s", bf.EndToEnd[0].Name)
	}
}

// Every workload runs at smoke scale, untraced and traced, passes its
// reference checks, reports every end-to-end metric as a real measurement,
// and between them the workloads measure every per-layer metric.
func TestSmoke(t *testing.T) {
	bf := loadBenchmarkFile(t)
	measured := map[string]bool{}
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			o := runOpts{workload: w.Name, seed: 7, seconds: smokeSeconds, trace: trace,
				smoke: true, retainJournal: true}
			res, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			for _, err := range res.errs {
				t.Errorf("%s trace=%v: check failed: %v", w.Name, trace, err)
			}
			got, err := res.metrics()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, BENCHMARK.json names %d", w.Name, trace, len(got), len(want))
			}
			for _, m := range want {
				r, ok := got[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not reported", w.Name, trace, m.Name)
				case r.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s reported in %q, want %q", w.Name, trace, m.Name, r.Unit, m.Unit)
				case math.IsNaN(r.Value) || math.IsInf(r.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.Name, trace, m.Name, r.Value)
				case !trace && r.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want a positive measurement", w.Name, m.Name, r.Value)
				case trace && r.Value != 0:
					measured[m.Name] = true
				}
			}
			if res.attempted < 1 || res.failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", w.Name, trace, res.attempted, res.failed)
			}
			if w.Name == "buffered-wal" && !trace {
				replayJournal(t, o, res.journal)
			}
		}
	}
	for _, m := range bf.PerLayer {
		// A smoke run is too short for the collector to have paused, and its
		// fresh async rounds may all commit without a single exclusion.
		if !measured[m.Name] && m.Name != "go.gc_pause_ms" && m.Name != "go.num_gc" &&
			m.Name != "fednet.excluded_polls_per_round" {
			t.Errorf("no workload measured per-layer metric %s", m.Name)
		}
	}
}

// replayJournal hands a torn prefix of buffered-wal's retained journal to a
// fresh, identically configured coordinator: Recover must accept it and stop
// at the last whole record.
func replayJournal(t *testing.T, o runOpts, journal []byte) {
	t.Helper()
	if len(journal) == 0 {
		t.Fatal("buffered-wal retained no journal")
	}
	var spec *fedSpec
	for _, s := range fedSpecs {
		if s.name == o.workload {
			spec = s.smoke()
		}
	}
	rounds := fedRounds(spec, o)
	torn := journal[:len(journal)*2/3]
	s := newFedInputs(spec, o.seed).coordinator(rounds, nil, false)
	consumed, err := s.coord.Recover(bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if consumed <= 0 || consumed > int64(len(torn)) {
		t.Errorf("Recover consumed %d of %d bytes", consumed, len(torn))
	}
	if got := s.coord.Estimator.Attribution().Totals; len(got) != spec.pop {
		t.Errorf("recovered estimator has %d totals, want %d", len(got), spec.pop)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) on the same data.
	for _, c := range []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{5, 1, 9, 3, 7}, 2, 5, 8},
	} {
		q1, q2, q3 := quartiles(c.data)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestQuiet(t *testing.T) {
	// One piece repeated: the low quantile of all samples.
	same := make([]float64, 101)
	for i := range same {
		same[i] = float64(100 - i)
	}
	if got := quiet(same, 1); got != 2 {
		t.Errorf("quiet over 0..100 = %v, want the 2nd percentile 2", got)
	}
	// A sequence of three pieces repeated four times: each piece is judged
	// by its own timings, whatever the host did to the others.
	seq := []float64{1, 10, 100, 2, 20, 200, 1, 30, 100, 3, 10, 300}
	want := quantile([]float64{1, 1, 2, 3}, quietQuantile) +
		quantile([]float64{10, 10, 20, 30}, quietQuantile) +
		quantile([]float64{100, 100, 200, 300}, quietQuantile)
	if got := quiet(seq, 3); got != want {
		t.Errorf("quiet over a repeated sequence = %v, want %v", got, want)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{100, 140, 70, 120, 80, 130, 60, 110, 90, 150}
	for _, c := range []struct {
		name  string
		a, b  []float64
		lower bool
		want  string
	}{
		{"same", steady, shift(steady, 1.01), true, verdictSame},
		{"worse latency", steady, shift(steady, 1.2), true, verdictWorse},
		{"better latency", steady, shift(steady, 0.8), true, verdictBetter},
		{"worse throughput", steady, shift(steady, 0.8), false, verdictWorse},
		{"better throughput", steady, shift(steady, 1.2), false, verdictBetter},
		{"spread wider than the bound", noisy, shift(noisy, 1.05), true, verdictUnresolved},
		{"noisy but every run better", noisy, shift(noisy, 0.3), true, verdictBetter},
	} {
		if got := judge(c.a, c.b, c.lower, 0.10); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestScanScore(t *testing.T) {
	epochs, totals, err := scanScore([]byte(`{"epochs":12,"totals":[0,1.5e-7,0,-2],"engine":"dig-fl"}` + "\n"))
	if err != nil || epochs != 12 || totals != 4 {
		t.Errorf("scanScore = %d, %d, %v", epochs, totals, err)
	}
	if _, totals, err := scanScore([]byte(`{"epochs":0,"totals":[]}`)); err != nil || totals != 0 {
		t.Errorf("empty totals: %d, %v", totals, err)
	}
	for _, bad := range []string{`{"error":"x"}`, `{"epochs":3}`, `{"epochs":3,"totals":[1,2`} {
		if _, _, err := scanScore([]byte(bad)); err == nil {
			t.Errorf("scanScore(%s) accepted a malformed reply", bad)
		}
	}
}
