// Command bench is the repository's benchmark: one workload per process,
// driven from outside through public functions only, its outputs checked
// against an in-process reference, every metric printed by name with its
// unit. BENCHMARK.json at the repository root names the command, the
// workloads and the metrics; README.md in this directory is the glossary.
//
//	bash bench/run.sh --workload stream-100k --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh compare setA.txt setB.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	// refSeconds is the run length the workloads' round counts are sized
	// for; it equals run_seconds in BENCHMARK.json.
	refSeconds = 10
	// setupReps is how many times audit-engines and vfl-secure set the system
	// up; setup_s is the quiet estimate of them (the quickest, of so few), so
	// a set-up the host slowed does not move it.
	setupReps = 3
	// maxDriverSelfFrac bounds the load generator's own share of a round on
	// the fednet workloads; past it the benchmark measures itself.
	maxDriverSelfFrac = 0.10
	// phaseSumTolerance is how far the traced phases may be from summing to
	// the driver-observed rounds.
	phaseSumTolerance = 0.02
)

// metric names one reported number and its unit.
type metric struct{ name, unit string }

// endToEnd is reported by every workload when tracing is off. Both timings
// are quiet-host estimates (see quiet): the wall-clock throughput, median
// and tail of the same rounds are per-layer metrics, because on a shared
// host they do not repeat.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"round_quiet_ms", "ms"},
	{"wire_bytes_per_round", "B"},
	{"allocs_per_round", "count"},
	{"alloc_kb_per_round", "KiB"},
	{"peak_rss_mb", "MiB"},
}

// perLayer is reported by every workload's traced run. The kernels are
// measured in every traced run; a span or count metric reads 0 on a
// workload that never enters its layer (README.md says which).
var perLayer = []metric{
	{"rounds_per_s", "1/s"},
	{"round_p50_ms", "ms"},
	{"round_p95_ms", "ms"},
	{"fednet.turnaround_ms_per_round", "ms"},
	{"fednet.poll_ms_per_round", "ms"},
	{"fednet.update_self_ms_per_round", "ms"},
	{"fednet.journal_write_ms_per_round", "ms"},
	{"fednet.journal_bytes_per_round", "B"},
	{"fednet.join_us", "us"},
	{"fednet.score_reply_kb", "KiB"},
	{"fednet.score_busy_frac", "frac"},
	{"score_p50_ms", "ms"},
	{"score_p90_ms", "ms"},
	{"fednet.buffered_acks_per_round", "count"},
	{"fednet.excluded_polls_per_round", "count"},
	{"fednet.codec_v2_encode_update_ns", "ns"},
	{"hfl.fold_add_ms_per_round", "ms"},
	{"hfl.fold_close_ms_per_round", "ms"},
	{"hfl.meanstream_fold_64x2000_us", "us"},
	{"hfl.trainer_epoch_ms", "ms"},
	{"core.observe_dots_100k_us", "us"},
	{"core.observe_deltas_64x2000_us", "us"},
	{"core.rs_ms_per_epoch", "ms"},
	{"core.interactive_ms_per_epoch", "ms"},
	{"core.rs_kendall_tau", "tau"},
	{"robust.quarantine_weights_64_us", "us"},
	{"shapley.gtg_ms_per_epoch", "ms"},
	{"shapley.tmc_ms_per_epoch", "ms"},
	{"shapley.gtg_utility_evals", "count"},
	{"shapley.tmc_utility_evals", "count"},
	{"shapley.gtg_kendall_tau", "tau"},
	{"nn.softmax_loss_us", "us"},
	{"nn.softmax_hvp_us", "us"},
	{"nn.linreg_val_grad_2000_us", "us"},
	{"sampling.cohort_100k_us", "us"},
	{"tensor.dot_2000_ns", "ns"},
	{"tensor.axpy_2000_ns", "ns"},
	{"tensor.pool_getput_ns", "ns"},
	{"logio.read_hfl_ms", "ms"},
	{"logio.write_hfl_ms", "ms"},
	{"vfl.secure_epoch_ms", "ms"},
	{"vfl.plain_epoch_us", "us"},
	{"paillier.keygen_ms", "ms"},
	{"paillier.encrypt_us", "us"},
	{"paillier.decrypt_us", "us"},
	{"paillier.add_us", "us"},
	{"paillier.mulplain_us", "us"},
	{"paillier.enc_per_epoch", "count"},
	{"paillier.dec_per_epoch", "count"},
	{"paillier.add_per_epoch", "count"},
	{"paillier.mulplain_per_epoch", "count"},
	{"bench.host_speed", "frac"},
	{"bench.driver_self_frac", "frac"},
	{"bench.trace_overhead_frac", "frac"},
	{"go.gc_pause_ms", "ms"},
	{"go.num_gc", "count"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runOpts) (*result, error){}

// runOpts are one run's arguments.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// smoke marks a smoke-scale run (the package test): too short for the
	// timing-dependent assertions to mean anything, so they are skipped.
	smoke bool
	// retainJournal keeps buffered-wal's journal bytes so the smoke test can
	// replay them through Coordinator.Recover.
	retainJournal bool
}

// result collects what one run measured and checked.
type result struct {
	opts      runOpts
	stamp     map[string]any
	values    map[string]float64
	errs      []error
	attempted int64
	failed    int64
	tracer    *tracer
	journal   []byte
	// host is sampled between the run's phases (probe.go).
	host *hostProbe
}

func newResult(workload string, o runOpts) *result {
	return &result{
		opts:   o,
		host:   newHostProbe(o.smoke),
		values: map[string]float64{},
		stamp: map[string]any{
			"workload": workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		},
	}
}

// fail records a failed reference check; the run then reports correct=false
// and exits non-zero.
func (r *result) fail(err error) { r.errs = append(r.errs, err) }

func (r *result) layer(name string, v float64) { r.values[name] = v }

// quietQuantile is the share of the timings of one repeated piece of work
// that is taken to have run while the host left the machine alone. The
// host's other tenants slow this machine's processors by up to half for
// fractions of a second to seconds at a time, over minutes for most of the
// time (README.md, "Noise notes"); they only ever lengthen a timing, and the
// moments they spare repeat from run to run.
const quietQuantile = 0.02

// quiet estimates how long a sequence of period pieces of work takes on an
// undisturbed host. samples holds the timings of the sequence repeated over
// and over: samples[k], samples[k+period], … timed the same work. Each
// piece counts for the quietQuantile of its own timings. With period 1 every
// sample timed the same work and the estimate is their 2nd percentile.
func quiet(samples []float64, period int) float64 {
	sum := 0.0
	same := make([]float64, 0, len(samples)/period+1)
	for k := 0; k < period; k++ {
		same = same[:0]
		for j := k; j < len(samples); j += period {
			same = append(same, samples[j])
		}
		sort.Float64s(same)
		sum += quantile(same, quietQuantile)
	}
	return sum
}

// timing fills the timing metrics. setupS is the quiet estimate of one
// set-up. latencies are the per-round latencies in milliseconds of a
// sequence of period rounds repeated; round_quiet_ms, the bounded timing, is
// the quiet estimate of the sequence divided by its length. Throughput,
// median and tail are reported as the wall clock saw them.
func (r *result) timing(setupS float64, rounds int, wall time.Duration, latencies []float64, period int) {
	lat := sortedCopy(latencies)
	r.values["setup_s"] = setupS
	r.values["round_quiet_ms"] = quiet(latencies, period) / float64(period)
	r.values["rounds_per_s"] = float64(rounds) / wall.Seconds()
	r.values["round_p50_ms"] = quantile(lat, 0.50)
	r.values["round_p95_ms"] = quantile(lat, 0.95)
	r.values["bench.host_speed"] = r.host.speed()
	r.stamp["round_samples"] = len(lat)
}

// e2e fills the end-to-end counts every workload reports. bytesPerRound is
// what crossed the workload's boundary per round; mem covers the measured
// phases.
func (r *result) e2e(rounds int, bytesPerRound float64, mem memDelta) {
	r.values["wire_bytes_per_round"] = bytesPerRound
	r.values["allocs_per_round"] = float64(mem.mallocs) / float64(rounds)
	r.values["alloc_kb_per_round"] = float64(mem.bytes) / 1024 / float64(rounds)
	r.values["peak_rss_mb"] = peakRSSMiB()
}

// gc fills the runtime's own per-layer numbers over the measured phases.
func (r *result) gc(mem memDelta) {
	r.values["go.gc_pause_ms"] = float64(mem.pauseNS) / 1e6
	r.values["go.num_gc"] = float64(mem.numGC)
}

// memDelta is what the Go runtime allocated and collected over a phase.
type memDelta struct {
	mallocs, bytes, pauseNS uint64
	numGC                   uint32
}

func (d *memDelta) add(o memDelta) {
	d.mallocs += o.mallocs
	d.bytes += o.bytes
	d.pauseNS += o.pauseNS
	d.numGC += o.numGC
}

// since returns the growth of the counters from an earlier reading.
func (d memDelta) since(o memDelta) memDelta {
	return memDelta{d.mallocs - o.mallocs, d.bytes - o.bytes, d.pauseNS - o.pauseNS, d.numGC - o.numGC}
}

// readMem reads the runtime's cumulative counters; settle collects garbage
// first, so that a phase starts from a settled heap.
func readMem(settle bool) memDelta {
	if settle {
		runtime.GC()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memDelta{m.Mallocs, m.TotalAlloc, m.PauseTotalNs, m.NumGC}
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// envStamp records where the numbers were taken.
func envStamp(stamp map[string]any) {
	stamp["go"] = runtime.Version()
	stamp["gomaxprocs"] = runtime.GOMAXPROCS(0)
	stamp["nproc"] = runtime.NumCPU()
	stamp["cpu"] = cpuModel()
	stamp["commit"] = commit()
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the revision the binary was built from, when the build ran
// inside a git checkout; the benchmark driver's checkouts are not.
func commit() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// reported is one metric of the result object.
type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics returns what the result object carries: every end-to-end metric
// of an untraced run, every per-layer metric of a traced one. A per-layer
// metric the workload never set reads 0: its layer was not entered.
func (r *result) metrics() (map[string]reported, error) {
	list := endToEnd
	if r.opts.trace {
		list = perLayer
	}
	out := map[string]reported{}
	for _, m := range list {
		v, ok := r.values[m.name]
		if !ok && !r.opts.trace {
			return nil, fmt.Errorf("workload %s did not measure %s", r.opts.workload, m.name)
		}
		out[m.name] = reported{v, m.unit}
	}
	return out, nil
}

// report prints the stamp, every metric by name with its unit, and — as the
// last line — the result object the benchmark contract prescribes.
func (r *result) report() error {
	envStamp(r.stamp)
	metrics, err := r.metrics()
	if err != nil {
		return err
	}
	for _, err := range r.errs {
		fmt.Printf("check failed: %v\n", err)
	}
	stamp, err := json.Marshal(map[string]any{"stamp": r.stamp})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", stamp)
	// A traced run also prints its end-to-end numbers, for orientation only:
	// they cover half the rounds and are not part of its result.
	units := map[string]string{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		units[m.name] = m.unit
	}
	names := make([]string, 0, len(r.values))
	for name := range r.values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := metrics[name]; !ok {
			fmt.Printf("(not in result) ")
		}
		fmt.Printf("%-38s %16.6f %s\n", name, r.values[name], units[name])
	}
	out, err := json.Marshal(map[string]any{
		"correct": len(r.errs) == 0, "attempted": max(r.attempted, 1), "failed": r.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", out)
	return nil
}

func run(o runOpts) (*result, error) {
	runner, ok := workloads[o.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for name := range workloads {
			names = append(names, name)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
	}
	res, err := runner(o)
	if err != nil {
		return nil, err
	}
	if o.trace {
		if err := runKernels(res); err != nil {
			return nil, err
		}
	}
	if res.failed > 0 {
		res.fail(fmt.Errorf("%d of %d operations failed", res.failed, res.attempted))
	}
	return res, nil
}

func main() {
	// The load shape is one driver goroutine beside the system's own; two
	// processors carry it, and more would only add scheduling freedom.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "plan" {
		os.Exit(planMain())
	}
	var o runOpts
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is derived from")
	flag.Float64Var(&o.seconds, "seconds", refSeconds, "run length the measured counts are sized for")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	flag.Parse()
	o.trace = trace != 0
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be positive")
		os.Exit(2)
	}
	res, err := run(o)
	if err == nil && res.tracer != nil {
		var path string
		if path, err = res.tracer.writeTraceFile(o.workload); err == nil {
			res.stamp["trace_file"] = path
		}
	}
	if err == nil {
		err = res.report()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
	if len(res.errs) > 0 {
		os.Exit(1)
	}
}
