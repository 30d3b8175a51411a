package main

import (
	"runtime"
	"time"
)

// The host does not run this machine at one speed (README.md, "Noise
// notes"), and no probe divides that out of a timing: the workloads slow by
// other factors than any one kernel does. So the probe only reports. Each
// run times a fixed piece of the benchmark's own work — never the
// repository's, so no later change can move it — between its phases, and
// bench.host_speed says how fast the host ran it. Two sets of runs whose
// host speeds differ had different hosts, whatever their commits.

const (
	// probeRefNS is what one probe kernel call takes on the two-core
	// reference machine when its host is quiet.
	probeRefNS = 200_000
	// probeCalls is how many kernel calls one sample times (0.1 s).
	probeCalls      = 512
	probeCallsSmoke = 8
)

// hostProbe times the probe kernel whenever a run asks it to.
type hostProbe struct {
	vecs  [][]float64
	dir   []float64
	acc   []float64
	calls int
	ns    []float64 // every timed kernel call
	sink  float64
}

func newHostProbe(smoke bool) *hostProbe {
	// The shapes are a streamed round's: a cohort of 64 vectors of 2000
	// values (1 MB, like the deltas one round folds), one dot and one axpy
	// per vector, then an integer chain for the decode-and-bookkeeping part.
	const cohort, dim = 64, 2000
	p := &hostProbe{dir: make([]float64, dim), acc: make([]float64, dim), calls: probeCalls}
	if smoke {
		p.calls = probeCallsSmoke
	}
	x := uint64(0x9E3779B97F4A7C15)
	next := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x>>11)/(1<<53) - 0.5
	}
	for i := range p.dir {
		p.dir[i] = next()
	}
	p.vecs = make([][]float64, cohort)
	for k := range p.vecs {
		v := make([]float64, dim)
		for i := range v {
			v[i] = next()
		}
		p.vecs[k] = v
	}
	return p
}

// kernel is the fixed work. It allocates nothing, so it never starts a
// garbage collection of its own.
func (p *hostProbe) kernel() {
	for i := range p.acc {
		p.acc[i] = 0
	}
	for _, v := range p.vecs {
		dot := 0.0
		for i, x := range v {
			dot += x * p.dir[i]
		}
		w := 1e-3 * dot
		for i, x := range v {
			p.acc[i] += w * x
		}
	}
	h := uint64(len(p.ns)) + 1
	for i := 0; i < 1<<14; i++ {
		h = (h ^ h>>30) * 0xBF58476D1CE4E5B9
	}
	p.sink += p.acc[0] + float64(h&1)
}

// sample times a batch of kernel calls one by one. It collects garbage
// first: a sample follows a phase that has just dropped its heap, and a
// collector marking on the other processor would be probed instead of the
// host.
func (p *hostProbe) sample() {
	runtime.GC()
	for i := 0; i < p.calls; i++ {
		t0 := time.Now()
		p.kernel()
		p.ns = append(p.ns, float64(time.Since(t0)))
	}
}

// speed is the host's speed over the run relative to the reference machine:
// the reference time of a kernel call over the median of the calls timed.
// Below 1 the host ran slow.
func (p *hostProbe) speed() float64 { return probeRefNS / median(p.ns) }
