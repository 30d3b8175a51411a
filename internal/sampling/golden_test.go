package sampling

import (
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"testing"

	"digfl/internal/faults"
	"digfl/internal/tensor"
)

// cohortSum fingerprints a cohort (FNV-1a over its members, little-endian).
func cohortSum(c []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, i := range c {
		for j := range b {
			b[j] = byte(uint64(i) >> (8 * j))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestCohortGolden pins the cohort sequence: every literal below was printed
// by the implementation that called faults.Uniform once per candidate
// (commit e76ee20), so any change to the hash, the key transform, the
// tie-break or the output order fails here — recorded runs, journals and
// the benchmark's reference cohorts all depend on these exact draws.
func TestCohortGolden(t *testing.T) {
	pop := population(100_000)
	for _, g := range []struct {
		seed  int64
		epoch int
		sum   uint64
		ends  [4]int // members 0, 1, 2 and 63
	}{
		{1, 1, 0x441f258b2db5d72e, [4]int{1476, 1768, 1905, 98357}},
		{1, 2, 0x70b97453b4399030, [4]int{2161, 3767, 6921, 97619}},
		{1, 37, 0x5ca53b8cd585419e, [4]int{979, 1039, 3214, 92023}},
		{1, 1000, 0x94afb70f7099ccf4, [4]int{3537, 5205, 5330, 99602}},
		{7, 1, 0x158619d6b1b132a9, [4]int{1627, 1958, 8932, 98211}},
		{7, 2, 0x6eb051ca39b9205f, [4]int{780, 924, 5804, 98812}},
		{7, 37, 0xddeafeafddedc0d, [4]int{60, 2769, 4161, 98305}},
		{7, 1000, 0x58257cd49725d7fc, [4]int{3480, 4413, 5313, 99405}},
		{42, 1, 0x46fde5f8cf0fe336, [4]int{1488, 3493, 3825, 99408}},
		{42, 2, 0xee63f8c7f64eab1e, [4]int{338, 2625, 5709, 99513}},
		{42, 37, 0xcc3735324797a7ea, [4]int{1884, 5378, 5388, 99701}},
		{42, 1000, 0xce1018f58df8ebea, [4]int{1401, 2248, 2344, 99967}},
		{-3, 1, 0x456dc8fcc36f494a, [4]int{121, 615, 841, 99471}},
		{-3, 2, 0x8eef38c4ee7657f0, [4]int{2114, 3304, 4275, 92224}},
		{-3, 37, 0xb66635ae2d33c29d, [4]int{1854, 3294, 3348, 96497}},
		{-3, 1000, 0x1ef45c4372794833, [4]int{1959, 4637, 6486, 94897}},
	} {
		c := MustNew(Config{Seed: g.seed, Size: 64}).Cohort(g.epoch, pop)
		if len(c) != 64 {
			t.Fatalf("seed %d epoch %d: %d members", g.seed, g.epoch, len(c))
		}
		if got := [4]int{c[0], c[1], c[2], c[63]}; got != g.ends || cohortSum(c) != g.sum {
			t.Errorf("seed %d epoch %d: cohort %v… sum %#x, golden %v sum %#x",
				g.seed, g.epoch, got, cohortSum(c), g.ends, g.sum)
		}
	}

	// A coalition-subset population (every third participant).
	var sub []int
	for i := 2; i < 100_000; i += 3 {
		sub = append(sub, i)
	}
	for _, g := range []struct {
		epoch int
		sum   uint64
		head  []int
	}{
		{1, 0x81c1344fc532abca, []int{1052, 1505, 3614, 4082}},
		{5, 0xc6bdd2643cacc479, []int{581, 2153, 3773, 5768}},
	} {
		c := MustNew(Config{Seed: 9, Size: 64}).Cohort(g.epoch, sub)
		if !reflect.DeepEqual(c[:4], g.head) || cohortSum(c) != g.sum {
			t.Errorf("subset epoch %d: cohort %v… sum %#x, golden %v sum %#x",
				g.epoch, c[:4], cohortSum(c), g.head, g.sum)
		}
	}

	// Weighted (Efraimidis–Spirakis) draws, every seventh weight zero.
	w := make([]float64, 1000)
	for i := range w {
		w[i] = float64(i%7) * 0.5
	}
	for epoch, want := range map[int][]int{
		1: {164, 178, 279, 318, 367, 404, 408, 458, 478, 597, 830, 892},
		2: {12, 138, 353, 361, 366, 396, 558, 632, 668, 671, 811, 815},
		3: {34, 73, 86, 138, 195, 314, 319, 356, 415, 657, 706, 846},
	} {
		got := MustNew(Config{Seed: 5, Size: 12, Weights: w}).Cohort(epoch, population(1000))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("weighted epoch %d: %v, golden %v", epoch, got, want)
		}
	}
	// Participants past the end of Weights weigh zero.
	if got, want := MustNew(Config{Seed: 5, Size: 12, Weights: w[:20]}).Cohort(1, population(1000)),
		[]int{3, 4, 5, 6, 8, 9, 10, 11, 13, 16, 17, 19}; !reflect.DeepEqual(got, want) {
		t.Errorf("short weights: %v, golden %v", got, want)
	}

	// k = N−1: exactly the largest key loses.
	for seed, loser := range map[int64]int{1: 18, 2: 16, 3: 21} {
		c := MustNew(Config{Seed: seed, Size: 49}).Cohort(4, population(50))
		want := append(population(loser), population(50)[loser+1:]...)
		if !reflect.DeepEqual(c, want) {
			t.Errorf("k=N-1 seed %d: %v, golden drops %d", seed, c, loser)
		}
	}

	// Forced equal keys: every zero weight keys +Inf, so after the two
	// positive weights the smallest indices win, whatever order the
	// population lists them in (output stays in population order).
	z := make([]float64, 40)
	z[31], z[17] = 2, 1
	ties := MustNew(Config{Seed: 3, Size: 6, Weights: z})
	if got, want := ties.Cohort(2, population(40)), []int{0, 1, 2, 3, 17, 31}; !reflect.DeepEqual(got, want) {
		t.Errorf("equal keys: %v, golden %v", got, want)
	}
	rev := population(40)
	sort.Sort(sort.Reverse(sort.IntSlice(rev)))
	if got, want := ties.Cohort(2, rev), []int{31, 17, 3, 2, 1, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("equal keys, reversed population: %v, golden %v", got, want)
	}
}

// refCohort is the sampler's specification, kept term by term: one
// faults.Uniform call per candidate, a full sort by (key, participant), the
// Size best restored to population order.
func refCohort(cfg Config, epoch int, pop []int) []int {
	type cand struct {
		key       float64
		part, pos int
	}
	cs := make([]cand, len(pop))
	for p, i := range pop {
		key := faults.Uniform(cfg.Seed, Domain, uint64(epoch), uint64(i), 0)
		if cfg.Weights != nil {
			w := 0.0
			if i < len(cfg.Weights) {
				w = cfg.Weights[i]
			}
			if w == 0 {
				key = math.Inf(1)
			} else {
				key = -tensor.Log1p(-key) / w
			}
		}
		cs[p] = cand{key, i, p}
	}
	sort.Slice(cs, func(a, b int) bool {
		if cs[a].key != cs[b].key {
			return cs[a].key < cs[b].key
		}
		return cs[a].part < cs[b].part
	})
	cs = cs[:cfg.Size]
	sort.Slice(cs, func(a, b int) bool { return cs[a].pos < cs[b].pos })
	out := make([]int, len(cs))
	for j, c := range cs {
		out[j] = c.part
	}
	return out
}

// TestCohortMatchesUniformReference: the scan with the hoisted hash prefix
// draws exactly the cohorts of the term-by-term specification, across
// seeds, epochs, sizes, shuffled and gapped populations, and weights with
// zeros (equal +Inf keys).
func TestCohortMatchesUniformReference(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		u := func(c uint64) float64 { return faults.Uniform(77, 0, uint64(trial), c, 0) }
		n := 2 + int(u(0)*400)
		cfg := Config{Seed: int64(u(1)*2e9) - 1e9, Size: 1 + int(u(2)*float64(n-1))}
		pop := make([]int, n)
		for p := range pop {
			pop[p] = 3*p + int(u(3)*3) // gaps
		}
		if trial%3 == 0 { // shuffled order
			sort.Slice(pop, func(a, b int) bool {
				return faults.Uniform(78, 0, uint64(trial), uint64(pop[a]), 0) < faults.Uniform(78, 0, uint64(trial), uint64(pop[b]), 0)
			})
		}
		if trial%2 == 0 {
			cfg.Weights = make([]float64, 2*n) // shorter than the largest index
			for i := range cfg.Weights {
				cfg.Weights[i] = math.Floor(4 * faults.Uniform(79, 0, uint64(trial), uint64(i), 0))
			}
		}
		epoch := 1 + int(u(4)*5000)
		got := MustNew(cfg).Cohort(epoch, pop)
		if want := refCohort(cfg, epoch, pop); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d size=%d weighted=%v epoch=%d): cohort %v, reference %v",
				trial, n, cfg.Size, cfg.Weights != nil, epoch, got, want)
		}
	}
}

// BenchmarkCohort100k times one cohort draw at the reference cell (64 of
// 100 000, uniform); every drawn cohort is checked against refCohort.
func BenchmarkCohort100k(b *testing.B) {
	pop := population(100_000)
	cfg := Config{Seed: 3, Size: 64}
	s := MustNew(cfg)
	const epochs = 4
	var want [epochs][]int
	for e := range want {
		want[e] = refCohort(cfg, e+1, pop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := i % epochs
		if got := s.Cohort(e+1, pop); !reflect.DeepEqual(got, want[e]) {
			b.Fatalf("epoch %d: cohort differs from the reference", e+1)
		}
	}
}
