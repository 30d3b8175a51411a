// Package sampling implements seeded, deterministic per-round client
// sampling — the first layer of the million-participant path. Each epoch a
// cohort of Size participants is drawn from the run's population (uniformly,
// or weighted without replacement via Efraimidis–Spirakis keys) and only the
// cohort trains that round; everyone else sits it out with the same
// Epoch.Reported semantics as an injected dropout, scoring zero φ for the
// epoch per Lemma 3 additivity.
//
// Every selection is a pure function of (seed, epoch, participant): each
// candidate's key is hashed through the shared faults.Uniform splitmix64
// finalizer and the Size smallest keys win. Decisions are therefore
// independent of call order, of worker count, and of where a crashed run
// resumed — a resumed run replays the identical cohort sequence — and they
// compose with the fault injector (which hashes disjoint domains off the
// same primitive), so sampled+faulty runs stay bit-identical across reruns.
//
// Selection is one scan of the population — an inlined hash finalizer and a
// compare against the current worst winner per candidate, a heap update only
// for the expected O(Size·log(population/Size)) candidates that displace one — in
// O(Size) extra memory (a bounded max-heap of the current winners), so the
// sampler itself never materializes population-scale scratch state. The scan
// is the one population-sized cost of a round, and because the draw is pure
// the trainer runs epoch t+1's while epoch t's updates arrive — same cohort,
// off the round's critical path (DESIGN.md §10, "What the turnaround waits for").
package sampling

import (
	"fmt"
	"math"
	"sort"

	"digfl/internal/faults"
	"digfl/internal/tensor"
)

// Domain is the faults.Uniform hash domain the sampler draws its keys from,
// registered as faults.DomainSampling so every schedule sharing a seed stays
// independent (the faults.Domains collision guard enforces uniqueness).
const Domain = faults.DomainSampling

// Config parameterizes a Sampler.
type Config struct {
	// Seed determines every cohort; same seed, same cohort sequence.
	Seed int64
	// Size is the per-epoch cohort size. A Size of zero or one at least the
	// population selects everyone — the sampler is then a pass-through and
	// the run stays bit-identical to an unsampled one.
	Size int
	// Weights optionally biases selection, indexed by global participant
	// index: participant i wins with probability proportional to Weights[i]
	// (Efraimidis–Spirakis weighted sampling without replacement). Nil means
	// uniform. A zero weight makes a participant effectively unselectable
	// while any positively weighted candidate remains.
	Weights []float64
}

func (c Config) validate() error {
	if c.Size < 0 {
		return fmt.Errorf("sampling: negative cohort Size %d", c.Size)
	}
	for i, w := range c.Weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("sampling: weight[%d] = %v outside [0,∞)", i, w)
		}
	}
	return nil
}

// Sampler draws deterministic per-epoch cohorts. All methods are safe on a
// nil receiver (no sampling) and for concurrent use: the sampler holds no
// mutable state.
type Sampler struct {
	cfg Config
}

// New validates the configuration and builds a sampler.
func New(cfg Config) (*Sampler, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Sampler{cfg: cfg}, nil
}

// MustNew is New panicking on invalid configuration, for tests and examples
// with literal configs.
func MustNew(cfg Config) *Sampler {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the validated configuration (zero Config for nil).
func (s *Sampler) Config() Config {
	if s == nil {
		return Config{}
	}
	return s.cfg
}

// Size returns the configured cohort size (0 for nil: select everyone).
func (s *Sampler) Size() int {
	if s == nil {
		return 0
	}
	return s.cfg.Size
}

// weightedKey turns participant part's uniform variate u into its
// Efraimidis–Spirakis selection key −ln(1−u)/w, an Exp(w) variate, whose k
// smallest order statistics realize weighted sampling without replacement.
// A zero (or unlisted) weight maps to +Inf — never selected while a
// positively weighted candidate remains.
func weightedKey(u float64, weights []float64, part int) float64 {
	var w float64
	if part < len(weights) {
		w = weights[part]
	}
	if w == 0 {
		return math.Inf(1)
	}
	return -tensor.Log1p(-u) / w
}

// cohortHeap is a bounded max-heap over (key, participant, position)
// triples: the root is the worst of the current winners, evicted whenever a
// better candidate arrives. Ties break toward the smaller participant index
// so selection is a total order even on (astronomically unlikely) equal
// keys. Positions are carried so the winners can be restored to population
// order without any population-sized scratch state.
type cohortHeap struct {
	keys  []float64
	parts []int
	pos   []int
}

func (h *cohortHeap) less(a, b int) bool {
	if h.keys[a] != h.keys[b] {
		return h.keys[a] < h.keys[b]
	}
	return h.parts[a] < h.parts[b]
}

func (h *cohortHeap) swap(a, b int) {
	h.keys[a], h.keys[b] = h.keys[b], h.keys[a]
	h.parts[a], h.parts[b] = h.parts[b], h.parts[a]
	h.pos[a], h.pos[b] = h.pos[b], h.pos[a]
}

// siftDown restores the max-heap property from the root.
func (h *cohortHeap) siftDown() {
	i, n := 0, len(h.keys)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && h.less(big, l) {
			big = l
		}
		if r < n && h.less(big, r) {
			big = r
		}
		if big == i {
			return
		}
		h.swap(i, big)
		i = big
	}
}

// siftUp restores the max-heap property from the last element.
func (h *cohortHeap) siftUp() {
	for i := len(h.keys) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(p, i) {
			return
		}
		h.swap(p, i)
		i = p
	}
}

// Cohort returns epoch's sampled cohort as a subsequence of population,
// preserving population order — the fixed reduction order downstream
// aggregation depends on. A nil sampler, a Size of zero, or a Size at least
// the population returns the population slice itself (no allocation), so
// pass-through configurations stay bit-identical to unsampled runs.
func (s *Sampler) Cohort(epoch int, population []int) []int {
	if s == nil || s.cfg.Size == 0 || s.cfg.Size >= len(population) {
		return population
	}
	k := s.cfg.Size
	h := &cohortHeap{
		keys:  make([]float64, 0, k),
		parts: make([]int, 0, k),
		pos:   make([]int, 0, k),
	}
	// Participant i's key is a pure function of (seed, epoch, i): the raw
	// variate faults.Uniform(seed, Domain, epoch, i, 0) under uniform
	// sampling, its weightedKey otherwise; the Size smallest keys win. The
	// (seed, domain, epoch) part of the hash is the same for every candidate,
	// so it is mixed once and the scan pays for the per-candidate finalizer
	// alone.
	keys := faults.NewStream(s.cfg.Seed, Domain, uint64(epoch), 0)
	weights := s.cfg.Weights
	for p, i := range population {
		key := keys.At(uint64(i))
		if weights != nil {
			key = weightedKey(key, weights, i)
		}
		if len(h.keys) < k {
			h.keys = append(h.keys, key)
			h.parts = append(h.parts, i)
			h.pos = append(h.pos, p)
			h.siftUp()
			continue
		}
		if key > h.keys[0] || (key == h.keys[0] && i > h.parts[0]) {
			continue
		}
		h.keys[0], h.parts[0], h.pos[0] = key, i, p
		h.siftDown()
	}
	// The heap yields winners in heap order; restore population order (the
	// fixed reduction order) by the recorded positions.
	cohort := append([]int(nil), h.parts...)
	order := append([]int(nil), h.pos...)
	sort.Sort(&byPos{pos: order, parts: cohort})
	return cohort
}

// byPos sorts a cohort by its recorded population positions.
type byPos struct {
	pos   []int
	parts []int
}

func (b *byPos) Len() int           { return len(b.pos) }
func (b *byPos) Less(i, j int) bool { return b.pos[i] < b.pos[j] }
func (b *byPos) Swap(i, j int) {
	b.pos[i], b.pos[j] = b.pos[j], b.pos[i]
	b.parts[i], b.parts[j] = b.parts[j], b.parts[i]
}
