package tensor

import "math/rand"

// RNG wraps math/rand with the sampling helpers the simulators need.
// Experiments always construct it from an explicit seed so every table and
// figure is reproducible run to run.
type RNG struct{ *rand.Rand }

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{rand.New(rand.NewSource(seed))}
}

// Split derives an independent child generator; stream i is stable for a
// given parent seed regardless of how many values the parent has produced
// before or after the call.
func (r *RNG) Split(i int64) *RNG {
	const golden = int64(0x9e3779b97f4a7c15 & 0x7fffffffffffffff)
	return NewRNG(r.Int63() ^ (i * golden))
}

// Normal fills dst with N(mu, sigma²) samples.
func (r *RNG) Normal(dst []float64, mu, sigma float64) {
	for i := range dst {
		dst[i] = mu + float64(sigma*r.NormFloat64())
	}
}

// NormalVec allocates and fills a length-n N(mu, sigma²) vector.
func (r *RNG) NormalVec(n int, mu, sigma float64) []float64 {
	dst := make([]float64, n)
	r.Normal(dst, mu, sigma)
	return dst
}

// Perm wraps rand.Perm for symmetry with the other helpers.
func (r *RNG) Perm(n int) []int { return r.Rand.Perm(n) }

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.Float64() < p }
