//go:build race

package paillier

// raceEnabled reports that the race detector is on: sync.Pool then drops
// items at random, so allocation ceilings on pooled scratch cannot hold.
const raceEnabled = true
