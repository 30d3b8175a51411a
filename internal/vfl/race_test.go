//go:build race

package vfl

// raceEnabled reports that the race detector is on: sync.Pool then drops
// items at random, so allocation counts over pooled scratch cannot hold.
const raceEnabled = true
