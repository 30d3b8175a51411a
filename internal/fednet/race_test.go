//go:build race

package fednet

// raceEnabled reports that the race detector is on: sync.Pool then drops
// items at random, so a zero-allocation gate on pooled buffers cannot hold.
const raceEnabled = true
