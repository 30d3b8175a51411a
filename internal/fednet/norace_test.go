//go:build !race

package fednet

const raceEnabled = false
