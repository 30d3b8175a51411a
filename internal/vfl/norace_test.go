//go:build !race

package vfl

const raceEnabled = false
