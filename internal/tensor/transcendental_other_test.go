//go:build !amd64

package tensor

// mathExpFused reports whether math.Exp runs amd64's FMA sequence, the one
// Exp reproduces: never off amd64.
func mathExpFused() bool { return false }
