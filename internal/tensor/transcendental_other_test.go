//go:build !amd64

package tensor

// mathExpPlain reports whether math.Exp runs amd64's plain sequence, the one
// Exp reproduces: never off amd64.
func mathExpPlain() bool { return false }
