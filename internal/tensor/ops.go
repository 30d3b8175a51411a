package tensor

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b, which must have equal length.
// Each product is rounded before its add: the float64 conversion forbids
// the fused multiply-add the Go spec otherwise lets a compiler emit (arm64's
// does), so Dot, Dot4, DotAdd, DotAdd4 and Dot4xN's AVX2 tile add the same
// terms on every host. Every other product this package adds to a sum —
// AXPY, AXPY4, Norm2, MatTMat, RNG.Normal — is rounded the same way.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += float64(v * b[i])
	}
	return s
}

// AXPY computes y += alpha·x in place.
func AXPY(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: AXPY length mismatch %d vs %d", len(x), len(y)))
	}
	if alpha == 0 {
		return
	}
	for i, v := range x {
		y[i] += float64(alpha * v)
	}
}

// DotAdd returns the inner product a·x and computes y += x in place, in one
// pass over x — the streaming fold's per-update step, which would otherwise
// read each delta twice. The two results carry exactly the bits of Dot(a, x)
// and AXPY(1, x, y): the sum accumulates in index order, and 1·v is v.
func DotAdd(a, x, y []float64) float64 {
	if len(a) != len(x) || len(y) != len(x) {
		panic(fmt.Sprintf("tensor: DotAdd length mismatch %d, %d, %d", len(a), len(x), len(y)))
	}
	a, y = a[:len(x)], y[:len(x)]
	var s float64
	for i, v := range x {
		s += float64(a[i] * v)
		y[i] += v
	}
	return s
}

// Dot4 returns the inner products of four rows with one shared vector x in a
// single pass. A lone Dot waits on its own previous add; four independent
// sums overlap in the core's pipeline. Each lane accumulates from zero in
// index order, so it carries exactly the bits of Dot(r, x): interleaving
// several reductions reorders none of them.
func Dot4(r0, r1, r2, r3, x []float64) (s0, s1, s2, s3 float64) {
	n := len(x)
	if len(r0) != n || len(r1) != n || len(r2) != n || len(r3) != n {
		panic(fmt.Sprintf("tensor: Dot4 length mismatch %d, %d, %d, %d vs %d", len(r0), len(r1), len(r2), len(r3), n))
	}
	for i, v := range x {
		s0 += float64(r0[i] * v)
		s1 += float64(r1[i] * v)
		s2 += float64(r2[i] * v)
		s3 += float64(r3[i] * v)
	}
	return
}

// Scale multiplies x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Scaled returns a freshly allocated alpha·x.
func Scaled(alpha float64, x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = alpha * v
	}
	return out
}

// Add returns a+b, allocating the result.
func Add(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Add length mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i, v := range a {
		out[i] = v + b[i]
	}
	return out
}

// Sub returns a−b, allocating the result.
func Sub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Sub length mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i, v := range a {
		out[i] = v - b[i]
	}
	return out
}

// Clone returns a copy of x.
func Clone(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// Zero sets every element of x to 0.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += float64(v * v)
	}
	return math.Sqrt(s)
}

// NormInf returns the max-absolute-value norm of x.
func NormInf(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Sum returns the sum of the elements of x.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	return Sum(x) / float64(len(x))
}

// Argmax returns the index of the largest element; −1 for an empty slice.
func Argmax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i, v := range x {
		if v > x[best] {
			best = i
		}
	}
	return best
}

// MaskOther zeroes every coordinate of x outside [lo, hi), in place. It is
// the diag(v̄_z) projection from Lemma 2 for a contiguous coordinate block.
func MaskOther(x []float64, lo, hi int) {
	for i := range x {
		if i < lo || i >= hi {
			x[i] = 0
		}
	}
}
