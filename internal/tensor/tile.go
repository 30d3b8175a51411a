package tensor

import "fmt"

// useAVX2 selects Dot4xN's assembly tile and the exp kernels of LogSumExp4
// and ExpShift4, and useAVX512 Dot8xN's tile and LogSumExp8's kernel. Each
// is set once, at init from CPUID and XGETBV on amd64, and is false
// elsewhere; the tests clear them to run the narrower kernels and the
// portable loops on the same inputs.
var useAVX2, useAVX512 bool

// Dot4xN computes the products of a four-row block x, row-major 4×n, with
// every row of w, row-major C×n: z[r·C+k] = Dot(x_r, w_k), for the
// C = len(z)/4 rows of w. It is the softmax model's logit block, one call
// per four validation rows.
//
// On an amd64 CPU with AVX2 one assembly kernel computes the block: the
// four rows are the lanes of a ymm register, four classes to a pass (a tail
// of 1–3 classes runs the same pass with the missing classes reading the
// last row and stores only its own), w_k[i] broadcast to all four lanes,
// each lane a separate multiply and add accumulating from zero in index
// order — no fused multiply-add — so a sum that is not NaN has Dot's bits.
// Elsewhere Dot4 takes the four rows against one class at a time. On both
// paths a lane that ends NaN, whose payload is the instruction's operand
// order, is taken again through Dot, so every z carries Dot's bits; the
// tile reports whether any lane can be NaN, so a finite block skips the
// look.
func Dot4xN(z, x, w []float64) {
	n, c := len(x)/4, len(z)/4
	if len(x) != 4*n || len(z) != 4*c || len(w) != c*n {
		panic(fmt.Sprintf("tensor: Dot4xN shape mismatch: %d values for 4 rows, %d for 4×C, %d weights", len(x), len(z), len(w)))
	}
	if useAVX2 && n > 0 && c > 0 {
		if !dot4xNAVX2(&z[0], &x[0], &w[0], n, c) {
			return
		}
	} else {
		x0, x1, x2, x3 := x[:n], x[n:2*n], x[2*n:3*n], x[3*n:]
		for k := 0; k < c; k++ {
			z[k], z[c+k], z[2*c+k], z[3*c+k] = Dot4(x0, x1, x2, x3, w[k*n:(k+1)*n])
		}
	}
	retakeNaNs(z, x, w, n, c)
}

// retakeNaNs takes every NaN logit z[r·C+k] of a block again through Dot of
// row r of x and class row k of w, each n long.
func retakeNaNs(z, x, w []float64, n, c int) {
	for at, v := range z {
		if v != v {
			r, k := at/c, at%c
			z[at] = Dot(x[r*n:(r+1)*n], w[k*n:(k+1)*n])
		}
	}
}

// Dot8xN is Dot4xN for an eight-row block x, row-major 8×n: z[r·C+k] =
// Dot(x_r, w_k) for the C = len(z)/8 rows of w, the softmax model's logit
// block, one call per eight validation rows.
//
// On an amd64 CPU with AVX-512F one assembly kernel computes the block: the
// eight rows are the lanes of a zmm register, transposed in from four
// columns at a time, and up to sixteen classes a pass each accumulate in
// their own register, w_k[i] broadcast to all eight lanes, each lane a
// separate multiply and add from zero in index order — no fused
// multiply-add — so a sum that is not NaN has Dot's bits, and x is read once
// per pass of classes. Elsewhere it is two Dot4xN calls, on the AVX2 tile
// or the portable loop. A lane that ends NaN is taken again through Dot, as
// in Dot4xN.
func Dot8xN(z, x, w []float64) {
	n, c := len(x)/8, len(z)/8
	if len(x) != 8*n || len(z) != 8*c || len(w) != c*n {
		panic(fmt.Sprintf("tensor: Dot8xN shape mismatch: %d values for 8 rows, %d for 8×C, %d weights", len(x), len(z), len(w)))
	}
	if !useAVX512 || n == 0 || c == 0 {
		Dot4xN(z[:4*c], x[:4*n], w)
		Dot4xN(z[4*c:], x[4*n:], w)
		return
	}
	if dot8xNAVX512(&z[0], &x[0], &w[0], n, c) {
		retakeNaNs(z, x, w, n, c)
	}
}

// LogSumExp returns log Σ exp(z_k) computed stably. The maximum's own term
// is exp(0) = 1 and is added as such, at its place in the sum; the test is on
// the difference, so an all-+Inf row still sums exp(NaN).
func LogSumExp(z []float64) float64 {
	m := z[0]
	for _, v := range z[1:] {
		if v > m {
			m = v
		}
	}
	var s float64
	for _, v := range z {
		if d := v - m; d == 0 {
			s++
		} else {
			s += Exp(d)
		}
	}
	return m + Log(s)
}

// LogSumExp4 sets lse[r] = LogSumExp(z[r·C:(r+1)·C]) for the four rows of
// the block z, row-major 4×C: the softmax model's normaliser, one call per
// four validation rows.
//
// On amd64 with AVX2 one assembly kernel takes the four rows as the lanes of
// a ymm register: each lane's maximum in class order, then its sum of
// exp(z_k − m) from zero in class order, then one log, with Exp's and Log's
// own operations in their own order, so every lane has LogSumExp's bits. A
// row whose exps leave Exp's fast path — a non-finite difference, one above
// its overflow bound, or one below about −708.75, where it takes its
// denormal branch — or whose sum is not a positive normal number is taken
// again through LogSumExp.
func LogSumExp4(lse *[4]float64, z []float64) {
	c := len(z) / 4
	if c == 0 || len(z) != 4*c {
		panic(fmt.Sprintf("tensor: LogSumExp4 of %d values, not four rows of C ≥ 1", len(z)))
	}
	retake := 0xf
	if useAVX2 {
		retake = logSumExp4AVX2(lse, &z[0], c)
	}
	retakeRows(lse[:], z, retake)
}

// retakeRows sets lse[r] = LogSumExp of row r of the block z for every row
// r whose bit is set in retake.
func retakeRows(lse, z []float64, retake int) {
	c := len(z) / len(lse)
	for r := range lse {
		if retake>>r&1 != 0 {
			lse[r] = LogSumExp(z[r*c : (r+1)*c])
		}
	}
}

// LogSumExp8 sets lse[r] = LogSumExp(z[r·C:(r+1)·C]) for the eight rows of
// the block z, row-major 8×C: LogSumExp4 for Dot8xN's block.
//
// On amd64 with AVX-512F one assembly kernel runs LogSumExp4's over eight
// lanes: the same maxima, exps and log — Exp's and Log's own operations —
// and the same rows retaken through LogSumExp. Elsewhere it is two
// LogSumExp4 calls.
func LogSumExp8(lse *[8]float64, z []float64) {
	c := len(z) / 8
	if c == 0 || len(z) != 8*c {
		panic(fmt.Sprintf("tensor: LogSumExp8 of %d values, not eight rows of C ≥ 1", len(z)))
	}
	if !useAVX512 {
		LogSumExp4((*[4]float64)(lse[:4]), z[:4*c])
		LogSumExp4((*[4]float64)(lse[4:]), z[4*c:])
		return
	}
	retakeRows(lse[:], z, logSumExp8AVX512(lse, &z[0], c))
}

// ExpShift4 replaces every value of the block z, row-major 4×C, by
// Exp(z[r·C+k] − shift[r]): with shift the rows' LogSumExp4, the block's
// softmax. The AVX2 kernel runs LogSumExp4's exp a column of four lanes at a
// time and stops at the first column with a lane off Exp's fast path; Exp
// finishes the block from there.
func ExpShift4(z []float64, shift *[4]float64) {
	c := len(z) / 4
	if c == 0 || len(z) != 4*c {
		panic(fmt.Sprintf("tensor: ExpShift4 of %d values, not four rows of C ≥ 1", len(z)))
	}
	done := 0
	if useAVX2 {
		done = expShift4AVX2(&z[0], c, shift)
	}
	for r, sr := range shift {
		row := z[r*c+done : (r+1)*c]
		for k, v := range row {
			row[k] = Exp(v - sr)
		}
	}
}
