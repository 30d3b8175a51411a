package tensor

import "fmt"

// useAVX2 selects Dot4xN's assembly tile and the exp kernels of LogSumExp4
// and ExpShift4, and useAVX512 Dot8xN's tile and the kernels of LogSumExp8
// and ExpShift8. Each is set once, at init from CPUID and XGETBV on amd64,
// and is false elsewhere; the tests clear them to run the narrower kernels
// and the portable loops on the same inputs.
//
// Every block the kernels share is class-major, the layout their registers
// hold: a block of R rows and C classes keeps row r's logit of class k at
// z[k·R+r], so a class is R consecutive values and one vector load or store.
var useAVX2, useAVX512 bool

// Dot4xN computes the logits of a four-row block x, row-major 4×n, against
// every row of w, row-major C×n, with the C biases b, class-major: z[k·4+r]
// = Dot(x_r, w_k) + b_k. It is the softmax model's logit block, one call per
// four validation rows.
//
// On an amd64 CPU with AVX2 one assembly kernel computes the block: the
// four rows are the lanes of a ymm register, four classes to a pass (a tail
// of 1–3 classes runs the same pass with the missing classes reading the
// last row and stores only its own), w_k[i] broadcast to all four lanes,
// each lane a separate multiply and add accumulating from zero in index
// order — no fused multiply-add — and the bias added last, one rounded add,
// so a logit that is not NaN has Dot's bits plus b_k. Elsewhere Dot4 takes
// the four rows against one class at a time. On both paths a lane that ends
// NaN, whose payload is the instruction's operand order, is taken again
// through Dot, so every z carries the same bits; the tile reports whether
// any lane can be NaN, so a finite block skips the look.
func Dot4xN(z, x, w, b []float64) {
	n, c := len(x)/4, len(b)
	if len(x) != 4*n || len(z) != 4*c || len(w) != c*n {
		panic(fmt.Sprintf("tensor: Dot4xN shape mismatch: %d values for 4 rows, %d for 4×C, %d weights, %d biases", len(x), len(z), len(w), c))
	}
	dot4xN(z, x, w, b, 4)
}

// dot4xN is Dot4xN into a block whose classes are s values apart: z[k·s+r]
// for the four rows r of x, so that two calls fill an eight-row block.
func dot4xN(z, x, w, b []float64, s int) {
	n, c := len(x)/4, len(b)
	if useAVX2 && n > 0 && c > 0 {
		if !dot4xNAVX2(&z[0], &x[0], &w[0], &b[0], n, c, s) {
			return
		}
	} else {
		x0, x1, x2, x3 := x[:n], x[n:2*n], x[2*n:3*n], x[3*n:]
		for k, bk := range b {
			z0, z1, z2, z3 := Dot4(x0, x1, x2, x3, w[k*n:(k+1)*n])
			zk := z[k*s : k*s+4]
			zk[0], zk[1], zk[2], zk[3] = z0+bk, z1+bk, z2+bk, z3+bk
		}
	}
	retakeNaNs(z, x, w, b, 4, s)
}

// retakeNaNs takes every NaN logit z[k·s+r] of the block's rows r < rows
// again, as Dot of row r of x and class row k of w plus b_k.
func retakeNaNs(z, x, w, b []float64, rows, s int) {
	n := len(x) / rows
	for k, bk := range b {
		for r, v := range z[k*s : k*s+rows] {
			if v != v {
				z[k*s+r] = Dot(x[r*n:(r+1)*n], w[k*n:(k+1)*n]) + bk
			}
		}
	}
}

// Dot8xN is Dot4xN for an eight-row block x, row-major 8×n: z[k·8+r] =
// Dot(x_r, w_k) + b_k for the C = len(b) rows of w, the softmax model's
// logit block, one call per eight validation rows.
//
// On an amd64 CPU with AVX-512F one assembly kernel computes the block: the
// eight rows are the lanes of a zmm register, transposed in from four
// columns at a time, and up to sixteen classes a pass each accumulate in
// their own register, w_k[i] broadcast to all eight lanes, each lane a
// separate multiply and add from zero in index order — no fused
// multiply-add — then b_k added, and each class stored as one zmm; x is
// read once per pass of classes. Elsewhere it is two Dot4xN tiles, on the
// AVX2 tile or the portable loop, each filling four lanes of every class. A
// lane that ends NaN is taken again through Dot, as in Dot4xN.
func Dot8xN(z, x, w, b []float64) {
	n, c := len(x)/8, len(b)
	if len(x) != 8*n || len(z) != 8*c || len(w) != c*n {
		panic(fmt.Sprintf("tensor: Dot8xN shape mismatch: %d values for 8 rows, %d for 8×C, %d weights, %d biases", len(x), len(z), len(w), c))
	}
	if useAVX512 && n > 0 && c > 0 {
		if dot8xNAVX512(&z[0], &x[0], &w[0], &b[0], n, c) {
			retakeNaNs(z, x, w, b, 8, 8)
		}
		return
	}
	dot4xN(z, x[:4*n], w, b, 8)
	dot4xN(z[4:], x[4*n:], w, b, 8)
}

// LogSumExp returns log Σ exp(z_k) computed stably. The maximum's own term
// is exp(0) = 1 and is added as such, at its place in the sum; the test is on
// the difference, so an all-+Inf row still sums exp(NaN).
func LogSumExp(z []float64) float64 { return logSumExp(z, len(z), 1) }

// logSumExp is LogSumExp of the c values z[0], z[s], …, z[(c−1)·s]: one row
// of a class-major block.
func logSumExp(z []float64, c, s int) float64 {
	m := z[0]
	for k := 1; k < c; k++ {
		if v := z[k*s]; v > m {
			m = v
		}
	}
	var sum float64
	for k := 0; k < c; k++ {
		if d := z[k*s] - m; d == 0 {
			sum++
		} else {
			sum += Exp(d)
		}
	}
	return m + Log(sum)
}

// LogSumExp4 sets lse[r] = LogSumExp of row r of the block z, class-major
// 4×C (z[k·4+r]): the softmax model's normaliser, one call per four
// validation rows.
//
// On amd64 with AVX2 one assembly kernel takes the four rows as the lanes of
// a ymm register, one load per class: each lane's maximum in class order,
// then its sum of exp(z_k − m) from zero in class order, then one log, with
// Exp's and Log's own operations in their own order, so every lane has
// LogSumExp's bits. A row whose exps leave Exp's fast path — a non-finite
// difference, one above its overflow bound, or one below about −708.75,
// where it takes its denormal branch — or whose sum is not a positive
// normal number is taken again through LogSumExp.
func LogSumExp4(lse *[4]float64, z []float64) {
	c := len(z) / 4
	if c == 0 || len(z) != 4*c {
		panic(fmt.Sprintf("tensor: LogSumExp4 of %d values, not four rows of C ≥ 1", len(z)))
	}
	logSumExp4(lse, z, c, 4)
}

// logSumExp4 is LogSumExp4 of the four rows at the front of a block whose c
// classes are s values apart.
func logSumExp4(lse *[4]float64, z []float64, c, s int) {
	retake := 0xf
	if useAVX2 {
		retake = logSumExp4AVX2(lse, &z[0], c, s)
	}
	retakeRows(lse[:], z, c, s, retake)
}

// retakeRows sets lse[r] = LogSumExp of row r of the block z, c classes s
// values apart, for every row r whose bit is set in retake.
func retakeRows(lse, z []float64, c, s, retake int) {
	for r := 0; retake != 0; r, retake = r+1, retake>>1 {
		if retake&1 != 0 {
			lse[r] = logSumExp(z[r:], c, s)
		}
	}
}

// LogSumExp8 sets lse[r] = LogSumExp of row r of the block z, class-major
// 8×C (z[k·8+r]): LogSumExp4 for Dot8xN's block.
//
// On amd64 with AVX-512F one assembly kernel runs LogSumExp4's over eight
// lanes: the same maxima, exps and log — Exp's and Log's own operations —
// and the same rows retaken through LogSumExp. Elsewhere it is LogSumExp4's
// kernel or loop on each half of every class.
func LogSumExp8(lse *[8]float64, z []float64) {
	c := len(z) / 8
	if c == 0 || len(z) != 8*c {
		panic(fmt.Sprintf("tensor: LogSumExp8 of %d values, not eight rows of C ≥ 1", len(z)))
	}
	if !useAVX512 {
		logSumExp4((*[4]float64)(lse[:4]), z, c, 8)
		logSumExp4((*[4]float64)(lse[4:]), z[4:], c, 8)
		return
	}
	retakeRows(lse[:], z, c, 8, logSumExp8AVX512(lse, &z[0], c))
}

// ExpShift4 replaces every value of the block z, class-major 4×C, by
// Exp(z[k·4+r] − shift[r]): with shift the rows' LogSumExp4, the block's
// softmax. The AVX2 kernel runs LogSumExp4's exp a class of four lanes at a
// time and stops at the first class with a lane off Exp's fast path; Exp
// finishes the block from there.
func ExpShift4(z []float64, shift *[4]float64) {
	c := len(z) / 4
	if c == 0 || len(z) != 4*c {
		panic(fmt.Sprintf("tensor: ExpShift4 of %d values, not four rows of C ≥ 1", len(z)))
	}
	expShift4(z, c, 4, shift)
}

// expShift4 is ExpShift4 on the four rows at the front of a block whose c
// classes are s values apart.
func expShift4(z []float64, c, s int, shift *[4]float64) {
	done := 0
	if useAVX2 {
		done = expShift4AVX2(&z[0], c, s, shift)
	}
	expShiftFrom(z, done, c, s, shift[:])
}

// expShiftFrom replaces the values of the block's rows r < len(shift) from
// class done on by Exp(z[k·s+r] − shift[r]).
func expShiftFrom(z []float64, done, c, s int, shift []float64) {
	for k := done; k < c; k++ {
		zk := z[k*s : k*s+len(shift)]
		for r, sr := range shift {
			zk[r] = Exp(zk[r] - sr)
		}
	}
}

// ExpShift8 is ExpShift4 for the block z, class-major 8×C: LogSumExp8's
// softmax. The AVX-512 kernel runs a class of eight lanes at a time and
// stops as ExpShift4's does; elsewhere it is ExpShift4's kernel or loop on
// each half of every class.
func ExpShift8(z []float64, shift *[8]float64) {
	c := len(z) / 8
	if c == 0 || len(z) != 8*c {
		panic(fmt.Sprintf("tensor: ExpShift8 of %d values, not eight rows of C ≥ 1", len(z)))
	}
	if !useAVX512 {
		expShift4(z, c, 8, (*[4]float64)(shift[:4]))
		expShift4(z[4:], c, 8, (*[4]float64)(shift[4:]))
		return
	}
	expShiftFrom(z, expShift8AVX512(&z[0], c, shift), c, 8, shift[:])
}
