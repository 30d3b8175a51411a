package tensor

import "fmt"

// useAVX2 selects Dot4xN's assembly tile. It is set once, at init from
// CPUID and XGETBV on amd64, and is false elsewhere; the tests clear it to
// run the portable loop on the same inputs.
var useAVX2 bool

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
	for at, v := range z {
		if v != v {
			r, k := at/c, at%c
			z[at] = Dot(x[r*n:(r+1)*n], w[k*n:(k+1)*n])
		}
	}
}
