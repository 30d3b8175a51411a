// Package tensor provides the dense linear-algebra kernels used by every
// other package in this repository: flat float64 vectors, row-major
// matrices, and the handful of BLAS-1/2 operations federated optimization
// needs. Everything is deterministic and allocation-conscious; there is no
// hidden parallelism so experiment timings are stable.
//
// The softmax model's row-block kernels — Dot8xN and Dot4xN, its logits
// with their biases, and LogSumExp8, LogSumExp4, ExpShift8 and ExpShift4,
// its normaliser and softmax — share one class-major block layout and have
// three paths, chosen once at init from CPUID and XCR0: AVX-512F assembly
// on eight rows, AVX2 and FMA3 assembly on four, and portable loops. No
// path fuses a multiply-add but where Exp does, and a lane that ends NaN
// or leaves exp's fast path is taken again through Dot or LogSumExp, so
// every path gives the same bits.
//
// Exp, Log and Log1p are the repository's one exp, log and log1p: amd64's
// FMA math.Exp sequence in Go with math.FMA at its fused
// steps, and math.Log's with each product rounded, which the exp kernels
// reproduce lane for lane and every other package calls instead of math's,
// so no bit depends on the host's FMA or GOARCH.
package tensor

import "fmt"

// Matrix is a dense, row-major matrix. Data has length Rows*Cols and
// element (i, j) lives at Data[i*Cols+j]. The zero value is an empty matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid matrix shape %d×%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows, copying the data.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("tensor: ragged row %d: got %d values, want %d", i, len(r), cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// SelectRows returns a new matrix containing the given rows, in order.
func (m *Matrix) SelectRows(idx []int) *Matrix {
	out := NewMatrix(len(idx), m.Cols)
	for k, i := range idx {
		copy(out.Row(k), m.Row(i))
	}
	return out
}

// SelectCols returns a new matrix containing the given columns, in order.
func (m *Matrix) SelectCols(idx []int) *Matrix {
	out := NewMatrix(m.Rows, len(idx))
	for i := 0; i < m.Rows; i++ {
		src := m.Row(i)
		dst := out.Row(i)
		for k, j := range idx {
			dst[k] = src[j]
		}
	}
	return out
}

// String implements fmt.Stringer with a compact shape-first rendering.
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%d×%d)", m.Rows, m.Cols)
}

// MatVec computes y = M·x, allocating the result. len(x) must equal M.Cols.
func MatVec(m *Matrix, x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("tensor: MatVec shape mismatch: %d×%d · %d", m.Rows, m.Cols, len(x)))
	}
	y := make([]float64, m.Rows)
	MatVecTo(y, m.Data, x)
	return y
}

// MatVecTo computes dst[k] = w[k·n:(k+1)·n]·x with n = len(x) for the
// row-major len(dst)×n matrix w, four rows to a Dot4 pass. Two or three rows
// left over share a pass too, the last of them standing in for the rows past
// the end; every dst[k] carries the bits of Dot(row k, x).
func MatVecTo(dst, w, x []float64) {
	n, last := len(x), len(dst)-1
	if len(w) != len(dst)*n {
		panic(fmt.Sprintf("tensor: MatVecTo shape mismatch: %d values for %d×%d", len(w), len(dst), n))
	}
	var r [4][]float64
	var s [4]float64
	for k := 0; k <= last; k += 4 {
		for lane := range r {
			at := min(k+lane, last) * n
			r[lane] = w[at : at+n]
		}
		if k == last {
			dst[k] = Dot(r[0], x)
			break
		}
		s[0], s[1], s[2], s[3] = Dot4(r[0], r[1], r[2], r[3], x)
		copy(dst[k:], s[:])
	}
}

// MatTVec computes y = Mᵀ·x one AXPY per row into a fresh vector: MatTVecTo's
// sequential form, the test references' Xᵀr. len(x) must equal M.Rows.
func MatTVec(m *Matrix, x []float64) []float64 {
	if len(x) != m.Rows {
		panic(fmt.Sprintf("tensor: MatTVec shape mismatch: %d×%dᵀ · %d", m.Rows, m.Cols, len(x)))
	}
	y := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		AXPY(x[i], m.Row(i), y)
	}
	return y
}

// MatTMat computes AᵀA scaled by s, the Gram matrix used for exact
// regression Hessians.
func MatTMat(a *Matrix, s float64) *Matrix {
	g := NewMatrix(a.Cols, a.Cols)
	for r := 0; r < a.Rows; r++ {
		row := a.Row(r)
		for i := 0; i < a.Cols; i++ {
			vi := row[i] * s
			if vi == 0 {
				continue
			}
			gi := g.Row(i)
			for j := 0; j < a.Cols; j++ {
				gi[j] += float64(vi * row[j])
			}
		}
	}
	return g
}

// The row kernels below sum or dot a list of vectors four vectors to a pass,
// each result with the bits of the one-vector-at-a-time loop.

// MatTVecTo computes y = Mᵀ·x into the caller's length-M.Cols vector, four
// rows of M to an AXPY4 pass: y[j] carries the bits of MatTVec's, including
// the skip of a zero x[i].
func MatTVecTo(y []float64, m *Matrix, x []float64) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic(fmt.Sprintf("tensor: MatTVecTo shape mismatch: %d×%dᵀ · %d into %d", m.Rows, m.Cols, len(x), len(y)))
	}
	Zero(y)
	axpyTerms(len(x), func(i int) (float64, []float64) { return x[i], m.Row(i) }, y)
}

// DotRows computes dst[k] = Dot(a, rows[k]) for every row, four rows to a
// Dot4 pass; one to three rows left over take Dot itself. A lane accumulates
// from zero in index order, so a sum that is not NaN has Dot's bits (without
// NaNs, a product or a sum does not depend on its operands' order). Which
// of two NaNs a product or a sum keeps is the order the compiler gives the
// instruction's operands, and that differs between builds, so a lane that
// ends NaN is taken again by Dot.
func DotRows(dst, a []float64, rows [][]float64) {
	if len(dst) != len(rows) {
		panic(fmt.Sprintf("tensor: DotRows has %d slots for %d rows", len(dst), len(rows)))
	}
	k := 0
	for ; k+4 <= len(rows); k += 4 {
		dst[k], dst[k+1], dst[k+2], dst[k+3] = Dot4(rows[k], rows[k+1], rows[k+2], rows[k+3], a)
		for j := k; j < k+4; j++ {
			if dst[j] != dst[j] {
				dst[j] = Dot(a, rows[j])
			}
		}
	}
	for ; k < len(rows); k++ {
		dst[k] = Dot(a, rows[k])
	}
}

// AXPY4 computes y += a0·x0 + a1·x1 + a2·x2 + a3·x3 in place in one pass:
// each y[i] takes the four terms in order, which is exactly what four AXPY
// calls in sequence leave, but y is read and written once. Unlike AXPY it
// adds a zero coefficient's term (0·Inf is NaN, −0 + 0·x is +0); AXPYRows
// skips those.
func AXPY4(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64) {
	n := len(y)
	if len(x0) != n || len(x1) != n || len(x2) != n || len(x3) != n {
		panic(fmt.Sprintf("tensor: AXPY4 length mismatch %d, %d, %d, %d vs %d", len(x0), len(x1), len(x2), len(x3), n))
	}
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	for i, v := range y {
		v += float64(a0 * x0[i])
		v += float64(a1 * x1[i])
		v += float64(a2 * x2[i])
		v += float64(a3 * x3[i])
		y[i] = v
	}
}

// AXPYRows computes y += Σ_k a[k]·rows[k] in place with the bits of
// AXPY(a[k], rows[k], y) for k in order.
func AXPYRows(a []float64, rows [][]float64, y []float64) {
	if len(a) != len(rows) {
		panic(fmt.Sprintf("tensor: AXPYRows has %d coefficients for %d rows", len(a), len(rows)))
	}
	axpyTerms(len(rows), func(k int) (float64, []float64) { return a[k], rows[k] }, y)
}

// axpyTerms adds the n terms c·x that term(k) names to y, in order. A zero
// coefficient's term is skipped exactly as AXPY skips it, so a 0 weight on an
// Inf row stays a no-op; the others go four to an AXPY4 pass, and one to
// three left over through AXPY.
func axpyTerms(n int, term func(k int) (float64, []float64), y []float64) {
	var c [4]float64
	var x [4][]float64
	j := 0
	for k := 0; k < n; k++ {
		ck, xk := term(k)
		if len(xk) != len(y) {
			panic(fmt.Sprintf("tensor: AXPY length mismatch %d vs %d", len(xk), len(y)))
		}
		if ck == 0 {
			continue
		}
		c[j], x[j] = ck, xk
		if j++; j == 4 {
			AXPY4(c[0], c[1], c[2], c[3], x[0], x[1], x[2], x[3], y)
			j = 0
		}
	}
	for k := 0; k < j; k++ {
		AXPY(c[k], x[k], y)
	}
}

// DotAdd4 is four DotAdd calls in one pass: it returns a·x0 … a·x3 and
// computes y += x0 + x1 + x2 + x3 in place, each y[i] taking the four terms
// in order — the bits four DotAdd calls in sequence leave. Each lane
// accumulates from zero in index order, so a dot that is not NaN has Dot's
// bits; a lane that ends NaN is taken again by Dot, as in DotRows.
func DotAdd4(a, x0, x1, x2, x3, y []float64) (s0, s1, s2, s3 float64) {
	n := len(y)
	if len(a) != n || len(x0) != n || len(x1) != n || len(x2) != n || len(x3) != n {
		panic(fmt.Sprintf("tensor: DotAdd4 length mismatch: a %d, x %v, y %d", len(a), [4]int{len(x0), len(x1), len(x2), len(x3)}, n))
	}
	a, x0, x1, x2, x3 = a[:n], x0[:n], x1[:n], x2[:n], x3[:n]
	for i, v := range y {
		s0 += float64(a[i] * x0[i])
		s1 += float64(a[i] * x1[i])
		s2 += float64(a[i] * x2[i])
		s3 += float64(a[i] * x3[i])
		v += x0[i]
		v += x1[i]
		v += x2[i]
		v += x3[i]
		y[i] = v
	}
	if s0 != s0 {
		s0 = Dot(a, x0)
	}
	if s1 != s1 {
		s1 = Dot(a, x1)
	}
	if s2 != s2 {
		s2 = Dot(a, x2)
	}
	if s3 != s3 {
		s3 = Dot(a, x3)
	}
	return
}
