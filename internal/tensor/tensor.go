// Package tensor provides the dense linear-algebra kernels used by every
// other package in this repository: flat float64 vectors, row-major
// matrices, and the handful of BLAS-1/2 operations federated optimization
// needs. Everything is deterministic and allocation-conscious; there is no
// hidden parallelism so experiment timings are stable.
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

// MatTVec computes y = Mᵀ·x, allocating the result. len(x) must equal M.Rows.
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
				gi[j] += vi * row[j]
			}
		}
	}
	return g
}
