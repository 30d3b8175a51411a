package tensor

import (
	"fmt"
	"math"
	"testing"
)

// The sequential loops the row kernels replace, kept here as their
// references: one AXPY per row in order, one Dot per row.

func seqAXPYRows(a []float64, rows [][]float64, y []float64) {
	for k, r := range rows {
		AXPY(a[k], r, y)
	}
}

func seqDotRows(dst, a []float64, rows [][]float64) {
	for k, r := range rows {
		dst[k] = Dot(a, r)
	}
}

var (
	nanA = math.Float64frombits(0x7ff8000000000a0a) // two quiet NaNs with
	nanB = math.Float64frombits(0x7ff80000000b0b0b) // distinct payloads
	neg0 = math.Copysign(0, -1)
)

// bitsDiff describes the first coordinate at which got and want differ in
// their bits, or returns "" when none does. With anyNaN, every NaN matches
// every NaN.
func bitsDiff(got, want []float64, anyNaN bool) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d, want %d", len(got), len(want))
	}
	for i, g := range got {
		gb, wb := math.Float64bits(g), math.Float64bits(want[i])
		if gb != wb && !(anyNaN && g != g && want[i] != want[i]) {
			return fmt.Sprintf("[%d] = %v (%#x), want %v (%#x)", i, g, gb, want[i], wb)
		}
	}
	return ""
}

// rowSpecials extends kernelSpecials with −0 accumulators against +0 and −0
// terms. Each case plants one kind of special value, so no AXPY sum meets two
// NaNs of distinct payloads: which one survives is the add instruction's
// operand order, as TestDotAddMatchesDotAndAXPY notes. Two NaNs meeting in
// one product are TestRowKernelsNaNPayloads'.
var rowSpecials = func() map[string][]float64 {
	m := map[string][]float64{"±0 terms": {neg0, 0, neg0, neg0}}
	for name, s := range kernelSpecials {
		m[name] = s
	}
	return m
}()

// rowsCase builds the inputs of one table case: count rows of length n with
// the special values planted (rotated so that they meet different partners),
// count coefficients drawn from the same specials, and an accumulator. Rows
// at k ≡ 2 mod 3 get a zero coefficient — −0 on every other one — and, when
// the case has specials, carry them at every index, so a skipped term that
// was not skipped shows.
func rowsCase(count, n int, special []float64) (a []float64, rows [][]float64, y []float64) {
	w, x := kernelRows(count+1, n, special...)
	y = rotated(x, 1)
	rng := NewRNG(int64(31*count + n))
	for k := 0; k < count; k++ {
		rows = append(rows, w[k*n:(k+1)*n])
		c := rng.NormFloat64()
		switch {
		case k%3 == 2:
			c = 0
			if k%2 == 1 {
				c = neg0
			}
			for i := range rows[k] {
				if len(special) > 0 {
					rows[k][i] = special[i%len(special)]
				}
			}
		case len(special) > 0 && k%4 == 1:
			c = special[k%len(special)]
		}
		a = append(a, c)
	}
	return a, rows, y
}

// TestAXPY4MatchesAXPY: one pass with four terms per coordinate leaves the
// bits of four AXPY calls in sequence, through every special value —
// including a zero coefficient, which AXPY4 (unlike AXPY) multiplies out.
func TestAXPY4MatchesAXPY(t *testing.T) {
	for name, special := range rowSpecials {
		for _, n := range []int{0, 1, 3, 4, 5, 7, 64, 2000} {
			a, rows, y := rowsCase(4, n, special)
			a[2] = 1.5 // rowsCase zeroes it; AXPY would skip it
			want := Clone(y)
			seqAXPYRows(a, rows, want)
			AXPY4(a[0], a[1], a[2], a[3], rows[0], rows[1], rows[2], rows[3], y)
			if d := bitsDiff(y, want, false); d != "" {
				t.Errorf("%s n=%d: AXPY4 against four AXPYs: %s", name, n, d)
			}
		}
	}
}

// TestAXPYRowsMatchesAXPY covers every split of 0…9 rows into four-term
// passes, zero-coefficient skips and a tail of 1…3.
func TestAXPYRowsMatchesAXPY(t *testing.T) {
	for name, special := range rowSpecials {
		for _, n := range []int{1, 7, 64} {
			for count := 0; count <= 9; count++ {
				a, rows, y := rowsCase(count, n, special)
				want := Clone(y)
				seqAXPYRows(a, rows, want)
				if AXPYRows(a, rows, y); bitsDiff(y, want, false) != "" {
					t.Errorf("%s %d×%d: AXPYRows against AXPY row by row: %s", name, count, n, bitsDiff(y, want, false))
				}
			}
		}
	}
}

// TestAXPYRowsZeroAccumulator: a −0 accumulator stays −0 under −0 terms and
// under skipped zero coefficients, and turns +0 under a +0 term, as it does
// under AXPY.
func TestAXPYRowsZeroAccumulator(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		a    []float64
		rows [][]float64
	}{
		{[]float64{1, 1, 1, 1, 1}, [][]float64{{neg0}, {neg0}, {neg0}, {neg0}, {neg0}}},
		{[]float64{1, 1, 1, 1, 1}, [][]float64{{neg0}, {neg0}, {0}, {neg0}, {neg0}}},
		{[]float64{neg0, 0, neg0, 0, 0}, [][]float64{{inf}, {math.NaN()}, {-inf}, {1}, {nanA}}},
		{[]float64{0, 2, 0, 2, 0, 2, 0, 2}, [][]float64{{inf}, {neg0}, {nanB}, {neg0}, {1}, {neg0}, {-inf}, {neg0}}},
	} {
		y, want := []float64{neg0}, []float64{neg0}
		seqAXPYRows(tc.a, tc.rows, want)
		if AXPYRows(tc.a, tc.rows, y); !sameBits(y, want) {
			t.Errorf("a=%v rows=%v: AXPYRows %v (%#x), AXPY %v (%#x)", tc.a, tc.rows,
				y[0], math.Float64bits(y[0]), want[0], math.Float64bits(want[0]))
		}
	}
}

// TestMatTVecToMatchesAXPY: Mᵀx four rows to a pass carries the bits of the
// row-by-row AXPY loop, whatever the caller's vector held before.
func TestMatTVecToMatchesAXPY(t *testing.T) {
	for name, special := range rowSpecials {
		for _, n := range []int{1, 7, 64} {
			for count := 0; count <= 9; count++ {
				x, rows, y := rowsCase(count, n, special)
				m := NewMatrix(count, n)
				for k, r := range rows {
					copy(m.Row(k), r)
				}
				want := make([]float64, n)
				seqAXPYRows(x, rows, want)
				if MatTVecTo(y, m, x); bitsDiff(y, want, false) != "" {
					t.Errorf("%s %d×%d: MatTVecTo against AXPY row by row: %s", name, count, n, bitsDiff(y, want, false))
				}
				if got := MatTVec(m, x); bitsDiff(got, want, false) != "" {
					t.Errorf("%s %d×%d: MatTVec against AXPY row by row: %s", name, count, n, bitsDiff(got, want, false))
				}
			}
		}
	}
}

// TestDotRowsMatchesDot: every slot carries Dot(a, row)'s bits over every
// split of 0…9 rows into four-row passes — with NaNs of distinct payloads
// meeting in products and in sums too, since a NaN lane is Dot's own.
func TestDotRowsMatchesDot(t *testing.T) {
	specials := map[string][]float64{"NaN payloads": {nanA, nanB}}
	for name, s := range rowSpecials {
		specials[name] = s
	}
	for name, special := range specials {
		for _, n := range []int{0, 1, 7, 64, 2000} {
			for count := 0; count <= 9; count++ {
				_, rows, a := rowsCase(count, n, special)
				if len(special) > 0 && n > 0 {
					a[0] = special[len(special)-1] // meets rows[k][0], a special too
				}
				want := make([]float64, count)
				seqDotRows(want, a, rows)
				got := make([]float64, count)
				if DotRows(got, a, rows); bitsDiff(got, want, false) != "" {
					t.Errorf("%s %d×%d: DotRows against Dot row by row: %s", name, count, n, bitsDiff(got, want, false))
				}
			}
		}
	}
}

// TestRowKernelsNaNPayloads: where two NaNs of distinct payloads meet in one
// product — a coefficient and its row's element, the shared vector's element
// and a row's — every kernel keeps the payload its sequential loop keeps, in
// each lane of a four-term pass and in the tail.
func TestRowKernelsNaNPayloads(t *testing.T) {
	const n = 5
	for count := 1; count <= 9; count++ {
		for k := 0; k < count; k++ {
			j := k % n
			a, rows, y := rowsCase(count, n, nil)
			a[k], rows[k][j] = nanA, nanB
			want := Clone(y)
			seqAXPYRows(a, rows, want)
			if AXPYRows(a, rows, y); bitsDiff(y, want, false) != "" {
				t.Errorf("%d rows, NaNs in row %d: AXPYRows against AXPY row by row: %s", count, k, bitsDiff(y, want, false))
			}
			m := NewMatrix(count, n)
			for r, row := range rows {
				copy(m.Row(r), row)
			}
			want = make([]float64, n)
			seqAXPYRows(a, rows, want)
			if MatTVecTo(y, m, a); bitsDiff(y, want, false) != "" {
				t.Errorf("%d rows, NaNs in row %d: MatTVecTo against AXPY row by row: %s", count, k, bitsDiff(y, want, false))
			}
			_, rows, x := rowsCase(count, n, nil)
			x[j], rows[k][j] = nanA, nanB
			dots, wantDots := make([]float64, count), make([]float64, count)
			seqDotRows(wantDots, x, rows)
			if DotRows(dots, x, rows); bitsDiff(dots, wantDots, false) != "" {
				t.Errorf("%d rows, NaNs in row %d: DotRows against Dot row by row: %s", count, k, bitsDiff(dots, wantDots, false))
			}
		}
	}
}

func TestRowKernelsLengthMismatchPanics(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	vec := func(n int) []float64 { return make([]float64, n) }
	for short := 0; short < 5; short++ {
		v := [5][]float64{vec(3), vec(3), vec(3), vec(3), vec(3)}
		v[short] = v[short][:2]
		mustPanic(fmt.Sprintf("AXPY4 with operand %d short", short), func() { AXPY4(1, 1, 1, 1, v[0], v[1], v[2], v[3], v[4]) })
	}
	for short := 0; short < 6; short++ {
		v := [6][]float64{vec(3), vec(3), vec(3), vec(3), vec(3), vec(3)}
		v[short] = v[short][:2]
		mustPanic(fmt.Sprintf("DotAdd4 with operand %d short", short), func() { DotAdd4(v[0], v[1], v[2], v[3], v[4], v[5]) })
	}
	for count := 1; count <= 5; count++ {
		for short := 0; short < count; short++ {
			rows := make([][]float64, count)
			for k := range rows {
				rows[k] = vec(3)
			}
			rows[short] = vec(2)
			zeros := vec(count)
			// A zero coefficient does not excuse a short row, as in AXPY.
			mustPanic(fmt.Sprintf("AXPYRows, %d rows, row %d short", count, short), func() { AXPYRows(zeros, rows, vec(3)) })
			mustPanic(fmt.Sprintf("DotRows, %d rows, row %d short", count, short), func() { DotRows(vec(count), vec(3), rows) })
		}
	}
	mustPanic("AXPYRows with 2 coefficients for 3 rows", func() { AXPYRows(vec(2), [][]float64{vec(1), vec(1), vec(1)}, vec(1)) })
	mustPanic("DotRows with 2 slots for 3 rows", func() { DotRows(vec(2), vec(1), [][]float64{vec(1), vec(1), vec(1)}) })
	mustPanic("MatTVecTo with a short x", func() { MatTVecTo(vec(3), NewMatrix(2, 3), vec(1)) })
	mustPanic("MatTVecTo into a short y", func() { MatTVecTo(vec(2), NewMatrix(2, 3), vec(2)) })
}

// TestRowKernelsAllocateNothing: the four-term staging lives on the stack.
func TestRowKernelsAllocateNothing(t *testing.T) {
	a, rows, y := rowsCase(9, 64, nil)
	m := NewMatrix(9, 64)
	dst := make([]float64, 9)
	for name, f := range map[string]func(){
		"AXPYRows":  func() { AXPYRows(a, rows, y) },
		"MatTVecTo": func() { MatTVecTo(y, m, a) },
		"DotRows":   func() { DotRows(dst, y, rows) },
		"DotAdd4":   func() { DotAdd4(rows[4], rows[0], rows[1], rows[2], rows[3], y) },
	} {
		if allocs := testing.AllocsPerRun(50, f); allocs != 0 {
			t.Errorf("%s allocates %v times a call, want 0", name, allocs)
		}
	}
}

// FuzzAXPYRows draws rows, coefficients (zeros among them) and an
// accumulator from the seed and raw bit patterns, and holds AXPYRows and
// DotRows to their sequential loops. Two drawn NaNs may meet in one of
// AXPYRows' sums, so there any NaN matches any NaN; DotRows is held to the
// bit.
func FuzzAXPYRows(f *testing.F) {
	for _, seed := range []int64{1, 2, 3} {
		f.Add(seed, uint8(5), uint8(7), uint64(0x7ff8000000000001), uint64(0))
		f.Add(seed, uint8(8), uint8(3), uint64(0x7ff0000000000000), uint64(0x8000000000000000))
	}
	f.Add(int64(4), uint8(3), uint8(1), uint64(1), uint64(0xfff0000000000000))
	f.Fuzz(func(t *testing.T, seed int64, count, n uint8, bitsA, bitsB uint64) {
		count, n = count%13, n%17
		rng := NewRNG(seed)
		sp := []float64{math.Float64frombits(bitsA), math.Float64frombits(bitsB)}
		pick := func() float64 {
			switch r := rng.Intn(8); r {
			case 0, 1:
				return sp[r]
			case 2:
				return 0
			}
			return rng.NormFloat64()
		}
		a, y := make([]float64, count), make([]float64, n)
		rows := make([][]float64, count)
		for k := range rows {
			a[k] = pick()
			rows[k] = make([]float64, n)
			for i := range rows[k] {
				rows[k][i] = pick()
			}
		}
		for i := range y {
			y[i] = pick()
		}
		want := Clone(y)
		seqAXPYRows(a, rows, want)
		if AXPYRows(a, rows, y); bitsDiff(y, want, true) != "" {
			t.Fatalf("AXPYRows against AXPY row by row: %s", bitsDiff(y, want, true))
		}
		dots, wantDots := make([]float64, count), make([]float64, count)
		seqDotRows(wantDots, want, rows)
		if DotRows(dots, want, rows); bitsDiff(dots, wantDots, false) != "" {
			t.Fatalf("DotRows against Dot row by row: %s", bitsDiff(dots, wantDots, false))
		}
	})
}

// BenchmarkAXPYRows64x2000 is the buffered round's weighted aggregate: 64
// deltas of the reference cell's model size summed into one vector.
func BenchmarkAXPYRows64x2000(b *testing.B) {
	a, rows, y := rowsCase(64, 2000, nil)
	for k := range a {
		a[k] = 1 / 64.0
	}
	want, got := Clone(y), Clone(y)
	seqAXPYRows(a, rows, want)
	if AXPYRows(a, rows, got); !sameBits(got, want) {
		b.Fatal("AXPYRows differs from the row-by-row reference")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AXPYRows(a, rows, y)
	}
}

// BenchmarkMatTVec32x2000 is the Xᵀr under a validation gradient: 32 rows of
// 2000 features.
func BenchmarkMatTVec32x2000(b *testing.B) {
	const rows, n = 32, 2000
	w, x := kernelRows(rows, n)
	m := &Matrix{Rows: rows, Cols: n, Data: w}
	r := rotated(x, 5)[:rows]
	want := make([]float64, n)
	for i := 0; i < rows; i++ {
		AXPY(r[i], m.Row(i), want)
	}
	got := make([]float64, n)
	if MatTVecTo(got, m, r); !sameBits(got, want) {
		b.Fatal("MatTVecTo differs from the row-by-row reference")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatTVecTo(got, m, r)
	}
}
