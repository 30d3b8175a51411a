package paillier

import (
	"fmt"
	"math/big"
	"sync"

	"digfl/internal/parallel"
)

// dotWindow is the digit width of the exponentiation kernel: an exponent is
// cut into odd digits below 2^dotWindow, and every ciphertext row carries
// its odd powers c, c³, …, c^(2^dotWindow−1). Building a row costs one
// squaring and dotOdd products; a term then costs one product per digit,
// bits/(dotWindow+1) on average, in every column that uses the row. For
// Algorithm 3's ~36-bit multipliers 4 is the best width at three columns
// (30 products per row against 31 at 3 and 34 at 5) and within one product
// of the best at one.
const (
	dotWindow = 4
	dotOdd    = 1<<(dotWindow-1) - 1 // stored powers per row: c³ … c^(2^dotWindow−1)
)

// scratch holds the temporaries of in-place modular arithmetic — mulMod's
// product t, quotient estimate d and d·μ or d·n² in e — and x and y, two
// operands of the caller's that mulMod never writes.
type scratch struct{ t, d, e, x, y big.Int }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// mulMod sets z = x·y mod n²; z may alias either factor. The reduction is
// Barrett's (DESIGN.md § Paillier products): with L = bitlen(n²) and
// t = x·y < 2^(2L), q = ⌊⌊t/2^(L−1)⌋·μ/2^(L+1)⌋ undershoots ⌊t/n²⌋ by at most
// two, so t − q·n² is t mod n² after at most two subtractions — three
// multiplications in place of a long division. A negative or longer t — only
// a ciphertext outside [0, n²) handed to a public operation makes one — takes
// the long division and its truncated remainder, as every product once did.
// Every temporary is the scratch's own: nothing is allocated once it is grown.
func (pk *PublicKey) mulMod(z, x, y *big.Int, s *scratch) {
	mu, l := pk.barrett(), uint(pk.N2.BitLen())
	t := s.t.Mul(x, y)
	if t.Sign() < 0 || uint(t.BitLen()) > 2*l {
		s.d.QuoRem(t, pk.N2, z)
		return
	}
	q := s.d.Rsh(t, l-1)
	q.Rsh(s.e.Mul(q, mu), l+1)
	z.Sub(t, s.e.Mul(q, pk.N2))
	for z.Cmp(pk.N2) >= 0 {
		z.Sub(z, pk.N2)
	}
}

// barrett returns μ = ⌊2^(2L)/n²⌋, L = bitlen(n²), built on first use: an
// (L+1)-bit constant of the key.
func (pk *PublicKey) barrett() *big.Int {
	pk.brOnce.Do(func() {
		l := uint(pk.N2.BitLen())
		pk.br.Quo(pk.br.Lsh(one, 2*l), pk.N2)
	})
	return &pk.br
}

// DotTable is the working set of the exponentiation kernel: the odd powers
// of one ciphertext vector and one slot of accumulators and scratch per
// task. The zero value is ready. A table serves one call at a time and
// keeps what it has grown to, so whoever runs many products — a secure VFL
// run — owns one and a warm call allocates nothing per row. It is owned,
// not pooled: a sync.Pool keeps a lone item in the private slot of the
// processor that put it, where no other processor finds it, and a caller
// that fans out between two uses has usually moved.
type DotTable struct {
	pows  []big.Int // pows[i·dotOdd+u−1] = cᵢ^(2u+1), u ≥ 1; cᵢ itself stays in its ciphertext
	tasks []dotTask
}

// dotTask is one column × row-chunk of a call: P and Q, the products of the
// chunk's positive and negative terms, and the exponents' digits. After the
// chunks are folded, a column's first task holds its P, Q and (in y) Q⁻¹.
type dotTask struct {
	scratch
	p, q big.Int
	hasQ bool
	// digits[b·rows+i] is the odd digit of row i whose lowest bit is bit b
	// of |kᵢ|, negated when kᵢ < 0, or 0.
	digits     []int8
	topP, topQ int // highest digit position of either sign, −1 for none
}

// grow sizes the table for rows ciphertexts and the given task count,
// keeping every big.Int it already holds.
func (tab *DotTable) grow(rows, tasks int) {
	if n := rows * dotOdd; n > len(tab.pows) {
		tab.pows = append(tab.pows, make([]big.Int, n-len(tab.pows))...)
	}
	if tasks > len(tab.tasks) {
		tab.tasks = append(tab.tasks, make([]dotTask, tasks-len(tab.tasks))...)
	}
}

// fillRow sets row i to the odd powers of c above the first.
func (pk *PublicKey) fillRow(tab *DotTable, i int, c *big.Int, s *scratch) {
	row := tab.pows[i*dotOdd : (i+1)*dotOdd]
	pk.mulMod(&s.x, c, c, s)
	prev := c
	for u := range row {
		pk.mulMod(&row[u], prev, &s.x, s)
		prev = &row[u]
	}
}

// load cuts the exponents of column j's rows [lo, hi) into digits, right to
// left: a digit starts at a set bit and takes the dotWindow bits from there,
// so it is odd and the zero bits between digits cost nothing.
func (k *dotTask) load(j, lo, hi int, exp func(j, i int, mag *big.Int) (neg bool)) {
	rows := hi - lo
	k.digits = k.digits[:0]
	k.topP, k.topQ = -1, -1
	mag := &k.x
	for i := lo; i < hi; i++ {
		neg := exp(j, i, mag)
		bits := mag.BitLen()
		if need := bits * rows; need > len(k.digits) {
			k.digits = append(k.digits, make([]int8, need-len(k.digits))...)
		}
		for b := 0; b < bits; {
			if mag.Bit(b) == 0 {
				b++
				continue
			}
			dg := int8(1)
			for u := 1; u < dotWindow; u++ {
				dg |= int8(mag.Bit(b+u)) << u
			}
			if neg {
				k.topQ = max(k.topQ, b)
				dg = -dg
			} else {
				k.topP = max(k.topP, b)
			}
			k.digits[b*rows+i-lo] = dg
			b += dotWindow
		}
	}
}

// chain sets z = Π cᵢ^{|kᵢ|} mod n² over the loaded rows of one sign and
// reports whether there was any such term. Straus interleaving: the rows
// share one squaring per exponent bit; each digit costs one product with
// its row's odd power.
func (pk *PublicKey) chain(z *big.Int, tab *DotTable, cts []*Ciphertext, lo, hi int, k *dotTask, neg bool) (any bool) {
	rows, top := hi-lo, k.topP
	if neg {
		top = k.topQ
	}
	for b := top; b >= 0; b-- {
		if any {
			pk.mulMod(z, z, z, &k.scratch)
		}
		for i, dg := range k.digits[b*rows : (b+1)*rows] {
			if dg == 0 || (dg < 0) != neg {
				continue
			}
			if neg {
				dg = -dg
			}
			x := cts[lo+i].C
			if dg > 1 {
				x = &tab.pows[(lo+i)*dotOdd+int(dg>>1)-1]
			}
			if any {
				pk.mulMod(z, z, x, &k.scratch)
			} else {
				z.Set(x)
				any = true
			}
		}
	}
	if !any {
		z.SetUint64(1)
	}
	return any
}

// dotChunks is how many row chunks a call of the given shape is cut into:
// the fewest that make columns × chunks a multiple of the worker budget, so
// no worker idles through the last tasks, and never more than one per row.
func dotChunks(rows, cols, workers int) int {
	w := parallel.Workers(workers)
	g := w
	for a := cols; a != 0; { // g = gcd(w, cols)
		g, a = a, g%a
	}
	return max(1, min(w/g, rows))
}

// dotCols is the one exponentiation kernel: for each of d columns it returns
// Π_i cᵢ^{k_ij} mod n², where exp(j, i, mag) sets mag = |k_ij| and reports
// k_ij < 0. The odd powers of every cᵢ are built once and shared by the
// columns; a column is evaluated as P·Q⁻¹, the negative terms raised to
// their short magnitudes into a product Q of their own (Dec(c⁻¹) = −Dec(c)),
// and the columns' Q are inverted together — prefix products, one
// ModInverse, peeled back. Rows are cut into chunks, each column × chunk a
// task run through each(n, fn); a chunk returns P_c and Q_c and the column
// multiplies them before it inverts, so the residue is P·Q⁻¹ whatever the
// chunking: a function of the ciphertexts and multipliers alone.
func (pk *PublicKey) dotCols(tab *DotTable, cts []*Ciphertext, d int, exp func(j, i int, mag *big.Int) (neg bool), workers int, each func(n int, fn func(t int))) []*Ciphertext {
	if each == nil {
		each = func(n int, fn func(int)) { parallel.For(n, workers, fn) }
	}
	m := len(cts)
	chunks := dotChunks(m, d, workers)
	tasks := d * chunks
	tab.grow(m, tasks)
	each(tasks, func(t int) {
		for i := t * m / tasks; i < (t+1)*m/tasks; i++ {
			pk.fillRow(tab, i, cts[i].C, &tab.tasks[t].scratch)
		}
	})
	each(tasks, func(t int) {
		j, c := t/chunks, t%chunks
		lo, hi := c*m/chunks, (c+1)*m/chunks
		k := &tab.tasks[t]
		k.load(j, lo, hi, exp)
		pk.chain(&k.p, tab, cts, lo, hi, k, false)
		k.hasQ = pk.chain(&k.q, tab, cts, lo, hi, k, true)
	})

	// Fold every column's chunks into its first task, and leave in y the
	// prefix product Q_0·…·Q_j (a column without negative terms has Q = 1).
	out := make([]*Ciphertext, d)
	anyQ := false
	for j := range out {
		k := &tab.tasks[j*chunks]
		for c := j*chunks + 1; c < (j+1)*chunks; c++ {
			pk.mulMod(&k.p, &k.p, &tab.tasks[c].p, &k.scratch)
			if tab.tasks[c].hasQ {
				pk.mulMod(&k.q, &k.q, &tab.tasks[c].q, &k.scratch)
				k.hasQ = true
			}
		}
		anyQ = anyQ || k.hasQ
		if j == 0 {
			k.y.Set(&k.q)
		} else {
			pk.mulMod(&k.y, &tab.tasks[(j-1)*chunks].y, &k.q, &k.scratch)
		}
	}
	if !anyQ {
		for j := range out {
			out[j] = &Ciphertext{C: new(big.Int).Set(&tab.tasks[j*chunks].p)}
		}
		return out
	}
	// One inversion for all columns: inv walks back from (Q_0·…·Q_{d−1})⁻¹,
	// and where it is (Q_0·…·Q_j)⁻¹, Q_j⁻¹ = inv·(Q_0·…·Q_{j−1}). Without
	// it some Q is not a unit mod n², which takes a ciphertext sharing a
	// factor with n, and every column is on its own.
	inv := &tab.tasks[0].x
	batch := inv.ModInverse(&tab.tasks[(d-1)*chunks].y, pk.N2) != nil
	for j := d - 1; j >= 0; j-- {
		k := &tab.tasks[j*chunks]
		c := new(big.Int) // escapes as the ciphertext
		out[j] = &Ciphertext{C: c}
		switch {
		case batch && j > 0:
			pk.mulMod(&k.y, inv, &tab.tasks[(j-1)*chunks].y, &k.scratch)
			pk.mulMod(inv, inv, &k.q, &k.scratch)
		case batch:
			k.y.Set(inv)
		case !k.hasQ:
			k.y.SetUint64(1)
		case k.y.ModInverse(&k.q, pk.N2) == nil:
			// The non-unit is in this column and nothing can be inverted:
			// raise the negative terms to the full-length n − |k| instead,
			// as the textbook cᵢ^{k mod n} would.
			k.load(j, 0, m, func(j, i int, mag *big.Int) bool {
				if exp(j, i, mag) {
					mag.Sub(pk.N, mag)
				}
				return false
			})
			pk.chain(c, tab, cts, 0, m, k, false)
			continue
		}
		pk.mulMod(c, &k.p, &k.y, &k.scratch)
	}
	return out
}

// DotPlain returns the encryption of Σ kᵢ·aᵢ given encryptions of the aᵢ
// and plaintext scalars kᵢ — Π cᵢ^{kᵢ} mod n², the one-column call of the
// kernel. A scalar above n/2 is a negative number under the signed
// encoding, so it is raised to the short |kᵢ| = n − kᵢ on the inverted side.
// The result decrypts to exactly what the term-by-term cᵢ^{kᵢ mod n}
// product decrypts to; the ciphertext differs from it by an
// encryption-of-zero factor. Only public values are involved — the
// exponents are the caller's own plaintexts. The call builds a DotTable of
// its own; a caller with many products holds one and uses DotPlainFloatCols.
func (pk *PublicKey) DotPlain(cts []*Ciphertext, ks []*big.Int) *Ciphertext {
	if len(cts) != len(ks) {
		panic(fmt.Sprintf("paillier: DotPlain length mismatch %d vs %d", len(cts), len(ks)))
	}
	half := new(big.Int).Rsh(pk.N, 1)
	return pk.dotCols(new(DotTable), cts, 1, func(_, i int, mag *big.Int) bool {
		if mag.Mod(ks[i], pk.N).Cmp(half) > 0 {
			mag.Sub(pk.N, mag)
			return true
		}
		return false
	}, 1, nil)[0]
}

// DotPlainFloatCols is Algorithm 3 step 4 for one party: cols holds
// len(cols)/len(cts) columns of plaintext multipliers, column j at
// cols[j·m : (j+1)·m], and element j of the result is the encryption of
// Σ_i cols[j·m+i]·aᵢ at fixed-point scale Scale². The signs and short
// magnitudes of the encoded multipliers go to the kernel directly instead
// of through a wrap mod n. tab is the caller's table (see DotTable);
// workers sizes the row chunks and each, when not nil, runs the tasks in
// place of parallel.For — a caller that reports its pool batches passes its
// own loop. The ciphertexts are the same bits for every worker count.
func (pk *PublicKey) DotPlainFloatCols(tab *DotTable, cts []*Ciphertext, cols []float64, workers int, each func(n int, fn func(t int))) []*Ciphertext {
	m := len(cts)
	if m == 0 && len(cols) == 0 {
		return nil
	}
	if m == 0 || len(cols)%m != 0 {
		panic(fmt.Sprintf("paillier: DotPlainFloatCols: %d multipliers do not make columns of %d", len(cols), m))
	}
	return pk.dotCols(tab, cts, len(cols)/m, func(j, i int, mag *big.Int) bool {
		return setScaled(mag, cols[j*m+i])
	}, workers, each)
}
