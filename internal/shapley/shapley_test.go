package shapley

import (
	"math"
	"testing"
	"testing/quick"

	"digfl/internal/tensor"
)

// additiveGame returns a utility where V(S) = Σ_{i∈S} w_i; its Shapley
// values are exactly w.
func additiveGame(w []float64) Utility {
	return func(s []int) float64 {
		var v float64
		for _, i := range s {
			v += w[i]
		}
		return v
	}
}

// randomGame builds an arbitrary monotone-ish game from a seed via a value
// table over bitmasks.
func randomGame(n int, seed int64) Utility {
	rng := tensor.NewRNG(seed)
	table := make([]float64, 1<<uint(n))
	for mask := 1; mask < len(table); mask++ {
		table[mask] = rng.NormFloat64()
	}
	return func(s []int) float64 { return table[subsetToMask(s)] }
}

func TestExactAdditiveGame(t *testing.T) {
	w := []float64{3, -1, 0.5, 2}
	phi := Exact(4, additiveGame(w))
	for i := range w {
		if math.Abs(phi[i]-w[i]) > 1e-12 {
			t.Fatalf("phi[%d] = %v, want %v", i, phi[i], w[i])
		}
	}
}

func TestExactGloveGame(t *testing.T) {
	// Players 0,1 own left gloves, player 2 a right glove; V = matched pairs.
	u := func(s []int) float64 {
		var left, right int
		for _, i := range s {
			if i == 2 {
				right++
			} else {
				left++
			}
		}
		return float64(min(left, right))
	}
	phi := Exact(3, u)
	// Known result: φ = (1/6, 1/6, 4/6).
	want := []float64{1.0 / 6, 1.0 / 6, 4.0 / 6}
	for i := range want {
		if math.Abs(phi[i]-want[i]) > 1e-12 {
			t.Fatalf("glove phi = %v, want %v", phi, want)
		}
	}
}

// Property: efficiency — Σφ_i = V(N) − V(∅) for random games.
func TestExactEfficiencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		u := randomGame(5, seed)
		phi := Exact(5, u)
		total := u([]int{0, 1, 2, 3, 4}) - u(nil)
		var s float64
		for _, p := range phi {
			s += p
		}
		return math.Abs(s-total) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: symmetry — two players with identical marginals get equal value.
func TestExactSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		// Build a game that depends only on the coalition with players 0 and
		// 1 interchangeable: V(S) = f(|S∩{0,1}|, rest-mask).
		table := map[[2]uint64]float64{}
		u := func(s []int) float64 {
			var both uint64
			var rest uint64
			for _, i := range s {
				if i <= 1 {
					both++
				} else {
					rest |= 1 << uint(i)
				}
			}
			key := [2]uint64{both, rest}
			if v, ok := table[key]; ok {
				return v
			}
			v := rng.NormFloat64()
			table[key] = v
			return v
		}
		phi := Exact(4, u)
		return math.Abs(phi[0]-phi[1]) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: null player — a player that never changes the utility gets 0.
func TestExactNullPlayerProperty(t *testing.T) {
	f := func(seed int64) bool {
		inner := randomGame(3, seed)
		// Player 3 is null: V ignores it.
		u := func(s []int) float64 {
			var filtered []int
			for _, i := range s {
				if i != 3 {
					filtered = append(filtered, i)
				}
			}
			return inner(filtered)
		}
		phi := Exact(4, u)
		return math.Abs(phi[3]) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: linearity — Shapley(aU + bW) = a·Shapley(U) + b·Shapley(W).
func TestExactLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		u := randomGame(4, seed)
		w := randomGame(4, seed+1)
		a, b := 2.0, -0.5
		comb := func(s []int) float64 { return float64(a*u(s)) + float64(b*w(s)) }
		pu := Exact(4, u)
		pw := Exact(4, w)
		pc := Exact(4, comb)
		for i := range pc {
			if math.Abs(pc[i]-(float64(a*pu[i])+float64(b*pw[i]))) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoizedCaches(t *testing.T) {
	calls := 0
	u := func(s []int) float64 { calls++; return float64(len(s)) }
	mem := NewMemoized(4, u)
	mem.Value([]int{1, 3})
	mem.Value([]int{3, 1})
	mem.ValueMask(0b1010)
	if calls != 1 {
		t.Fatalf("utility called %d times, want 1", calls)
	}
	if mem.Evals != 1 {
		t.Fatalf("Evals = %d", mem.Evals)
	}
}

func TestCounter(t *testing.T) {
	c := &Counter{U: additiveGame([]float64{1, 2})}
	c.Call([]int{0})
	c.Call([]int{0, 1})
	if c.Evals != 2 {
		t.Fatalf("Evals = %d", c.Evals)
	}
}

func TestTMCConvergesOnAdditiveGame(t *testing.T) {
	w := []float64{2, -1, 0.5, 1.5, 0}
	phi, evals := TMC(5, additiveGame(w), TMCConfig{MaxEvals: 3000, RNG: tensor.NewRNG(1)})
	if evals > 3000 {
		t.Fatalf("budget exceeded: %d", evals)
	}
	for i := range w {
		if math.Abs(phi[i]-w[i]) > 0.15 {
			t.Fatalf("TMC phi = %v, want ≈ %v", phi, w)
		}
	}
}

func TestTMCMatchesExactOnRandomGame(t *testing.T) {
	u := randomGame(5, 99)
	exact := Exact(5, u)
	phi, _ := TMC(5, u, TMCConfig{MaxEvals: 32, Tolerance: 0, RNG: tensor.NewRNG(2)})
	// With all 32 coalitions memoized the permutation average converges to
	// exact; allow a loose tolerance because the permutation count is finite.
	for i := range exact {
		if math.Abs(phi[i]-exact[i]) > 0.6 {
			t.Fatalf("TMC phi[%d] = %v, exact %v", i, phi[i], exact[i])
		}
	}
}

func TestTMCTruncationSavesEvals(t *testing.T) {
	// A fully saturated game: V(S) = 1 for non-empty S. With truncation the
	// scan stops after the first member of each permutation.
	u := func(s []int) float64 {
		if len(s) == 0 {
			return 0
		}
		return 1
	}
	_, evalsTrunc := TMC(8, u, TMCConfig{MaxEvals: 60, Tolerance: 0.05, RNG: tensor.NewRNG(3)})
	if evalsTrunc > 12 {
		t.Fatalf("truncation should stop each permutation after one eval, used %d", evalsTrunc)
	}
}

func TestPermutationMC(t *testing.T) {
	w := []float64{1, 2, 3}
	phi, evals := PermutationMC(3, additiveGame(w), 200, tensor.NewRNG(4))
	if evals > 8 {
		t.Fatalf("3-player game has at most 8 coalitions, evaluated %d", evals)
	}
	for i := range w {
		if math.Abs(phi[i]-w[i]) > 1e-9 {
			// With memoization over all coalitions, the permutation average is
			// exact for additive games regardless of sampling noise.
			t.Fatalf("phi = %v, want %v", phi, w)
		}
	}
}

func TestGTEstimatesAdditiveGame(t *testing.T) {
	w := []float64{2, -1, 0.5, 1.5, 0, 1}
	phi, _ := GT(6, additiveGame(w), GTConfig{Samples: 20000, RNG: tensor.NewRNG(5)})
	for i := range w {
		if math.Abs(phi[i]-w[i]) > 0.25 {
			t.Fatalf("GT phi = %v, want ≈ %v", phi, w)
		}
	}
}

func TestGTEfficiencyHoldsByConstruction(t *testing.T) {
	u := randomGame(5, 7)
	phi, _ := GT(5, u, GTConfig{Samples: 200, RNG: tensor.NewRNG(6)})
	total := u([]int{0, 1, 2, 3, 4}) - u(nil)
	var s float64
	for _, p := range phi {
		s += p
	}
	if math.Abs(s-total) > 1e-9 {
		t.Fatalf("GT violates efficiency: Σφ = %v, total %v", s, total)
	}
}

func TestBudgets(t *testing.T) {
	if BudgetTMC(10) != int64(100*tensor.Log(10)) {
		t.Fatalf("BudgetTMC(10) = %d", BudgetTMC(10))
	}
	if BudgetGT(10) != int(10*tensor.Log(10)*tensor.Log(10)) {
		t.Fatalf("BudgetGT(10) = %d", BudgetGT(10))
	}
	if BudgetTMC(1) != 1 || BudgetGT(1) != 1 {
		t.Fatal("budgets must be at least n")
	}
}

func TestPanics(t *testing.T) {
	u := additiveGame([]float64{1, 2})
	cases := []func(){
		func() { Exact(0, u) },
		func() { Exact(21, u) },
		func() { NewMemoized(0, u) },
		func() { TMC(2, u, TMCConfig{MaxEvals: 0, RNG: tensor.NewRNG(1)}) },
		func() { TMC(2, u, TMCConfig{MaxEvals: 5}) },
		func() { GT(2, u, GTConfig{Samples: 0, RNG: tensor.NewRNG(1)}) },
		func() { GT(1, u, GTConfig{Samples: 5, RNG: tensor.NewRNG(1)}) },
		func() { PermutationMC(2, u, 0, tensor.NewRNG(1)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
