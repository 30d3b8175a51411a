package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	if p := Pearson(x, y); math.Abs(p-1) > 1e-12 {
		t.Fatalf("Pearson = %v, want 1", p)
	}
	z := []float64{-1, -2, -3, -4}
	if p := Pearson(x, z); math.Abs(p+1) > 1e-12 {
		t.Fatalf("Pearson = %v, want -1", p)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}) != 0 {
		t.Fatal("zero-variance series must give 0")
	}
	if Pearson([]float64{1}, []float64{1}) != 0 {
		t.Fatal("length<2 must give 0")
	}
	if Pearson([]float64{1, 2}, []float64{1, 2, 3}) != 0 {
		t.Fatal("length mismatch must give 0")
	}
}

func TestPearsonHandComputed(t *testing.T) {
	// x = [1,2,3], y = [1,3,2]: r = 0.5
	if p := Pearson([]float64{1, 2, 3}, []float64{1, 3, 2}); math.Abs(p-0.5) > 1e-12 {
		t.Fatalf("Pearson = %v, want 0.5", p)
	}
}

// Property: Pearson is invariant under positive affine transformations.
func TestPearsonAffineInvariance(t *testing.T) {
	f := func(seed int64, a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.Abs(a) > 1e3 || a <= 0.01 {
			a = 2
		}
		if math.IsNaN(b) || math.IsInf(b, 0) || math.Abs(b) > 1e3 {
			b = 1
		}
		rng := newRand(seed)
		x := make([]float64, 10)
		y := make([]float64, 10)
		for i := range x {
			x[i] = rng()
			y[i] = rng()
		}
		p1 := Pearson(x, y)
		xs := make([]float64, len(x))
		for i := range x {
			xs[i] = float64(a*x[i]) + b
		}
		p2 := Pearson(xs, y)
		return math.Abs(p1-p2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: |Pearson| ≤ 1.
func TestPearsonBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRand(seed)
		x := make([]float64, 8)
		y := make([]float64, 8)
		for i := range x {
			x[i] = rng()
			y[i] = rng()
		}
		p := Pearson(x, y)
		return p >= -1-1e-12 && p <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// newRand is a tiny xorshift so the property tests do not depend on package
// tensor (keeping metrics dependency-free).
func newRand(seed int64) func() float64 {
	s := uint64(seed)*2685821657736338717 + 1
	return func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(s%10000)/5000 - 1
	}
}

func TestSpearmanMonotone(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{1, 4, 9, 16, 25} // monotone but nonlinear
	if p := Spearman(x, y); math.Abs(p-1) > 1e-12 {
		t.Fatalf("Spearman = %v, want 1", p)
	}
}

func TestSpearmanTies(t *testing.T) {
	x := []float64{1, 1, 2}
	y := []float64{3, 3, 5}
	if p := Spearman(x, y); math.Abs(p-1) > 1e-12 {
		t.Fatalf("Spearman with ties = %v, want 1", p)
	}
}

func TestRelErr(t *testing.T) {
	if e := RelErr(2, 1.9); math.Abs(e-0.05) > 1e-12 {
		t.Fatalf("RelErr = %v, want 0.05", e)
	}
	if e := RelErr(0, 0.3); math.Abs(e-0.3) > 1e-12 {
		t.Fatalf("RelErr(0, .3) = %v, want 0.3", e)
	}
}

func TestMeanAbsErr(t *testing.T) {
	if e := MeanAbsErr([]float64{1, 2}, []float64{2, 4}); e != 1.5 {
		t.Fatalf("MeanAbsErr = %v, want 1.5", e)
	}
	if MeanAbsErr(nil, nil) != 0 {
		t.Fatal("empty MeanAbsErr must be 0")
	}
}

func TestAccuracy(t *testing.T) {
	if a := Accuracy([]int{1, 2, 3, 4}, []int{1, 2, 0, 4}); a != 0.75 {
		t.Fatalf("Accuracy = %v, want 0.75", a)
	}
}

func TestCostAccumulation(t *testing.T) {
	var c Cost
	c.Add(Cost{Wall: time.Second, Retrains: 3, UtilityEvals: 7, ExtraBytes: 16})
	c.AddFloats(2)
	if c.Wall != time.Second || c.Retrains != 3 || c.UtilityEvals != 7 {
		t.Fatalf("Cost = %+v", c)
	}
	if c.ExtraBytes != 32 {
		t.Fatalf("ExtraBytes = %d, want 32", c.ExtraBytes)
	}
	if c.Seconds() != 1 {
		t.Fatalf("Seconds = %v", c.Seconds())
	}
	if s := c.String(); s == "" {
		t.Fatal("String must be non-empty")
	}
}

func TestStopwatch(t *testing.T) {
	sw := NewStopwatch()
	if sw.Elapsed() < 0 {
		t.Fatal("elapsed must be non-negative")
	}
}

func TestKendall(t *testing.T) {
	// Perfect agreement and perfect reversal.
	x := []float64{1, 2, 3, 4, 5}
	if got := Kendall(x, []float64{10, 20, 30, 40, 50}); got != 1 {
		t.Fatalf("monotone τ = %v, want 1", got)
	}
	if got := Kendall(x, []float64{5, 4, 3, 2, 1}); got != -1 {
		t.Fatalf("reversed τ = %v, want -1", got)
	}
	// Hand-computed: x = 1,2,3; y = 1,3,2 → pairs (1,2)C (1,3)C (2,3)D →
	// τ = (2-1)/3 = 1/3.
	if got, want := Kendall([]float64{1, 2, 3}, []float64{1, 3, 2}), 1.0/3; math.Abs(got-want) > 1e-15 {
		t.Fatalf("hand-computed τ = %v, want %v", got, want)
	}
	// τ-b with a tie in y: x = 1,2,3; y = 1,1,2 → C=2, D=0, tieY=1 →
	// τ = 2/sqrt(2·3).
	if got, want := Kendall([]float64{1, 2, 3}, []float64{1, 1, 2}), 2/math.Sqrt(6); math.Abs(got-want) > 1e-15 {
		t.Fatalf("tied τ-b = %v, want %v", got, want)
	}
	// Degenerate inputs.
	if got := Kendall([]float64{1, 2}, []float64{3}); got != 0 {
		t.Fatalf("length mismatch τ = %v", got)
	}
	if got := Kendall([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("constant-series τ = %v", got)
	}
}
