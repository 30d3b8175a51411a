package dataset

import (
	"math"
	"testing"
	"testing/quick"

	"digfl/internal/tensor"
)

func TestSubsetAndClone(t *testing.T) {
	d := SynthImages(ImageConfig{Name: "t", N: 20, Side: 4, Classes: 3, Noise: 0.5, Seed: 1})
	s := d.Subset([]int{5, 0, 7})
	if s.Len() != 3 || s.Dim() != 16 {
		t.Fatalf("subset shape %d×%d", s.Len(), s.Dim())
	}
	if s.Y[0] != d.Y[5] || s.Y[1] != d.Y[0] {
		t.Fatal("subset labels wrong")
	}
	c := d.Clone()
	c.X.Set(0, 0, 999)
	c.Y[0] = 999
	if d.X.At(0, 0) == 999 || d.Y[0] == 999 {
		t.Fatal("Clone must not alias")
	}
}

func TestSplitDisjointAndComplete(t *testing.T) {
	d := SynthImages(ImageConfig{Name: "t", N: 100, Side: 4, Classes: 2, Noise: 0.5, Seed: 2})
	train, val := d.Split(0.25, tensor.NewRNG(3))
	if val.Len() != 25 || train.Len() != 75 {
		t.Fatalf("split sizes %d/%d", train.Len(), val.Len())
	}
}

func TestSplitInvalidFraction(t *testing.T) {
	d := SynthImages(ImageConfig{Name: "t", N: 10, Side: 4, Classes: 2, Noise: 0.5, Seed: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Split(1.0, tensor.NewRNG(1))
}

func TestConcat(t *testing.T) {
	a := SynthImages(ImageConfig{Name: "t", N: 10, Side: 4, Classes: 2, Noise: 0.5, Seed: 4})
	b := SynthImages(ImageConfig{Name: "t", N: 6, Side: 4, Classes: 2, Noise: 0.5, Seed: 5})
	c := a.Concat(b)
	if c.Len() != 16 {
		t.Fatalf("Concat len %d", c.Len())
	}
	if c.Y[10] != b.Y[0] || c.X.At(10, 3) != b.X.At(0, 3) {
		t.Fatal("Concat rows misplaced")
	}
}

func TestTaskAndLabels(t *testing.T) {
	r := SynthTabular(TabularConfig{Name: "r", N: 10, D: 3, Task: Regression, Informative: 2, Noise: 0.1, Seed: 1})
	if r.Task() != Regression || r.Classes != 0 {
		t.Fatal("regression dataset misclassified")
	}
	c := SynthTabular(TabularConfig{Name: "c", N: 10, D: 3, Task: Classification, Informative: 2, Noise: 0.1, Seed: 1})
	if c.Task() != Classification || c.Classes != 2 {
		t.Fatal("classification dataset misclassified")
	}
	for _, l := range c.Labels() {
		if l != 0 && l != 1 {
			t.Fatalf("binary label %d", l)
		}
	}
}

func TestSynthImagesClassStructure(t *testing.T) {
	d := SynthImages(ImageConfig{Name: "t", N: 400, Side: 6, Classes: 4, Noise: 0.3, Seed: 7})
	hist := ClassHistogram(d)
	for c, n := range hist {
		if n < 50 {
			t.Fatalf("class %d underrepresented: %d", c, n)
		}
	}
	// Same-class pairs must be closer than cross-class pairs on average.
	var same, cross float64
	var ns, nc int
	for i := 0; i < 100; i++ {
		for j := i + 1; j < 100; j++ {
			dist := tensor.Norm2(tensor.Sub(d.X.Row(i), d.X.Row(j)))
			if d.Y[i] == d.Y[j] {
				same += dist
				ns++
			} else {
				cross += dist
				nc++
			}
		}
	}
	if same/float64(ns) >= cross/float64(nc) {
		t.Fatal("class prototypes carry no structure")
	}
}

func TestSynthImagesDeterministic(t *testing.T) {
	a := MNISTLike(50, 9)
	b := MNISTLike(50, 9)
	for i := range a.X.Data {
		if a.X.Data[i] != b.X.Data[i] {
			t.Fatal("same seed must give identical data")
		}
	}
}

func TestImagePresets(t *testing.T) {
	cases := []struct {
		d       Dataset
		classes int
	}{
		{MNISTLike(30, 1), 10},
		{CIFARLike(30, 1), 10},
		{MOTORLike(30, 1), 2},
		{REALLike(30, 1), 10},
	}
	for _, c := range cases {
		if c.d.Classes != c.classes {
			t.Fatalf("%s classes = %d, want %d", c.d.Name, c.d.Classes, c.classes)
		}
		if c.d.Dim() != 64 {
			t.Fatalf("%s dim = %d", c.d.Name, c.d.Dim())
		}
	}
}

func TestSynthTabularInformativeSignal(t *testing.T) {
	d := SynthTabular(TabularConfig{Name: "t", N: 2000, D: 6, Task: Regression, Informative: 3, Noise: 0.1, Seed: 11})
	// Correlation of y with informative columns must dominate noise columns.
	corr := func(j int) float64 {
		col := make([]float64, d.Len())
		for i := range col {
			col[i] = d.X.At(i, j)
		}
		var cxy, cxx, cyy float64
		my := tensor.Mean(d.Y)
		for i := range col {
			cxy += float64(col[i] * (d.Y[i] - my))
			cxx += float64(col[i] * col[i])
			cyy += float64((d.Y[i] - my) * (d.Y[i] - my))
		}
		return math.Abs(cxy / math.Sqrt(cxx*cyy))
	}
	maxNoise := math.Max(math.Max(corr(3), corr(4)), corr(5))
	// At least one informative column should be clearly stronger.
	best := math.Max(math.Max(corr(0), corr(1)), corr(2))
	if best < 2*maxNoise {
		t.Fatalf("informative columns not dominant: best=%.3f noise=%.3f", best, maxNoise)
	}
}

func TestVFLPresets(t *testing.T) {
	ps := VFLPresets(0.1)
	if len(ps) != 10 {
		t.Fatalf("want 10 presets, got %d", len(ps))
	}
	linreg, logreg := 0, 0
	for _, p := range ps {
		d := SynthTabular(p.Config)
		if d.Len() < 60 {
			t.Fatalf("%s too small: %d", p.Config.Name, d.Len())
		}
		if p.Parties > d.Dim() {
			t.Fatalf("%s: %d parties > %d features", p.Config.Name, p.Parties, d.Dim())
		}
		if p.LogReg {
			logreg++
			if d.Classes != 2 {
				t.Fatalf("%s must be binary", p.Config.Name)
			}
		} else {
			linreg++
			if d.Classes != 0 {
				t.Fatalf("%s must be regression", p.Config.Name)
			}
		}
	}
	if linreg != 5 || logreg != 5 {
		t.Fatalf("preset split %d/%d, want 5/5", linreg, logreg)
	}
}

func TestPartitionIID(t *testing.T) {
	d := MNISTLike(103, 21)
	parts := PartitionIID(d, 5, tensor.NewRNG(3))
	total := 0
	for _, p := range parts {
		total += p.Len()
		if p.Len() < 20 || p.Len() > 21 {
			t.Fatalf("uneven shard %d", p.Len())
		}
	}
	if total != 103 {
		t.Fatalf("shards cover %d of 103 samples", total)
	}
}

// Property: IID partition always covers the dataset exactly once.
func TestPartitionIIDCoversProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%6 + 1
		d := MNISTLike(60, seed)
		parts := PartitionIID(d, n, tensor.NewRNG(seed))
		total := 0
		for _, p := range parts {
			total += p.Len()
		}
		return total == 60
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionNonIID(t *testing.T) {
	d := MNISTLike(1000, 22)
	parts := PartitionNonIID(d, NonIIDConfig{N: 5, M: 2}, tensor.NewRNG(4))
	if len(parts) != 5 {
		t.Fatalf("got %d parts", len(parts))
	}
	// The last two participants must miss at least one class.
	for i := 3; i < 5; i++ {
		if got := len(DistinctClasses(parts[i])); got >= 10 {
			t.Fatalf("non-IID participant %d has all %d classes", i, got)
		}
	}
	// The IID participants should see most classes.
	for i := 0; i < 3; i++ {
		if got := len(DistinctClasses(parts[i])); got < 8 {
			t.Fatalf("IID participant %d has only %d classes", i, got)
		}
	}
}

func TestMislabel(t *testing.T) {
	d := MNISTLike(200, 23)
	m := Mislabel(d, 0.5, tensor.NewRNG(5))
	changed := 0
	for i := range d.Y {
		if d.Y[i] != m.Y[i] {
			changed++
		}
	}
	if changed != 100 {
		t.Fatalf("changed %d labels, want 100 (mislabeled labels are always different)", changed)
	}
	for _, y := range m.Y {
		if y < 0 || y >= 10 {
			t.Fatalf("label out of range: %v", y)
		}
	}
}

// Property: Mislabel(frac) changes exactly ⌊frac·n⌋ labels to different values.
func TestMislabelExactCountProperty(t *testing.T) {
	f := func(seed int64, fRaw uint8) bool {
		frac := float64(fRaw%101) / 100
		d := MOTORLike(80, seed)
		m := Mislabel(d, frac, tensor.NewRNG(seed+1))
		changed := 0
		for i := range d.Y {
			if d.Y[i] != m.Y[i] {
				changed++
			}
		}
		return changed == int(80*frac)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFlipLabels(t *testing.T) {
	d := MNISTLike(200, 29)
	f := FlipLabels(d, 0.5, tensor.NewRNG(8))
	changed := 0
	for i := range d.Y {
		if d.Y[i] != f.Y[i] {
			changed++
			if int(f.Y[i]) != (int(d.Y[i])+1)%10 {
				t.Fatalf("flip must be deterministic +1: %v -> %v", d.Y[i], f.Y[i])
			}
		}
	}
	if changed != 100 {
		t.Fatalf("changed %d labels, want 100", changed)
	}
}

func TestFlipLabelsPanics(t *testing.T) {
	reg := SynthTabular(TabularConfig{Name: "r", N: 10, D: 2, Task: Regression, Informative: 1, Noise: 0.1, Seed: 1})
	for i, fn := range []func(){
		func() { FlipLabels(reg, 0.5, tensor.NewRNG(1)) },
		func() { FlipLabels(MNISTLike(10, 1), -0.1, tensor.NewRNG(1)) },
	} {
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

func TestNoisyTargets(t *testing.T) {
	d := SynthTabular(TabularConfig{Name: "t", N: 100, D: 4, Task: Regression, Informative: 4, Noise: 0.1, Seed: 31})
	nd := NoisyTargets(d, 0.3, 5, tensor.NewRNG(6))
	changed := 0
	for i := range d.Y {
		if d.Y[i] != nd.Y[i] {
			changed++
		}
	}
	if changed == 0 || changed > 30 {
		t.Fatalf("changed %d targets", changed)
	}
}

func TestScrambleFeaturesPreservesMarginal(t *testing.T) {
	d := SynthTabular(TabularConfig{Name: "t", N: 50, D: 4, Task: Regression, Informative: 4, Noise: 0.1, Seed: 32})
	s := ScrambleFeatures(d, []int{1}, tensor.NewRNG(7))
	var sumOrig, sumNew float64
	for i := 0; i < d.Len(); i++ {
		sumOrig += d.X.At(i, 1)
		sumNew += s.X.At(i, 1)
	}
	if math.Abs(sumOrig-sumNew) > 1e-9 {
		t.Fatal("scramble must permute, not alter, the column")
	}
	// Untouched column identical.
	for i := 0; i < d.Len(); i++ {
		if d.X.At(i, 0) != s.X.At(i, 0) {
			t.Fatal("unscrambled column changed")
		}
	}
}

func TestVerticalBlocks(t *testing.T) {
	blocks := VerticalBlocks(10, 3)
	if len(blocks) != 3 {
		t.Fatalf("got %d blocks", len(blocks))
	}
	covered := 0
	for i, b := range blocks {
		if b.Size() < 3 || b.Size() > 4 {
			t.Fatalf("block %d size %d", i, b.Size())
		}
		covered += b.Size()
		if i > 0 && blocks[i-1].Hi != b.Lo {
			t.Fatal("blocks must tile contiguously")
		}
	}
	if covered != 10 {
		t.Fatalf("blocks cover %d of 10", covered)
	}
}

func TestPanics(t *testing.T) {
	d := MNISTLike(10, 1)
	reg := SynthTabular(TabularConfig{Name: "r", N: 10, D: 2, Task: Regression, Informative: 1, Noise: 0.1, Seed: 1})
	cases := []func(){
		func() { PartitionIID(d, 0, tensor.NewRNG(1)) },
		func() { PartitionIID(d, 11, tensor.NewRNG(1)) },
		func() { PartitionNonIID(reg, NonIIDConfig{N: 2, M: 1}, tensor.NewRNG(1)) },
		func() { Mislabel(reg, 0.5, tensor.NewRNG(1)) },
		func() { Mislabel(d, 1.5, tensor.NewRNG(1)) },
		func() { NoisyTargets(d, 0.5, 1, tensor.NewRNG(1)) },
		func() { ScrambleFeatures(d, []int{99}, tensor.NewRNG(1)) },
		func() { VerticalBlocks(3, 5) },
		func() { SynthImages(ImageConfig{N: 0, Side: 4, Classes: 2}) },
		func() { SynthTabular(TabularConfig{N: 5, D: 2, Informative: 3}) },
		func() { d.Concat(reg) },
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
