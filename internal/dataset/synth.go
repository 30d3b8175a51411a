package dataset

import (
	"fmt"

	"digfl/internal/tensor"
)

// ImageConfig parameterizes the Gaussian class-prototype image generator
// that stands in for MNIST / CIFAR10 / MOTOR / REAL.
type ImageConfig struct {
	Name    string
	N       int     // total samples
	Side    int     // image side length (single channel)
	Classes int     // number of classes
	Noise   float64 // per-pixel Gaussian noise around the class prototype
	Seed    int64
}

// SynthImages samples N images: a class label (uniform), then the class
// prototype plus i.i.d. pixel noise. Prototypes are fixed by the seed so
// every participant shard is drawn from the same class structure.
func SynthImages(cfg ImageConfig) Dataset {
	if cfg.N <= 0 || cfg.Side <= 0 || cfg.Classes <= 1 {
		panic(fmt.Sprintf("dataset: invalid image config %+v", cfg))
	}
	rng := tensor.NewRNG(cfg.Seed)
	dim := cfg.Side * cfg.Side
	protos := make([][]float64, cfg.Classes)
	for c := range protos {
		protos[c] = rng.NormalVec(dim, 0, 1)
	}
	x := tensor.NewMatrix(cfg.N, dim)
	y := make([]float64, cfg.N)
	for i := 0; i < cfg.N; i++ {
		c := rng.Intn(cfg.Classes)
		y[i] = float64(c)
		row := x.Row(i)
		copy(row, protos[c])
		for j := range row {
			row[j] += float64(cfg.Noise * rng.NormFloat64())
		}
	}
	return Dataset{Name: cfg.Name, X: x, Y: y, Classes: cfg.Classes}
}

// ImagePreset returns the generator configuration of the named stand-in for
// one of the paper's four HFL datasets (Table I) — its class count and
// pixel-noise level, scaled to simulator size — at n samples; ok is false
// for any other name.
func ImagePreset(name string, n int, seed int64) (cfg ImageConfig, ok bool) {
	cfg = ImageConfig{Name: name, N: n, Side: 8, Seed: seed}
	switch name {
	case "MNIST":
		cfg.Classes, cfg.Noise = 10, 0.7
	case "CIFAR10":
		cfg.Classes, cfg.Noise = 10, 1.1
	case "MOTOR":
		cfg.Classes, cfg.Noise = 2, 0.9
	case "REAL":
		cfg.Classes, cfg.Noise = 10, 1.3
	default:
		return cfg, false
	}
	return cfg, true
}

// MNISTLike is the 10-class stand-in for 𝒟_M.
func MNISTLike(n int, seed int64) Dataset {
	cfg, _ := ImagePreset("MNIST", n, seed)
	return SynthImages(cfg)
}

// CIFARLike is the noisier 10-class stand-in for 𝒟_C.
func CIFARLike(n int, seed int64) Dataset {
	cfg, _ := ImagePreset("CIFAR10", n, seed)
	return SynthImages(cfg)
}

// MOTORLike is the binary stand-in for 𝒟_O (motorcycle / non-motorcycle).
func MOTORLike(n int, seed int64) Dataset {
	cfg, _ := ImagePreset("MOTOR", n, seed)
	return SynthImages(cfg)
}

// REALLike is the 10-keyword crawled-image stand-in for 𝒟_R.
func REALLike(n int, seed int64) Dataset {
	cfg, _ := ImagePreset("REAL", n, seed)
	return SynthImages(cfg)
}

// TabularConfig parameterizes the planted-ground-truth tabular generator
// that stands in for the ten UCI/Kaggle VFL datasets.
type TabularConfig struct {
	Name        string
	N, D        int
	Task        Task
	Informative int     // leading features carrying signal; the rest are noise
	Noise       float64 // target noise (regression) / logit noise (classification)
	Seed        int64
}

// SynthTabular samples a dataset with a planted linear model on the first
// Informative features; remaining features are pure noise, so vertical
// participants holding them have provably low contribution — exactly the
// regime the VFL Shapley experiments measure.
func SynthTabular(cfg TabularConfig) Dataset {
	if cfg.N <= 0 || cfg.D <= 0 || cfg.Informative < 0 || cfg.Informative > cfg.D {
		panic(fmt.Sprintf("dataset: invalid tabular config %+v", cfg))
	}
	rng := tensor.NewRNG(cfg.Seed)
	w := make([]float64, cfg.D)
	rng.Normal(w[:cfg.Informative], 0, 1.5)
	x := tensor.NewMatrix(cfg.N, cfg.D)
	rng.Normal(x.Data, 0, 1)
	y := make([]float64, cfg.N)
	classes := 0
	for i := 0; i < cfg.N; i++ {
		z := tensor.Dot(x.Row(i), w) + float64(cfg.Noise*rng.NormFloat64())
		if cfg.Task == Regression {
			y[i] = z
		} else {
			classes = 2
			if z > 0 {
				y[i] = 1
			}
		}
	}
	return Dataset{Name: cfg.Name, X: x, Y: y, Classes: classes}
}

// VFLPreset identifies one of the paper's ten tabular datasets together
// with the participant count used in Table III.
type VFLPreset struct {
	Config TabularConfig
	// Parties is the participant count n from Table III.
	Parties int
	// LogReg selects VFL-LogReg (otherwise VFL-LinReg).
	LogReg bool
}

// VFLPresets returns the ten Table III settings. scale ∈ (0,1] shrinks the
// row counts for fast runs; feature counts and participant counts match the
// paper so the Shapley problem size (2^n coalitions) is authentic.
func VFLPresets(scale float64) []VFLPreset {
	rows := func(n int) int {
		r := int(float64(n) * scale)
		if r < 60 {
			r = 60
		}
		return r
	}
	mk := func(name string, n, d, informative int, task Task, noise float64, parties int, logreg bool, seed int64) VFLPreset {
		return VFLPreset{
			Config: TabularConfig{Name: name, N: rows(n), D: d, Task: task,
				Informative: informative, Noise: noise, Seed: seed},
			Parties: parties,
			LogReg:  logreg,
		}
	}
	return []VFLPreset{
		mk("Boston", 506, 13, 8, Regression, 0.5, 13, false, 101),
		mk("Diabetes", 442, 10, 6, Regression, 0.5, 10, false, 102),
		mk("WineQuality", 4898, 11, 7, Regression, 0.6, 11, false, 103),
		mk("SeoulBike", 17379, 14, 9, Regression, 0.5, 14, false, 104),
		mk("California", 20641, 8, 5, Regression, 0.5, 8, false, 105),
		mk("Iris", 150, 4, 3, Classification, 0.3, 4, true, 106),
		mk("Wine", 173, 13, 8, Classification, 0.4, 13, true, 107),
		mk("BreastCancer", 569, 30, 18, Classification, 0.4, 15, true, 108),
		mk("CreditCard", 30000, 22, 12, Classification, 0.5, 11, true, 109),
		mk("Adult", 48842, 14, 9, Classification, 0.5, 14, true, 110),
	}
}
