// Package experiments contains one runner per table and figure of the
// DIG-FL paper's evaluation (Sec. V), wired to the synthetic-data
// substitutes described in DESIGN.md. Each runner produces a typed result
// plus a formatted text rendering that mirrors the rows/series the paper
// reports; the root-level benchmarks and the digfl-bench CLI are thin
// wrappers around these functions.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"

	"digfl/internal/dataset"
	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/obs"
	"digfl/internal/tensor"
	"digfl/internal/vfl"
)

// Opts are the shared experiment options.
type Opts struct {
	// Scale in (0, 1] shrinks sample counts and epoch budgets relative to
	// the full simulator configuration; tests run at ~0.25, the CLI defaults
	// to 1.0.
	Scale float64
	// Seed makes every experiment reproducible.
	Seed int64
	// Sink, when non-nil, receives observability events from every
	// training run and estimator pass the experiment performs (the CLI's
	// -trace flag and snapshot summary plug in here). Attaching a sink
	// never perturbs results.
	Sink obs.Sink
}

// Report is what every runner returns: a text rendering for the terminal
// plus the CSV tables behind it.
type Report interface {
	Render(w io.Writer)
	CSVer
}

// overlaySpec walks a comma-separated key=value CLI spec, handing each pair
// to set, which stores the value and reports a parse error or, through
// known, a key it does not have. An empty spec changes nothing.
func overlaySpec(flag, s string, set func(k, v string) (known bool, err error)) error {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return fmt.Errorf("%s spec: %q is not key=value", flag, kv)
		}
		known, err := set(k, v)
		if !known {
			return fmt.Errorf("%s spec: unknown key %q", flag, k)
		}
		if err != nil {
			return fmt.Errorf("%s spec: %s: %v", flag, k, err)
		}
	}
	return nil
}

// DefaultOpts is the full-scale configuration used by the CLI.
func DefaultOpts() Opts { return Opts{Scale: 1, Seed: 42} }

// QuickOpts is the reduced configuration used by tests and -short benches.
func QuickOpts() Opts { return Opts{Scale: 0.25, Seed: 42} }

func (o Opts) validate() {
	if o.Scale <= 0 || o.Scale > 1 {
		panic(fmt.Sprintf("experiments: Scale must be in (0,1], got %v", o.Scale))
	}
}

// samples scales a base sample count, with a floor to keep problems
// learnable.
func (o Opts) samples(base int) int {
	n := int(float64(base) * o.Scale)
	if n < 300 {
		n = 300
	}
	return n
}

// epochs scales a base epoch count with a floor of 5.
func (o Opts) epochs(base int) int {
	e := int(float64(base) * o.Scale)
	if e < 5 {
		e = 5
	}
	return e
}

// Corruption identifies the low-quality participant type of Sec. V-C1.
type Corruption int

const (
	// Mislabeled participants have a fraction of labels replaced randomly.
	Mislabeled Corruption = iota
	// NonIID participants hold an incomplete subset of the classes.
	NonIID
)

func (c Corruption) String() string {
	if c == Mislabeled {
		return "mislabeled"
	}
	return "non-IID"
}

// HFLSetting describes one horizontal experiment configuration.
type HFLSetting struct {
	// Dataset name: MNIST, CIFAR10, MOTOR or REAL (synthetic stand-ins).
	Dataset string
	// N is the number of participants, M how many are low quality.
	N, M int
	// Corruption selects the low-quality type.
	Corruption Corruption
	// MislabelFrac is the label-corruption rate for Mislabeled participants.
	MislabelFrac float64
	// NoiseBoost is added to the generator's pixel noise; the reweight
	// experiment uses it to make the task hard enough that corrupted
	// gradients actually hurt (see Fig. 7 runner).
	NoiseBoost float64
	// MaxClasses caps how many classes a non-IID participant holds
	// (0 → Classes−1, the paper's "1 to 9 of 10 categories").
	MaxClasses int
	// LocalSteps is the per-round local training depth (hfl.Config.LocalSteps);
	// values > 1 surface the client drift that makes non-IID participants
	// measurably harmful.
	LocalSteps int
	Samples    int
	Epochs     int
	LR         float64
	Seed       int64
	// Sink receives the built trainer's observability events (Opts.Sink,
	// threaded through by the runners).
	Sink obs.Sink
}

// imageData builds the synthetic stand-in for a named image dataset, with
// optional extra pixel noise on top of the preset level.
func imageData(name string, n int, seed int64, noiseBoost float64) dataset.Dataset {
	cfg := dataset.ImageConfig{Name: name, N: n, Side: 8, Seed: seed}
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
		panic(fmt.Sprintf("experiments: unknown image dataset %q", name))
	}
	cfg.Noise += noiseBoost
	return dataset.SynthImages(cfg)
}

// BuildHFL materializes an HFLSetting into a ready-to-run trainer. The last
// M participants are the low-quality ones.
func BuildHFL(s HFLSetting) *hfl.Trainer {
	rng := tensor.NewRNG(s.Seed)
	full := imageData(s.Dataset, s.Samples, s.Seed, s.NoiseBoost)
	train, val := full.Split(0.1, rng)
	var parts []dataset.Dataset
	switch s.Corruption {
	case NonIID:
		parts = dataset.PartitionNonIID(train,
			dataset.NonIIDConfig{N: s.N, M: s.M, MaxClasses: s.MaxClasses}, rng)
	case Mislabeled:
		parts = dataset.PartitionIID(train, s.N, rng)
		for i := s.N - s.M; i < s.N; i++ {
			parts[i] = dataset.Mislabel(parts[i], s.MislabelFrac, rng.Split(int64(i)))
		}
	default:
		panic(fmt.Sprintf("experiments: unknown corruption %d", s.Corruption))
	}
	return &hfl.Trainer{
		Model: nn.NewSoftmaxRegression(train.Dim(), train.Classes),
		Parts: parts,
		Val:   val,
		Cfg: hfl.Config{Epochs: s.Epochs, LR: s.LR, LocalSteps: s.LocalSteps,
			KeepLog: true, Runtime: obs.Runtime{Sink: s.Sink}},
	}
}

// hflCommFloats models the communication of HFL contribution methods in
// float64 units: retraining-based methods re-run the full protocol
// (participants upload local models and download the global model every
// epoch), while log-based methods reuse the original run's traffic.
func hflCommFloats(retrains int64, epochs, n, p int) int64 {
	return retrains * int64(epochs) * int64(n) * int64(2*p)
}

// writeHeader renders an experiment banner.
func writeHeader(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

// runHFL drives an HFL trainer through the canonical context-first
// entrypoint. Experiment runners have no cancellation story of their own,
// so trainer errors — which the legacy panicking Run would raise anyway —
// still panic here.
func runHFL(ctx context.Context, tr *hfl.Trainer) *hfl.Result {
	res, err := tr.RunContext(ctx)
	if err != nil {
		panic(err)
	}
	return res
}

// runVFL is runHFL for the vertical trainer.
func runVFL(ctx context.Context, tr *vfl.Trainer) *vfl.Result {
	res, err := tr.RunContext(ctx)
	if err != nil {
		panic(err)
	}
	return res
}
