// Package experiments contains one runner per table and figure of the
// DIG-FL paper's evaluation (Sec. V), wired to the synthetic-data
// substitutes described in DESIGN.md. Each runner produces a typed result
// plus a formatted text rendering that mirrors the rows/series the paper
// reports; the root-level benchmarks and the digfl-bench CLI are thin
// wrappers around these functions.
package experiments

import (
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"time"

	"digfl/internal/core"
	"digfl/internal/dataset"
	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/obs"
	"digfl/internal/tensor"
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

// overlaySpec walks a comma-separated key=value CLI spec, parsing each value
// into the field its key names: fields maps a key to a pointer (*int, *int64,
// *float64, *time.Duration) or to a func(string) error that stores the value
// itself. An empty spec changes nothing.
func overlaySpec(flag, s string, fields map[string]any) error {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return fmt.Errorf("%s spec: %q is not key=value", flag, kv)
		}
		var err error
		switch p := fields[k].(type) {
		case *int:
			*p, err = strconv.Atoi(v)
		case *int64:
			*p, err = strconv.ParseInt(v, 10, 64)
		case *float64:
			*p, err = strconv.ParseFloat(v, 64)
		case *time.Duration:
			*p, err = time.ParseDuration(v)
		case func(string) error:
			err = p(v)
		default:
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

// Corruption identifies how an HFLSetting's shards depart from clean IID
// data: the two low-quality participant types of Sec. V-C1, and the two
// shapes the runtime studies train on.
type Corruption int

const (
	// Mislabeled participants have a fraction of labels replaced randomly.
	Mislabeled Corruption = iota
	// NonIID participants hold an incomplete subset of the classes.
	NonIID
	// GradedMislabel has participant i mislabel i/N of its IID shard, so the
	// ground-truth contribution ranking is well separated and rank agreement
	// measures estimator quality rather than coin flips between near-tied
	// honest participants.
	GradedMislabel
	// ClassDisjoint gives participant i exactly classes {k·i, …, k·i+k−1},
	// k = Classes/N, so a shard that never reaches the aggregate leaves its
	// classes untrained.
	ClassDisjoint
)

func (c Corruption) String() string {
	names := [...]string{"mislabeled", "non-IID", "graded-mislabel", "class-disjoint"}
	if c < 0 || int(c) >= len(names) {
		return fmt.Sprintf("Corruption(%d)", int(c))
	}
	return names[c]
}

// HFLSetting describes one horizontal experiment configuration.
type HFLSetting struct {
	// Dataset name: MNIST, CIFAR10, MOTOR or REAL (synthetic stand-ins).
	Dataset string
	// N is the number of participants, M how many are low quality (the last
	// M; ignored by GradedMislabel and ClassDisjoint).
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
	// ValFrac is the share of the samples held out for validation (0 → 0.1).
	ValFrac float64
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
	cfg, ok := dataset.ImagePreset(name, n, seed)
	if !ok {
		panic(fmt.Sprintf("experiments: unknown image dataset %q", name))
	}
	cfg.Noise += noiseBoost
	return dataset.SynthImages(cfg)
}

// federation is the image federation every HFL study trains on: the model
// prototype, the participants' shards and the validation set.
type federation struct {
	model nn.Model
	parts []dataset.Dataset
	val   dataset.Dataset
}

// newFederation materializes an HFLSetting's data: one seeded draw, one
// train/validation split, one partition.
func newFederation(s HFLSetting) *federation {
	rng := tensor.NewRNG(s.Seed)
	full := imageData(s.Dataset, s.Samples, s.Seed, s.NoiseBoost)
	valFrac := s.ValFrac
	if valFrac == 0 {
		valFrac = 0.1
	}
	train, val := full.Split(valFrac, rng)
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
	case GradedMislabel:
		parts = dataset.PartitionIID(train, s.N, rng)
		for i := 1; i < s.N; i++ {
			parts[i] = dataset.Mislabel(parts[i], float64(i)/float64(s.N), rng.Split(int64(i)))
		}
	case ClassDisjoint:
		idx := make([][]int, s.N)
		for r, y := range train.Y {
			if i := int(y) / (train.Classes / s.N); i < s.N {
				idx[i] = append(idx[i], r)
			}
		}
		parts = make([]dataset.Dataset, s.N)
		for i := range parts {
			parts[i] = train.Subset(idx[i])
		}
	default:
		panic(fmt.Sprintf("experiments: unknown corruption %d", s.Corruption))
	}
	return &federation{model: nn.NewSoftmaxRegression(train.Dim(), train.Classes), parts: parts, val: val}
}

// iidFederation is the clean IID federation the runtime studies share: n
// participants on the MNIST stand-in.
func iidFederation(n, samples int, seed int64) *federation {
	return newFederation(HFLSetting{Dataset: "MNIST", N: n, Samples: samples, Seed: seed})
}

// trainer is the in-process trainer over the federation's shards.
func (f *federation) trainer(cfg hfl.Config) *hfl.Trainer {
	return &hfl.Trainer{Model: f.model, Parts: f.parts, Val: f.val, Cfg: cfg}
}

// estimator returns a fresh resource-saving DIG-FL estimator sized for the
// federation — the one every study attaches.
func (f *federation) estimator() *core.HFLEstimator {
	return core.NewHFLEstimator(len(f.parts), f.model.NumParams(), core.ResourceSaving, nil)
}

// observed attaches a fresh estimator to tr as its Observer and returns both.
func (f *federation) observed(tr *hfl.Trainer) (*hfl.Trainer, *core.HFLEstimator) {
	est := f.estimator()
	tr.Observer = func(ep *hfl.Epoch) { est.Observe(ep) }
	return tr, est
}

// BuildHFL materializes an HFLSetting into a ready-to-run trainer: its
// federation plus the setting's training configuration. The last M
// participants are the low-quality ones.
func BuildHFL(s HFLSetting) *hfl.Trainer {
	return newFederation(s).trainer(hfl.Config{Epochs: s.Epochs, LR: s.LR, LocalSteps: s.LocalSteps,
		KeepLog: true, Runtime: obs.Runtime{Sink: s.Sink}})
}

// sameRun reports whether two runs match bit for bit: model parameters,
// validation-loss curve, and every further (got, want) pair — estimator
// states, φ totals, archive bytes.
func sameRun(a, b *hfl.Result, pairs ...any) bool {
	same := reflect.DeepEqual(a.Model.Params(), b.Model.Params()) &&
		reflect.DeepEqual(a.ValLossCurve, b.ValLossCurve)
	for i := 0; i+1 < len(pairs); i += 2 {
		same = same && reflect.DeepEqual(pairs[i], pairs[i+1])
	}
	return same
}

// metricTable renders a study summary as the metric,value CSV table named
// stem: the (name, value) pairs in order, then one phi_i row per attribution
// total.
func metricTable(stem string, totals []float64, pairs ...any) map[string][][]string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	rows := [][]string{{"metric", "value"}}
	for i := 0; i+1 < len(pairs); i += 2 {
		v := pairs[i+1]
		if x, ok := v.(float64); ok {
			v = g(x)
		}
		rows = append(rows, []string{pairs[i].(string), fmt.Sprint(v)})
	}
	for i, v := range totals {
		rows = append(rows, []string{fmt.Sprintf("phi_%d", i), g(v)})
	}
	return map[string][][]string{stem: rows}
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
