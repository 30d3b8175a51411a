// Package adversary simulates Byzantine and free-riding participants for
// the federated runtime. The paper's contribution-guided reweighting
// (Eq. 17) and the defenses in internal/robust are only credible if they
// are exercised against realistic misbehavior; this package supplies that
// misbehavior deterministically, as wrappers over the existing
// participant/local-update seam (hfl.RoundSource), so an attacked run is a
// pure function of its seed.
//
// Five attack kinds are modeled. LabelFlip poisons an attacker's training
// shard at setup time (targeted (y+1) mod C flipping via
// dataset.FlipLabels) and leaves its updates untouched — the data-poisoning
// adversary the paper's introduction motivates. The remaining four corrupt
// the update after honest computation: SignFlip inverts and amplifies the
// delta (gradient inversion, the classic model-poisoning ascent attack),
// ScalePoison multiplies it by a large factor (boosted model replacement),
// FreeRider replaces it with low-magnitude noise (a participant that trains
// nothing but wants credit), and Collude makes every attacker push the same
// shared malicious direction, the coordinated clique that breaks
// distance-based defenses with enough members.
//
// Every per-round decision (does the attack fire, what noise is injected)
// hashes (seed, domain, round, participant) through faults.Uniform, the
// same splitmix64 finalizer the fault injector uses — so attack schedules
// are independent of call order, worker count, and checkpoint/resume point,
// and bit-identical across reruns. Adversary domains start at 101, disjoint
// from the fault injector's 1–4 under a shared seed.
//
// A nil *Adversary is valid everywhere and attacks nothing, so clean runs
// pay one nil check and stay bit-identical to a build without this package.
package adversary

import (
	"fmt"
	"math"
	"sort"

	"digfl/internal/dataset"
	"digfl/internal/faults"
	"digfl/internal/tensor"
)

// Kind selects the attack behavior.
type Kind uint8

const (
	// LabelFlip poisons the attacker's shard at setup ((y+1) mod C targeted
	// flipping); updates are computed honestly on the poisoned data.
	LabelFlip Kind = iota
	// SignFlip negates the honest update and amplifies it by Scale —
	// gradient ascent on the global objective.
	SignFlip
	// ScalePoison multiplies the honest update by Scale (model
	// replacement / boosting).
	ScalePoison
	// FreeRider discards the honest update and reports zero-mean noise of
	// standard deviation NoiseStd — no useful signal, but a plausible shape.
	FreeRider
	// Collude replaces every attacker's update with a single shared
	// malicious direction (the negated coordinate-wise mean of the honest
	// deltas is unavailable to the clique, so they agree on a deterministic
	// pseudo-random direction scaled to Scale× the honest norm).
	Collude

	numKinds
)

var kindNames = [numKinds]string{
	LabelFlip:   "label_flip",
	SignFlip:    "sign_flip",
	ScalePoison: "scale_poison",
	FreeRider:   "free_rider",
	Collude:     "collude",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// ParseKind maps the wire/CLI names ("sign_flip", ...) back to a Kind.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if s == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("adversary: unknown attack kind %q", s)
}

// Attack domains for faults.Uniform, drawn from the central registry so the
// faults.Domains collision guard keeps them disjoint from every other
// schedule sharing the seed.
const (
	domainFire    = faults.DomainAdversaryFire
	domainNoise   = faults.DomainAdversaryNoise
	domainCollude = faults.DomainAdversaryCollude
)

// Config parameterizes an adversary. The zero value (no attackers) attacks
// nothing.
type Config struct {
	// Seed drives every attack decision; same seed, same attack trace.
	Seed int64
	// Attackers lists the global indices of the compromised participants.
	Attackers []int
	// Kind selects the attack behavior.
	Kind Kind
	// Scale is the amplification factor for SignFlip, ScalePoison, and
	// Collude. Defaults: 3 for SignFlip and Collude, 10 for ScalePoison.
	Scale float64
	// NoiseStd is the FreeRider noise standard deviation; defaults to 0.01.
	NoiseStd float64
	// Rate is the per-round probability an attacker fires; defaults to 1
	// (attack every round). Intermittent attackers (Rate < 1) model
	// stealthy adversaries that evade naive screening.
	Rate float64
	// Start is the first round (1-based) the attack is active; defaults
	// to 1. A late Start models a sleeper that behaves honestly first.
	Start int
	// FlipFrac is the fraction of an attacker's shard whose labels are
	// flipped for LabelFlip; defaults to 1 (fully poisoned shard).
	FlipFrac float64
}

// Adversary makes deterministic attack decisions and mutates updates in
// place. All methods are safe on a nil receiver (no attacks) and for
// concurrent use: the adversary holds no mutable state.
type Adversary struct {
	cfg      Config
	attacker map[int]bool
}

// New validates the configuration, fills defaults, and builds an adversary.
// A config with no attackers yields a non-nil adversary that never fires.
func New(cfg Config) (*Adversary, error) {
	if int(cfg.Kind) >= int(numKinds) {
		return nil, fmt.Errorf("adversary: invalid kind %d", cfg.Kind)
	}
	if cfg.Rate < 0 || cfg.Rate > 1 {
		return nil, fmt.Errorf("adversary: Rate %v outside [0,1]", cfg.Rate)
	}
	if cfg.FlipFrac < 0 || cfg.FlipFrac > 1 {
		return nil, fmt.Errorf("adversary: FlipFrac %v outside [0,1]", cfg.FlipFrac)
	}
	if cfg.Scale < 0 || cfg.NoiseStd < 0 {
		return nil, fmt.Errorf("adversary: negative Scale (%v) or NoiseStd (%v)", cfg.Scale, cfg.NoiseStd)
	}
	if cfg.Start < 0 {
		return nil, fmt.Errorf("adversary: negative Start %d", cfg.Start)
	}
	for _, i := range cfg.Attackers {
		if i < 0 {
			return nil, fmt.Errorf("adversary: negative attacker index %d", i)
		}
	}
	if cfg.Scale == 0 {
		switch cfg.Kind {
		case ScalePoison:
			cfg.Scale = 10
		default:
			cfg.Scale = 3
		}
	}
	if cfg.NoiseStd == 0 {
		cfg.NoiseStd = 0.01
	}
	if cfg.Rate == 0 {
		cfg.Rate = 1
	}
	if cfg.Start == 0 {
		cfg.Start = 1
	}
	if cfg.FlipFrac == 0 {
		cfg.FlipFrac = 1
	}
	m := make(map[int]bool, len(cfg.Attackers))
	for _, i := range cfg.Attackers {
		m[i] = true
	}
	return &Adversary{cfg: cfg, attacker: m}, nil
}

// MustNew is New panicking on invalid configuration, for tests and
// examples with literal configs.
func MustNew(cfg Config) *Adversary {
	adv, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return adv
}

// Config returns the validated, default-filled configuration (zero Config
// for nil).
func (a *Adversary) Config() Config {
	if a == nil {
		return Config{}
	}
	return a.cfg
}

// IsAttacker reports whether participant i is compromised.
func (a *Adversary) IsAttacker(i int) bool {
	return a != nil && a.attacker[i]
}

// Attackers returns the sorted attacker indices (nil for a nil adversary).
func (a *Adversary) Attackers() []int {
	if a == nil || len(a.attacker) == 0 {
		return nil
	}
	out := make([]int, 0, len(a.attacker))
	for i := range a.attacker {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// Fires reports whether attacker i corrupts its round-t update. It is a
// pure function of (seed, t, i): false for honest participants, for rounds
// before Start, for LabelFlip (which poisons data, not updates), and with
// probability 1−Rate otherwise.
func (a *Adversary) Fires(t, i int) bool {
	if a == nil || !a.attacker[i] || a.cfg.Kind == LabelFlip || t < a.cfg.Start {
		return false
	}
	if a.cfg.Rate >= 1 {
		return true
	}
	return faults.Uniform(a.cfg.Seed, domainFire, uint64(t), uint64(i), 0) < a.cfg.Rate
}

// MutateDelta corrupts attacker i's round-t local update in place according
// to the configured kind, returning whether it fired. The honest delta is
// computed first and then corrupted, matching a compromised client that
// runs the real training loop and tampers with the report. The mutation is
// deterministic in (seed, t, i), so reruns and resumed runs produce
// bit-identical attack traces.
func (a *Adversary) MutateDelta(t, i int, delta []float64) bool {
	if !a.Fires(t, i) {
		return false
	}
	switch a.cfg.Kind {
	case SignFlip:
		tensor.Scale(-a.cfg.Scale, delta)
	case ScalePoison:
		tensor.Scale(a.cfg.Scale, delta)
	case FreeRider:
		// Deterministic zero-mean noise with std NoiseStd: uniform on
		// [−√3σ, √3σ] has standard deviation exactly σ, and needs one
		// hash per coordinate instead of a Box–Muller pair.
		w := math.Sqrt(3) * a.cfg.NoiseStd
		for j := range delta {
			u := float64(faults.Uniform(a.cfg.Seed, domainNoise, uint64(t), uint64(i), uint64(j)))
			delta[j] = w * (float64(2*u) - 1)
		}
	case Collude:
		// Every clique member reports the same malicious direction, scaled
		// to Scale× its own honest norm so magnitudes stay plausible. The
		// direction hashes (seed, t, coordinate) only — not i — so all
		// attackers agree without communicating.
		norm := 0.0
		for _, v := range delta {
			norm += float64(v * v)
		}
		norm = math.Sqrt(norm)
		dir := make([]float64, len(delta))
		dnorm := 0.0
		for j := range dir {
			u := float64(faults.Uniform(a.cfg.Seed, domainCollude, uint64(t), uint64(j), 0))
			dir[j] = float64(2*u) - 1
			dnorm += float64(dir[j] * dir[j])
		}
		dnorm = math.Sqrt(dnorm)
		if dnorm == 0 {
			dnorm = 1
		}
		s := a.cfg.Scale * norm / dnorm
		for j := range delta {
			delta[j] = s * dir[j]
		}
	}
	return true
}

// PoisonShards returns a copy of parts in which every attacker's shard has
// FlipFrac of its labels flipped — the LabelFlip setup step. For other
// kinds (or a nil adversary) it returns parts unchanged, so wiring
// PoisonShards unconditionally keeps clean runs allocation- and
// bit-identical. The flip permutation is drawn from a tensor.RNG seeded
// with (seed, participant), independent of shard order.
func (a *Adversary) PoisonShards(parts []dataset.Dataset) []dataset.Dataset {
	if a == nil || a.cfg.Kind != LabelFlip || len(a.attacker) == 0 {
		return parts
	}
	out := make([]dataset.Dataset, len(parts))
	copy(out, parts)
	for i := range out {
		if a.attacker[i] {
			rng := tensor.NewRNG(a.cfg.Seed).Split(int64(i) + 1)
			out[i] = dataset.FlipLabels(out[i], a.cfg.FlipFrac, rng)
		}
	}
	return out
}
