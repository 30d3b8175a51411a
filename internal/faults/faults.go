// Package faults is a seeded, deterministic fault injector for the
// federated runtime: per-epoch participant dropout, straggler delay,
// crash-at-epoch-k, and transient secure-round failures. DIG-FL's Lemma 3
// makes per-epoch contributions additive over participants, which is
// exactly what lets both training and contribution evaluation survive a
// participant missing an epoch — this package exercises that tolerance.
//
// Every decision is a pure function of (seed, coordinates): the injector
// hashes the fault domain, the epoch, the participant (and the retry
// attempt, for secure rounds) through a splitmix64 finalizer and compares
// the resulting uniform variate against the configured rate. Decisions are
// therefore independent of call order, of worker count, and — crucially —
// of where a crashed run resumed: a run restarted from a checkpoint sees
// the identical dropout schedule for the epochs it replays. Two runs with
// the same seed produce the same schedule, the same retry counts, and the
// same observability trace.
//
// A nil *Injector is valid everywhere and injects nothing, so fault-free
// runs pay one nil check per decision point and stay bit-identical to a
// build without the injector.
package faults

import (
	"errors"
	"fmt"
	"time"
)

// Config parameterizes the injector. The zero value injects nothing.
type Config struct {
	// Seed determines every schedule; same seed, same faults.
	Seed int64
	// Dropout is the per-participant per-epoch probability of dropping out
	// of a round (the participant computes nothing and reports nothing).
	Dropout float64
	// Straggler is the per-participant per-epoch probability of straggling:
	// the participant still reports, but its local update is delayed by
	// StragglerDelay. Results are unaffected; only wall-clock and the
	// observability trace show the straggle.
	Straggler float64
	// StragglerDelay is the injected delay per straggle; defaults to 1ms
	// when Straggler is positive and no delay is given.
	StragglerDelay time.Duration
	// CrashEpoch, when positive, crashes training at the start of that
	// epoch (the epoch is never entered; the last completed epoch is
	// CrashEpoch−1). The trainer returns a *CrashError; recovery is
	// resuming from the latest checkpoint with a crash-disarmed injector
	// (WithoutCrash), the analogue of restarting the process.
	CrashEpoch int
	// SecureFailure is the per-attempt probability that an encrypted
	// gradient round fails transiently before consuming any entropy
	// (modeling message loss); the secure protocol retries it at once.
	SecureFailure float64
	// NetFailure is the per-attempt probability that a networked
	// participant's wire-protocol request fails transiently before
	// touching the wire (modeling a lossy link); the participant retries
	// with capped exponential backoff. Because the decision is a pure
	// function of (seed, round, participant, attempt), the injected loss
	// pattern is identical across runs regardless of request interleaving.
	NetFailure float64
	// StickyStragglers pins the async lag schedule (Lag) to the
	// participant alone instead of the (epoch, participant) pair: the same
	// members lag every epoch, modeling persistently slow devices rather
	// than transient hiccups. Under a synchronous deadline a sticky
	// straggler's shard never reaches the model; under the async commit
	// policy it keeps contributing at a staleness discount — the contrast
	// the -exp async experiment measures. Only Lag consults it.
	StickyStragglers bool
}

func (c Config) validate() error {
	for name, r := range map[string]float64{
		"Dropout": c.Dropout, "Straggler": c.Straggler,
		"SecureFailure": c.SecureFailure, "NetFailure": c.NetFailure,
	} {
		if !(0 <= r && r < 1) { // written so that NaN fails
			return fmt.Errorf("faults: %s rate %v outside [0,1)", name, r)
		}
	}
	if c.StragglerDelay < 0 {
		return fmt.Errorf("faults: negative StragglerDelay %v", c.StragglerDelay)
	}
	if c.CrashEpoch < 0 {
		return fmt.Errorf("faults: negative CrashEpoch %d", c.CrashEpoch)
	}
	return nil
}

// Injector makes deterministic fault decisions. All methods are safe on a
// nil receiver (no faults) and for concurrent use: the injector holds no
// mutable state.
type Injector struct {
	cfg Config
}

// New validates the configuration and builds an injector.
func New(cfg Config) (*Injector, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Straggler > 0 && cfg.StragglerDelay == 0 {
		cfg.StragglerDelay = time.Millisecond
	}
	return &Injector{cfg: cfg}, nil
}

// MustNew is New panicking on invalid configuration, for tests and
// examples with literal configs.
func MustNew(cfg Config) *Injector {
	in, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return in
}

// Config returns the validated configuration (zero Config for nil).
func (in *Injector) Config() Config {
	if in == nil {
		return Config{}
	}
	return in.cfg
}

// Hash domains keep the uniform streams of the runtime's deterministic
// schedules independent of each other for the same (epoch, participant)
// coordinate. Every consumer of Uniform across the repository draws from
// this registry — the injector's fault kinds, the cohort sampler, the
// chaos process-fault schedule, and the attack simulators in
// internal/adversary — so a new injector cannot silently reuse a domain:
// register it here and the collision-guard test (TestDomainsUnique)
// enforces uniqueness.
const (
	// DomainDropout draws per-(epoch, participant) dropout decisions.
	DomainDropout uint64 = 1
	// DomainStraggler draws per-(epoch, participant) straggle decisions.
	DomainStraggler uint64 = 2
	// DomainSecure draws per-(epoch, round, attempt) secure-round failures.
	DomainSecure uint64 = 3
	// DomainNet draws per-(round, participant, attempt) request failures.
	DomainNet uint64 = 4
	// DomainAsyncLag draws the async commit policy's per-(epoch,
	// participant) straggler lags (Lag): whether a fresh update lags and
	// by how many epochs.
	DomainAsyncLag uint64 = 5
	// DomainAsyncTie draws the async commit policy's per-(epoch,
	// participant, origin) quorum tie-break keys (hfl.AsyncPlanner).
	DomainAsyncTie uint64 = 6
	// DomainSampling draws the cohort sampler's per-(epoch, participant)
	// keys (internal/sampling).
	DomainSampling uint64 = 7
	// DomainChaos draws the process-fault schedule: which epoch and phase
	// each injected coordinator/edge kill lands on (ChaosSchedule).
	DomainChaos uint64 = 8
	// DomainAdversaryFire, DomainAdversaryNoise and DomainAdversaryCollude
	// draw the attack simulators' schedules (internal/adversary).
	DomainAdversaryFire    uint64 = 101
	DomainAdversaryNoise   uint64 = 102
	DomainAdversaryCollude uint64 = 103
)

// Domains returns the registry of every hash domain in use, keyed by the
// consumer-facing name. The collision-guard test derives uniqueness from
// this map; extend it together with the constants above.
func Domains() map[string]uint64 {
	return map[string]uint64{
		"dropout":           DomainDropout,
		"straggler":         DomainStraggler,
		"secure":            DomainSecure,
		"net":               DomainNet,
		"async_lag":         DomainAsyncLag,
		"async_tie":         DomainAsyncTie,
		"sampling":          DomainSampling,
		"chaos":             DomainChaos,
		"adversary_fire":    DomainAdversaryFire,
		"adversary_noise":   DomainAdversaryNoise,
		"adversary_collude": DomainAdversaryCollude,
	}
}

// Uniform maps (seed, domain, a, b, c) to a uniform variate in [0,1) via a
// splitmix64-style finalizer. Coordinates are offset by 1 so the zero
// coordinate still perturbs the hash. It is the shared deterministic-schedule
// primitive of the runtime: the fault injector's decisions and the attack
// simulators in internal/adversary both hash through it, so both schedules
// are pure functions of (seed, coordinates) — independent of call order,
// worker count, and resume point. Callers must draw their domain from the
// exported Domain registry above so two consumers sharing a seed never
// collide; the registry's collision-guard test enforces uniqueness.
func Uniform(seed int64, domain, a, b, c uint64) float64 {
	return NewStream(seed, domain, a, c).At(b)
}

// Stream is Uniform with every coordinate but b bound: the XOR of the
// (seed, domain, a, c) terms, which a loop over b computes once instead of
// once per draw. Stream.At(b) is Uniform(seed, domain, a, b, c) bit for bit —
// the coordinate terms combine by XOR, so the order they enter in is
// immaterial — and it is the only definition of the mix.
type Stream uint64

// NewStream binds Uniform's loop-invariant coordinates.
func NewStream(seed int64, domain, a, c uint64) Stream {
	x := uint64(seed)
	x ^= (domain + 1) * 0x9e3779b97f4a7c15
	x ^= (a + 1) * 0xbf58476d1ce4e5b9
	x ^= (c + 1) * 0xd6e8feb86659fd93
	return Stream(x)
}

// At returns the stream's variate at coordinate b. It is small enough to
// inline, so a scan over b pays for the finalizer alone.
func (s Stream) At(b uint64) float64 {
	x := uint64(s) ^ (b+1)*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) * 0x1p-53
}

// uniform is Uniform bound to the injector's seed.
func (in *Injector) uniform(domain, a, b, c uint64) float64 {
	return Uniform(in.cfg.Seed, domain, a, b, c)
}

// DropsOut reports whether the participant drops out of the given epoch.
func (in *Injector) DropsOut(epoch, part int) bool {
	if in == nil || in.cfg.Dropout == 0 {
		return false
	}
	return in.uniform(DomainDropout, uint64(epoch), uint64(part), 0) < in.cfg.Dropout
}

// Straggles reports whether the participant straggles in the given epoch,
// and the injected delay if so.
func (in *Injector) Straggles(epoch, part int) (time.Duration, bool) {
	if in == nil || in.cfg.Straggler == 0 {
		return 0, false
	}
	if in.uniform(DomainStraggler, uint64(epoch), uint64(part), 0) < in.cfg.Straggler {
		return in.cfg.StragglerDelay, true
	}
	return 0, false
}

// Lag is the async commit policy's straggler schedule: it reports how many
// epochs participant part's epoch-t update lags before becoming a commit
// candidate. 0 means the update is fresh (a candidate in its own epoch); a
// positive lag L in [1, maxLag] means the update is buffered and surfaces
// in epoch t+L with staleness L. The fire decision reuses the Straggler
// rate on its own hash domain, so synchronous runs (which consult
// Straggles) and asynchronous runs (which consult Lag) draw independent
// schedules from one config. Lags clamp to maxLag — the policy's staleness
// window — so a scheduled lag is always admissible. With
// Config.StickyStragglers the draw ignores the epoch: the same
// participants lag, by the same amount, every epoch.
func (in *Injector) Lag(epoch, part, maxLag int) int {
	if in == nil || in.cfg.Straggler == 0 || maxLag < 1 {
		return 0
	}
	e := uint64(epoch)
	if in.cfg.StickyStragglers {
		e = 0
	}
	if in.uniform(DomainAsyncLag, e, uint64(part), 0) >= in.cfg.Straggler {
		return 0
	}
	// Second draw for the magnitude: uniform over [1, maxLag] (the variate
	// is strictly below 1, so the floor never reaches maxLag itself).
	return 1 + int(in.uniform(DomainAsyncLag, e, uint64(part), 1)*float64(maxLag))
}

// CrashesAt reports whether training crashes at the start of the given
// epoch.
func (in *Injector) CrashesAt(epoch int) bool {
	return in != nil && in.cfg.CrashEpoch > 0 && epoch == in.cfg.CrashEpoch
}

// SecureRoundFails reports whether the given attempt of an encrypted
// gradient round (two rounds per epoch: training then validation) fails
// transiently. Attempts are hashed independently, so the number of
// consecutive injected failures per round is deterministic for a seed.
func (in *Injector) SecureRoundFails(epoch, round, attempt int) bool {
	if in == nil || in.cfg.SecureFailure == 0 {
		return false
	}
	return in.uniform(DomainSecure, uint64(epoch), uint64(round), uint64(attempt)) < in.cfg.SecureFailure
}

// RequestFails reports whether the given attempt of a networked
// participant's wire request fails transiently. round is the training round
// the request belongs to (0 for join); attempts are hashed independently,
// so the number of consecutive injected failures per request is
// deterministic for a seed.
func (in *Injector) RequestFails(round, part, attempt int) bool {
	if in == nil || in.cfg.NetFailure == 0 {
		return false
	}
	return in.uniform(DomainNet, uint64(round), uint64(part), uint64(attempt)) < in.cfg.NetFailure
}

// Survivors partitions the subset for an epoch into the participants that
// report and those that drop out, preserving subset order. When nobody
// drops (including for a nil injector) it returns the subset slice itself
// and a nil dropped list, so fault-free epochs allocate nothing.
func (in *Injector) Survivors(epoch int, subset []int) (reported, dropped []int) {
	if in == nil || in.cfg.Dropout == 0 {
		return subset, nil
	}
	for k, i := range subset {
		if in.DropsOut(epoch, i) {
			if dropped == nil {
				// First drop: copy the prefix that already reported. The
				// survivor list must be non-nil even when everyone drops —
				// nil means "full participation" downstream.
				reported = make([]int, k, len(subset))
				copy(reported, subset[:k])
			}
			dropped = append(dropped, i)
			continue
		}
		if dropped != nil {
			reported = append(reported, i)
		}
	}
	if dropped == nil {
		return subset, nil
	}
	return reported, dropped
}

// WithoutCrash returns a copy of the injector with the crash disarmed —
// the configuration a resumed run uses so the dropout, straggler, and
// secure-failure schedules continue identically without re-crashing. A nil
// receiver stays nil.
func (in *Injector) WithoutCrash() *Injector {
	if in == nil {
		return nil
	}
	cfg := in.cfg
	cfg.CrashEpoch = 0
	return &Injector{cfg: cfg}
}

// CrashError is the error a trainer returns when the injector crashes a
// run; Epoch is the epoch that was about to start (the last completed
// epoch is Epoch−1).
type CrashError struct {
	Epoch int
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("faults: injected crash at epoch %d", e.Epoch)
}

// ErrRetriesExhausted marks an operation that failed more times than the
// configured retry budget allows — a secure-protocol round or a networked
// participant's wire request.
var ErrRetriesExhausted = errors.New("faults: retry budget exhausted")

// Backoff returns the capped exponential backoff delay before retry
// attempt+1: base·2^attempt, clamped to max when max is positive. A
// non-positive base disables sleeping (the configuration tests use).
func Backoff(attempt int, base, max time.Duration) time.Duration {
	if base <= 0 {
		return 0
	}
	if attempt > 30 {
		attempt = 30
	}
	d := base << uint(attempt)
	if max > 0 && d > max {
		return max
	}
	return d
}
