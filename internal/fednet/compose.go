package fednet

import (
	"fmt"

	"digfl/internal/hfl"
	"digfl/internal/shapley"
)

// composeRule is one row of the composition table: a pair of Coordinator
// settings that cannot both be as configured, and why. The README's "What
// composes with what" matrix is this table rendered (a test pins the two
// against each other).
type composeRule struct {
	// a and b name the settings; rel relates them: relClash (a cannot
	// compose with b), relNeeds (a requires b) or relEither (set one, not
	// both).
	a, rel, b string
	why       string
	// refused reports whether c is configured against the rule.
	refused func(c *Coordinator) bool
	// typed, when non-nil, builds the error callers match with errors.As;
	// the default is the row's text.
	typed func(c *Coordinator) error
}

const (
	relClash  = "cannot compose with"
	relNeeds  = "requires"
	relEither = "or"
)

func (r *composeRule) Error() string {
	if r.rel == relEither {
		return fmt.Sprintf("fednet: set %s or %s, not both — %s", r.a, r.b, r.why)
	}
	return fmt.Sprintf("fednet: %s %s %s — %s", r.a, r.rel, r.b, r.why)
}

// engine is the contribution engine the run will observe: the Engine field
// or a config-carried one (run promotes it).
func (c *Coordinator) engine() any {
	if c.Engine != nil {
		return c.Engine
	}
	return c.Cfg.Engine
}

// bufferedRule reports whether the aggregation override needs every update
// of a round materialized at once.
func (c *Coordinator) bufferedRule() bool {
	br, ok := c.Aggregator.(hfl.BufferedRule)
	return ok && br.NeedsBuffer()
}

// composition lists every refusal, in evaluation order (the first refused
// row is the error Run returns; the typed Async row therefore precedes the
// generic Stream × Aggregator one).
var composition = []composeRule{
	{a: "Cfg.Engine", rel: relNeeds, b: "a shapley.Engine",
		why: "the coordinator reports the engine on /v1/score",
		refused: func(c *Coordinator) bool {
			_, ok := c.Cfg.Engine.(shapley.Engine)
			return c.Cfg.Engine != nil && !ok
		}},
	{a: "Engine", rel: relEither, b: "Cfg.Engine",
		why: "two different engines are ambiguous",
		refused: func(c *Coordinator) bool {
			return c.Engine != nil && c.Cfg.Engine != nil && any(c.Cfg.Engine) != any(c.Engine)
		}},
	{a: "Engine", rel: relClash, b: "Stream",
		why:     "engines reconstruct models from the round buffer's raw deltas",
		refused: func(c *Coordinator) bool { return c.engine() != nil && c.Stream != nil }},
	{a: "Engine", rel: relClash, b: "Journal or Recover",
		why:     "engine state is not journaled, so a recovery would replay a log gap",
		refused: func(c *Coordinator) bool { return c.engine() != nil && (c.Journal != nil || c.rec != nil) }},
	{a: "Async", rel: relNeeds, b: "Stream",
		why:     "async commits are folded on acceptance, never buffered",
		refused: func(c *Coordinator) bool { return c.Async != nil && c.Stream == nil }},
	{a: "Async", rel: relClash, b: "Edges",
		why:     "edge partials pre-fold the cohort before the quorum cut",
		refused: func(c *Coordinator) bool { return c.Async != nil && c.Edges > 0 }},
	{a: "Async", rel: relClash, b: "a buffered-only Aggregator",
		why:     "median, trimmed mean and the Krum family need the full round buffer (hfl.BufferedRuleError)",
		refused: func(c *Coordinator) bool { return c.Async != nil && c.bufferedRule() },
		typed: func(c *Coordinator) error {
			return &hfl.BufferedRuleError{Rule: fmt.Sprintf("%T", c.Aggregator), Path: "Async"}
		}},
	{a: "Journal", rel: relClash, b: "Screen",
		why:     "clipping rewrites updates after the journaled bytes, so replay would diverge",
		refused: func(c *Coordinator) bool { return c.Journal != nil && c.Screen != nil }},
	{a: "Journal", rel: relClash, b: "Cfg.Resume",
		why:     "the journal owns the resume point; use Recover",
		refused: func(c *Coordinator) bool { return c.Journal != nil && c.Cfg.Resume != nil }},
	{a: "Stream", rel: relClash, b: "Aggregator",
		why:     "the override aggregates the round buffer; a streamed round has none",
		refused: func(c *Coordinator) bool { return c.Stream != nil && c.Aggregator != nil }},
	{a: "Stream", rel: relClash, b: "Reweighter",
		why:     "reweighting needs the round buffer",
		refused: func(c *Coordinator) bool { return c.Stream != nil && c.Reweighter != nil }},
	{a: "Stream", rel: relClash, b: "Quarantine",
		why:     "the quarantine reweights the round buffer",
		refused: func(c *Coordinator) bool { return c.Stream != nil && c.Quarantine != nil }},
	{a: "Stream", rel: relClash, b: "Screen",
		why:     "screening vets the round buffer",
		refused: func(c *Coordinator) bool { return c.Stream != nil && c.Screen != nil }},
	{a: "Stream", rel: relClash, b: "Archive",
		why:     "the archive needs the raw deltas",
		refused: func(c *Coordinator) bool { return c.Stream != nil && c.Archive != nil }},
	{a: "Edges", rel: relNeeds, b: "Stream",
		why:     "edge partials are pre-folded",
		refused: func(c *Coordinator) bool { return c.Edges > 0 && c.Stream == nil }},
	{a: "Reweighter", rel: relEither, b: "Quarantine",
		why:     "the quarantine is wired as the trainer's reweighter",
		refused: func(c *Coordinator) bool { return c.Reweighter != nil && c.Quarantine != nil }},
}

// validate checks the configuration against the composition table. It runs
// before the journal is opened and before the join barrier, so a refused
// configuration costs no participant a join and the journal not a byte.
func (c *Coordinator) validate() error {
	for i := range composition {
		if r := &composition[i]; r.refused(c) {
			if r.typed != nil {
				return r.typed(c)
			}
			return r
		}
	}
	return nil
}
