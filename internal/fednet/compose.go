package fednet

import (
	"digfl/internal/core"
	"digfl/internal/hfl"
)

// composeRule is one row of the composition table: a pair of Coordinator
// settings that cannot both be as configured, and why. The README's "What
// composes with what" matrix is this table rendered (a test pins the two
// against each other).
type composeRule struct {
	// a and b name the settings; rel relates them: relClash (a cannot
	// compose with b) or relNeeds (a requires b).
	a, rel, b string
	why       string
	// refused reports whether c is configured against the rule.
	refused func(c *Coordinator) bool
}

const (
	relClash = "cannot compose with"
	relNeeds = "requires"
)

func (r *composeRule) Error() string {
	return "fednet: " + r.a + " " + r.rel + " " + r.b + " — " + r.why
}

// streamed reports whether the run's rounds fold on arrival: Stream asks for
// it, and Async implies it — its commits are folded, never buffered. A Quarantine streams the run too, its Eq. 17–18
// reweighting and bans folded at commit (hfl.NewReweightedFold), unless
// something needs the round's raw deltas. It is the one predicate every
// "streamed" row below reads.
func (c *Coordinator) streamed() bool {
	return c.Stream != nil || c.Async != nil || c.Quarantine != nil && !c.needsDeltas()
}

// needsDeltas reports whether a consumer reads the round's raw deltas: the
// Archive writes them, and an Interactive estimator's ΔG recursion takes
// each δ.
func (c *Coordinator) needsDeltas() bool {
	return c.Archive != nil || interactive(c.Estimator) ||
		c.Quarantine != nil && interactive(c.Quarantine.Estimator)
}

func interactive(est *core.HFLEstimator) bool { return est != nil && est.DeltaGSum() != nil }

// fold is the aggregation rule of a streamed round — Stream, or MeanStream{}
// when Async or a Quarantine alone made the round streamed — and nil
// on a buffered run.
func (c *Coordinator) fold() hfl.StreamAggregator {
	if c.Stream == nil && c.streamed() {
		return hfl.MeanStream{}
	}
	return c.Stream
}

// composition lists every refusal, in evaluation order (the first refused
// row is the error Run returns). "Stream" in a row means a streamed round:
// Stream or Async set.
var composition = []composeRule{
	{a: "Journal", rel: relClash, b: "Cfg.Resume",
		why:     "the journal owns the resume point; use Recover",
		refused: func(c *Coordinator) bool { return c.Journal != nil && c.Cfg.Resume != nil }},
	{a: "Async", rel: relClash, b: "Quarantine",
		why:     "the quarantine's held slots wait in the coordinator's own fold, which a quorum cut bypasses",
		refused: func(c *Coordinator) bool { return c.Async != nil && c.Quarantine != nil }},
	{a: "Stream", rel: relClash, b: "Archive",
		why:     "the archive needs the raw deltas",
		refused: func(c *Coordinator) bool { return c.streamed() && c.Archive != nil }},
	{a: "Stream", rel: relClash, b: "Interactive Estimator",
		why:     "the Interactive estimator needs the raw deltas",
		refused: func(c *Coordinator) bool { return c.streamed() && interactive(c.Estimator) }},
}

// validate checks the configuration against the composition table. It runs
// before the journal is opened and before the join barrier, so a refused
// configuration costs no participant a join and the journal not a byte.
func (c *Coordinator) validate() error {
	for i := range composition {
		if r := &composition[i]; r.refused(c) {
			return r
		}
	}
	return nil
}
