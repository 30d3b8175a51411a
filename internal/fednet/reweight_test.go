package fednet

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"digfl/internal/core"
	"digfl/internal/faults"
	"digfl/internal/hfl"
	"digfl/internal/robust"
	"digfl/internal/sampling"
	"digfl/internal/tensor"
)

// flipSource is the in-process reference's round source: LocalSource's
// updates, with every attacker's scaled by −3 — what a Participant whose
// Tamper is flipTamper posts.
type flipSource struct {
	inner    *LocalSource
	attacker func(i int) bool
}

func (s *flipSource) Round(ctx context.Context, spec *hfl.RoundSpec) (*hfl.RoundResult, error) {
	res, err := s.inner.Round(ctx, spec)
	if err != nil {
		return nil, err
	}
	reported := res.Reported
	if reported == nil {
		reported = spec.Active
	}
	for k, i := range reported {
		if s.attacker(i) {
			tensor.Scale(-3, res.Deltas[k])
		}
	}
	return res, nil
}

func flipTamper(_ int, delta []float64) { tensor.Scale(-3, delta) }

// reweightCell is one shape of the streamed-quarantine gate: n
// participants, the training config (sampling and dropout included) and
// who attacks.
type reweightCell struct {
	n        int
	cfg      func(seed int64) hfl.Config
	attacker func(i int) bool
}

// quarantineRun is one run's outputs the gate compares.
type quarantineRun struct {
	res    *hfl.Result
	totals []float64
	bans   []int
}

func (a quarantineRun) same(b quarantineRun) bool {
	return sameVec(a.res.Model.Params(), b.res.Model.Params()) && sameVec(a.res.ValLossCurve, b.res.ValLossCurve) &&
		sameVec(a.totals, b.totals) && reflect.DeepEqual(a.bans, b.bans)
}

// bufferedReweighted is the reference: a buffered hfl.Trainer with the
// coordinator's quarantine (Patience 2) and estimator.
func (c reweightCell) bufferedReweighted(t *testing.T, seed int64) quarantineRun {
	t.Helper()
	model, parts, val := problemN(seed, c.n)
	est := core.NewHFLEstimator(c.n, model.NumParams(), core.ResourceSaving, nil)
	q := robust.MustNewQuarantine(robust.Quarantine{Estimator: est, Patience: 2})
	cfg := c.cfg(seed)
	cfg.Participants = c.n
	tr := &hfl.Trainer{
		Model: model, Val: val, Cfg: cfg, Reweighter: q,
		Rounds: &flipSource{inner: &LocalSource{Model: model, Parts: parts}, attacker: c.attacker},
	}
	res, err := tr.RunContext(context.Background())
	if err != nil {
		t.Fatalf("buffered reference (seed %d): %v", seed, err)
	}
	return quarantineRun{res, est.Attribution().Totals, q.Quarantined()}
}

// coordinator is the networked side: a Quarantine and an estimator and
// nothing that needs raw deltas, so the rounds stream.
func (c reweightCell) coordinator(t *testing.T, seed int64) *Coordinator {
	t.Helper()
	model, _, val := problemN(seed, c.n)
	coord := &Coordinator{
		N: c.n, Model: model, Val: val, Cfg: c.cfg(seed),
		Estimator:  core.NewHFLEstimator(c.n, model.NumParams(), core.ResourceSaving, nil),
		Quarantine: robust.MustNewQuarantine(robust.Quarantine{Patience: 2}),
	}
	if !coord.streamed() {
		t.Fatal("a Quarantine with nothing needing raw deltas did not stream the run")
	}
	return coord
}

func (c reweightCell) participant(seed int64) func(i int) *Participant {
	model, parts, _ := problemN(seed, c.n)
	return func(i int) *Participant {
		p := &Participant{Index: i, Model: model, Data: parts[i], Retries: 2}
		if c.attacker(i) {
			p.Tamper = flipTamper
		}
		return p
	}
}

func (c reweightCell) streamedLoopback(t *testing.T, seed int64) quarantineRun {
	t.Helper()
	coord := c.coordinator(t, seed)
	res, perrs, err := Loopback(context.Background(), coord, c.participant(seed))
	if err != nil {
		t.Fatalf("streamed loopback (seed %d): %v", seed, err)
	}
	for i, perr := range perrs {
		if perr != nil {
			t.Fatalf("participant %d: %v", i, perr)
		}
	}
	return quarantineRun{res, coord.Estimator.Attribution().Totals, coord.Quarantine.Quarantined()}
}

var reweightCells = map[string]reweightCell{
	"flat": {n: 5,
		cfg:      func(int64) hfl.Config { c := testConfig(); c.Epochs = 8; return c },
		attacker: func(i int) bool { return i == 1 }},
	// Cohort 64 of 80 with 10 % dropout: |S| is rarely a power of two, and
	// 30 % of the population flips its updates.
	"sampled+dropout": {n: 80,
		cfg: func(seed int64) hfl.Config {
			c := testConfig()
			c.Sample = sampling.MustNew(sampling.Config{Seed: seed, Size: 64})
			c.Faults = faults.MustNew(faults.Config{Seed: seed, Dropout: 0.1})
			return c
		},
		attacker: func(i int) bool { return i%10 < 3 }},
}

// TestStreamedQuarantineMatchesBufferedTrainer: a coordinator whose
// Quarantine streams the run — reweighting and bans as fold admissions —
// matches a buffered reweighted hfl.Trainer bit for bit over three seeds:
// θ, the validation-loss curve, φ totals and the ban list, on a flat
// full-participation run and on a sampled (cohort 64) run with dropout.
// Each run bans someone, so each passed through held slots (Patience 2).
func TestStreamedQuarantineMatchesBufferedTrainer(t *testing.T) {
	for name, cell := range reweightCells {
		for _, seed := range []int64{1, 2, 3} {
			name, cell, seed := name, cell, seed
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				t.Parallel()
				want := cell.bufferedReweighted(t, seed)
				got := cell.streamedLoopback(t, seed)
				if len(want.bans) == 0 {
					t.Fatal("the reference banned nobody; the run exercises no quarantine")
				}
				if !got.same(want) {
					t.Errorf("streamed quarantine differs from the buffered trainer (bans %v vs %v)", got.bans, want.bans)
				}
			})
		}
	}
}

// TestStreamedQuarantineCrashRecovery: a journaled streamed-quarantine
// coordinator torn at the second update of round 2 and recovered from its
// journal — the graft replays the same admissions from the recovered ban
// state — still matches the buffered reweighted trainer bit for bit, over
// three seeds.
func TestStreamedQuarantineCrashRecovery(t *testing.T) {
	cell := reweightCells["flat"]
	for _, seed := range []int64{1, 2, 3} {
		want := cell.bufferedReweighted(t, seed)
		model, parts, _ := problemN(seed, cell.n)
		journal := &bytes.Buffer{}
		front := &Front{}
		writer := &tearAtBinary{buf: journal, left: cell.n + 2, onTear: front.Kill}
		newCoord := func() *Coordinator {
			c := cell.coordinator(t, seed)
			c.Journal = writer
			return c
		}
		res, coord := loopbackThroughCrashesWith(t, model, parts, journal, front, 1, newCoord, cell.attacker)
		got := quarantineRun{res, coord.Estimator.Attribution().Totals, coord.Quarantine.Quarantined()}
		if !got.same(want) {
			t.Errorf("seed %d: recovered streamed quarantine differs from the buffered trainer (bans %v vs %v)", seed, got.bans, want.bans)
		}
	}
}
