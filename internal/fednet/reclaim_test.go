package fednet

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"digfl/internal/core"
	"digfl/internal/hfl"
	"digfl/internal/robust"
)

// reclaimRun is one buffered loopback run with everything that reads raw
// deltas attached — the quarantine (and through it the estimator) and the
// streaming archive — and participant 2 tripling and flipping its updates
// so that each of them has something to act on.
type reclaimRun struct {
	res     *hfl.Result
	attr    *core.Attribution
	banned  []int
	archive []byte
	rounds  []*openRound // every round of the run, as the coordinator left it
}

// runForReclaim runs the federation under the given retention policy. With
// poison set, the run's last observer — everything else that is handed the
// epoch has returned by then — overwrites the epoch's deltas with NaN: from
// that point ReleaseAfterObserve says nobody reads them, which is what lets
// Round hand them to the pool, and a reader that did would carry the NaN
// into the model, the curve, φ, the bans or the archive.
func runForReclaim(t *testing.T, seed int64, policy hfl.RetainPolicy, poison bool) *reclaimRun {
	t.Helper()
	model, parts, val := problem(seed)
	cfg := testConfig()
	cfg.RetainDeltas = policy
	out := &reclaimRun{}
	archive := &bytes.Buffer{}
	c := &Coordinator{
		N: testN, Model: model, Val: val, Cfg: cfg,
		Estimator:     core.NewHFLEstimator(testN, model.NumParams(), core.ResourceSaving, nil),
		Quarantine:    robust.MustNewQuarantine(robust.Quarantine{Patience: 2}),
		Archive:       archive,
		RoundDeadline: 5 * time.Second,
	}
	c.Observer = func(ep *hfl.Epoch) {
		c.mu.Lock()
		out.rounds = append(out.rounds, c.round)
		c.mu.Unlock()
		if poison {
			for _, d := range ep.Deltas {
				for j := range d {
					d[j] = math.NaN()
				}
			}
		}
	}
	res, perrs, err := Loopback(context.Background(), c, func(i int) *Participant {
		p := &Participant{Index: i, Model: model.Clone(), Data: parts[i]}
		if i == 2 {
			p.Tamper = func(_ int, delta []float64) {
				for j := range delta {
					delta[j] *= -3
				}
			}
		}
		return p
	})
	if err != nil {
		t.Fatalf("seed %d: coordinator: %v", seed, err)
	}
	for i, perr := range perrs {
		if perr != nil {
			t.Fatalf("seed %d: participant %d: %v", seed, i, perr)
		}
	}
	out.res, out.attr, out.banned = res, c.Estimator.Attribution(), c.Quarantine.Quarantined()
	out.archive = archive.Bytes()
	return out
}

// TestReclaimedDeltasAreNeverReadAgain is the use-after-release guard on
// the vectors Round takes back. Over 3 seeds, a ReleaseAfterObserve run whose
// deltas are poisoned the moment the policy says they are dead is
// bit-identical — model, curve, φ, bans, archive — to the
// RetainAll run; every round but the last gave its vectors up; and a RetainAll
// run recycles nothing: all its vectors are distinct, still finite, and the
// ones its log holds.
func TestReclaimedDeltasAreNeverReadAgain(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		keep := runForReclaim(t, seed, hfl.RetainAll, false)
		got := runForReclaim(t, seed, hfl.ReleaseAfterObserve, true)

		checkSameRun(t, "released+poisoned vs retained", got.res, keep.res, got.attr, keep.attr)
		if !reflect.DeepEqual(got.attr.PerEpoch, keep.attr.PerEpoch) || !reflect.DeepEqual(got.banned, keep.banned) {
			t.Errorf("seed %d: φ rows or bans differ: %v vs %v", seed, got.banned, keep.banned)
		}
		if !bytes.Equal(got.archive, keep.archive) || len(keep.archive) == 0 {
			t.Errorf("seed %d: archives differ (%d vs %d bytes)", seed, len(got.archive), len(keep.archive))
		}
		if len(keep.banned) == 0 {
			t.Errorf("seed %d: the attacker was never banned; the run exercises no quarantine", seed)
		}

		if len(got.rounds) != testEpochs || len(keep.rounds) != testEpochs {
			t.Fatalf("seed %d: observed %d and %d rounds", seed, len(got.rounds), len(keep.rounds))
		}
		for k, r := range got.rounds[:testEpochs-1] {
			if r.mode.(*bufferedMode).deltas != nil {
				t.Errorf("seed %d: round %d kept its deltas under ReleaseAfterObserve", seed, k+1)
			}
		}
		seen := map[*float64]bool{}
		for k, r := range keep.rounds {
			held := map[*float64]bool{}
			for _, d := range keep.res.Log[k].Deltas {
				held[&d[0]] = true
			}
			for _, d := range r.mode.(*bufferedMode).deltas {
				if d == nil || seen[&d[0]] {
					t.Fatalf("seed %d: RetainAll round %d lost or reused a delta vector", seed, k+1)
				}
				seen[&d[0]] = true
				for _, v := range d {
					if math.IsNaN(v) {
						t.Fatalf("seed %d: RetainAll round %d holds an overwritten delta", seed, k+1)
					}
				}
				delete(held, &d[0])
			}
			if len(held) != 0 {
				t.Errorf("seed %d: epoch %d's log holds vectors the round does not", seed, k+1)
			}
		}
	}
}
