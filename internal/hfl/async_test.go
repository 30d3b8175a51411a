package hfl

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"digfl/internal/faults"
	"digfl/internal/obs"
	"digfl/internal/tensor"
)

// TestPolyWeightFreshIsOne: the staleness discount is the polynomial decay
// (1+s)^(-1/2) — exactly 1 for a fresh update and strictly falling after.
func TestPolyWeightFreshIsOne(t *testing.T) {
	if staleWeight(0) != 1 {
		t.Fatalf("w(0) = %v, want exactly 1", staleWeight(0))
	}
	for s := 1; s <= 5; s++ {
		if staleWeight(s) >= staleWeight(s-1) {
			t.Fatalf("w(%d)=%v not strictly below w(%d)=%v", s, staleWeight(s), s-1, staleWeight(s-1))
		}
		if want := math.Pow(1+float64(s), -0.5); staleWeight(s) != want {
			t.Fatalf("w(%d) = %v, want %v", s, staleWeight(s), want)
		}
	}
}

// TestStaleWeightIsPowBits: 1/√(1+s) has math.Pow(1+s, −0.5)'s bits for
// every staleness s in [0, 10⁶] — the exponent Pow special-cases.
func TestStaleWeightIsPowBits(t *testing.T) {
	for s := 0; s <= 1_000_000; s++ {
		if got, want := staleWeight(s), math.Pow(1+float64(s), -0.5); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("w(%d) = %v (%#x), math.Pow gives %v (%#x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestAsyncConfigValidation(t *testing.T) {
	if _, err := NewAsyncPlanner(AsyncConfig{Quorum: 0, MaxStaleness: 2}, nil, nil); err == nil || !strings.Contains(err.Error(), "Quorum") {
		t.Fatalf("quorum 0 accepted: %v", err)
	}
	if _, err := NewAsyncPlanner(AsyncConfig{Quorum: 2, MaxStaleness: 0}, nil, nil); err == nil || !strings.Contains(err.Error(), "MaxStaleness") {
		t.Fatalf("staleness 0 accepted: %v", err)
	}
	if _, err := NewAsyncPlanner(AsyncConfig{Quorum: 2, MaxStaleness: 2}, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// driveAsync runs a fresh planner for epochs epochs over n always-active
// participants with deterministic unit deltas, and returns every commit.
// It is the shared harness for the property and determinism tests below.
func driveAsync(t *testing.T, cfg AsyncConfig, inj *faults.Injector, n, epochs, p int) []*AsyncCommit {
	t.Helper()
	pl, err := NewAsyncPlanner(cfg, inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	return drivePlanner(t, pl, n, epochs, p, nil)
}

// drivePlanner is driveAsync on a planner the caller built; each, when
// non-nil, sees every epoch's commit and how many deltas the epoch handed in.
func drivePlanner(t *testing.T, pl *AsyncPlanner, n, epochs, p int, each func(ep, fresh int, ac *AsyncCommit)) []*AsyncCommit {
	t.Helper()
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	valGrad := make([]float64, p)
	for j := range valGrad {
		valGrad[j] = 1
	}
	var out []*AsyncCommit
	for ep := 1; ep <= epochs; ep++ {
		sched := pl.Schedule(ep, active)
		deltas := make(map[int][]float64, len(sched.Fresh))
		for _, i := range sched.Fresh {
			d := make([]float64, p)
			for j := range d {
				// Distinct per (epoch, participant) so a wrong fold shows up
				// in the aggregate, not just the attribution.
				d[j] = float64(ep*100+i) + float64(j)
			}
			deltas[i] = d
		}
		ac, err := pl.Commit(ep, p, MeanStream{}, valGrad, sched, deltas)
		if err != nil {
			t.Fatal(err)
		}
		if each != nil {
			each(ep, len(deltas), ac)
		}
		out = append(out, ac)
	}
	return out
}

// TestAsyncPlannerStalenessProperty drives the planner through a lag-heavy
// schedule and checks the policy invariants: no committed update exceeds the
// staleness window, no participant commits twice in one epoch, every commit
// set is ascending, and no (part, origin) update commits twice across the
// run.
func TestAsyncPlannerStalenessProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		inj := faults.MustNew(faults.Config{Seed: seed, Straggler: 0.6})
		cfg := AsyncConfig{Quorum: 3, MaxStaleness: 2}
		commits := driveAsync(t, cfg, inj, 6, 15, 4)
		seen := map[string]bool{}
		for ep, ac := range commits {
			epoch := ep + 1
			inEpoch := map[int]bool{}
			for j, e := range ac.Committed {
				if s := epoch - e.Origin; s < 0 || s > cfg.MaxStaleness {
					t.Fatalf("seed %d epoch %d: committed staleness %d outside [0,%d]", seed, epoch, s, cfg.MaxStaleness)
				}
				if inEpoch[e.Part] {
					t.Fatalf("seed %d epoch %d: participant %d committed twice in one epoch", seed, epoch, e.Part)
				}
				inEpoch[e.Part] = true
				key := fmt.Sprintf("%d@%d", e.Part, e.Origin)
				if seen[key] {
					t.Fatalf("seed %d: update %s committed twice across the run", seed, key)
				}
				seen[key] = true
				if j > 0 && ac.Reported[j] <= ac.Reported[j-1] {
					t.Fatalf("seed %d epoch %d: Reported not ascending: %v", seed, epoch, ac.Reported)
				}
			}
			if len(ac.Reported) > cfg.Quorum {
				t.Fatalf("seed %d epoch %d: %d commits exceed quorum %d", seed, epoch, len(ac.Reported), cfg.Quorum)
			}
			for _, e := range ac.Buffered {
				if e.Due-e.Origin > cfg.MaxStaleness {
					t.Fatalf("seed %d epoch %d: buffered entry part %d due %d origin %d outside window", seed, epoch, e.Part, e.Due, e.Origin)
				}
			}
		}
		if len(seen) == 0 {
			t.Fatalf("seed %d: no commits at all", seed)
		}
	}
}

// TestAsyncPlannerDeterministic re-runs the same schedule and requires
// bit-identical commits: same participants, same aggregates, same dots,
// same buffers.
func TestAsyncPlannerDeterministic(t *testing.T) {
	cfg := AsyncConfig{Quorum: 2, MaxStaleness: 3}
	inj := faults.MustNew(faults.Config{Seed: 7, Straggler: 0.5})
	a := driveAsync(t, cfg, inj, 5, 12, 3)
	b := driveAsync(t, cfg, inj, 5, 12, 3)
	if len(a) != len(b) {
		t.Fatal("commit counts differ")
	}
	for ep := range a {
		ca, cb := a[ep], b[ep]
		if fmt.Sprint(ca.Reported) != fmt.Sprint(cb.Reported) {
			t.Fatalf("epoch %d: reported %v vs %v", ep+1, ca.Reported, cb.Reported)
		}
		for j := range ca.Agg {
			if ca.Agg[j] != cb.Agg[j] {
				t.Fatalf("epoch %d: aggregates differ at %d", ep+1, j)
			}
		}
		for j := range ca.Dots {
			if ca.Dots[j] != cb.Dots[j] {
				t.Fatalf("epoch %d: dots differ at %d", ep+1, j)
			}
		}
		if fmt.Sprint(ca.Buffered) != fmt.Sprint(cb.Buffered) {
			t.Fatalf("epoch %d: buffers differ", ep+1)
		}
	}
}

// TestAsyncPlannerReleasesEachDeltaOnce: with a Release hook every delta
// handed to the planner comes back exactly once — when its commit folded it
// or a staleness rejection dropped it — never while it is still buffered,
// and nothing reads it afterwards (the hook poisons the vector with NaN and
// the commits still equal the hook-less run's bit for bit).
func TestAsyncPlannerReleasesEachDeltaOnce(t *testing.T) {
	const n, epochs, p = 6, 15, 4
	cfg := AsyncConfig{Quorum: 3, MaxStaleness: 2}
	rejected := 0
	for _, seed := range []int64{1, 2, 3} {
		inj := faults.MustNew(faults.Config{Seed: seed, Straggler: 0.6})
		want := driveAsync(t, cfg, inj, n, epochs, p)
		pl, err := NewAsyncPlanner(cfg, inj, nil)
		if err != nil {
			t.Fatal(err)
		}
		released := map[*float64]int{}
		pl.Release = func(d []float64) {
			released[&d[0]]++
			for j := range d {
				d[j] = math.NaN()
			}
		}
		handed := 0
		drivePlanner(t, pl, n, epochs, p, func(ep, fresh int, ac *AsyncCommit) {
			handed += fresh
			rejected += len(ac.Rejected)
			w := want[ep-1]
			if fmt.Sprint(ac.Reported) != fmt.Sprint(w.Reported) || !sameVec(ac.Agg, w.Agg) || !sameVec(ac.Dots, w.Dots) {
				t.Fatalf("seed %d epoch %d: commit differs from the hook-less run (a released delta was read)", seed, ep)
			}
			held := pl.Buffer()
			for _, e := range held {
				if released[&e.Delta[0]] != 0 {
					t.Fatalf("seed %d epoch %d: participant %d's delta released while buffered", seed, ep, e.Part)
				}
			}
			if len(released)+len(held) != handed {
				t.Fatalf("seed %d epoch %d: %d deltas handed in, %d released + %d buffered",
					seed, ep, handed, len(released), len(held))
			}
		})
		for _, c := range released {
			if c != 1 {
				t.Fatalf("seed %d: a delta was released %d times", seed, c)
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no schedule produced a rejection; the reject path went unexercised")
	}
}

// TestAsyncFreshCommitMatchesSyncFold: with no straggler schedule and quorum
// = n every epoch commits the full fresh cohort at weight 1, bit-identical
// to the synchronous streamed fold of the same deltas.
func TestAsyncFreshCommitMatchesSyncFold(t *testing.T) {
	const n, p = 4, 3
	pl, err := NewAsyncPlanner(AsyncConfig{Quorum: n, MaxStaleness: 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	active := []int{0, 1, 2, 3}
	valGrad := []float64{1, -2, 0.5}
	deltas := map[int][]float64{}
	for _, i := range active {
		d := make([]float64, p)
		for j := range d {
			d[j] = float64(0.1*float64(i+1)) + float64(j)
		}
		deltas[i] = d
	}
	sched := pl.Schedule(1, active)
	if len(sched.Fresh) != n || len(sched.InFlight) != 0 {
		t.Fatalf("unexpected schedule %+v", sched)
	}
	ac, err := pl.Commit(1, p, MeanStream{}, valGrad, sched, deltas)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the trainer's streamed fold over the same slots.
	fold := MeanStream{}.NewFold(p, n, valGrad)
	for k, i := range active {
		d := make([]float64, p)
		for j := range d {
			d[j] = float64(0.1*float64(i+1)) + float64(j)
		}
		if err := fold.Add(k, d); err != nil {
			t.Fatal(err)
		}
	}
	fr, err := fold.Close()
	if err != nil {
		t.Fatal(err)
	}
	for j := range fr.Sum {
		if ac.Agg[j] != fr.Sum[j] {
			t.Fatalf("agg[%d] = %v, want %v", j, ac.Agg[j], fr.Sum[j])
		}
	}
	for j := range fr.Dots {
		if ac.Dots[j] != fr.Dots[j] {
			t.Fatalf("dots[%d] = %v, want %v", j, ac.Dots[j], fr.Dots[j])
		}
	}
	if len(ac.Buffered) != 0 {
		t.Fatalf("fresh commit left a buffer: %+v", ac.Buffered)
	}
}

// TestAsyncStaleFoldDiscounts: a buffered update folds at the polynomial
// discount, and the planner emits stale_fold/async_commit events for it.
func TestAsyncStaleFoldDiscounts(t *testing.T) {
	const p = 2
	col := &obs.Collector{}
	pl, err := NewAsyncPlanner(AsyncConfig{Quorum: 2, MaxStaleness: 2}, nil, col)
	if err != nil {
		t.Fatal(err)
	}
	valGrad := []float64{1, 1}
	if !pl.Admit(1, 1, 2, []float64{2, 4}) {
		t.Fatal("admit refused")
	}
	if pl.Admit(1, 1, 2, []float64{9, 9}) {
		t.Fatal("double admit accepted")
	}
	if !pl.InFlight(1) {
		t.Fatal("entry not in flight")
	}
	sched := pl.Schedule(2, []int{0, 1})
	if len(sched.InFlight) != 1 || sched.InFlight[0] != 1 {
		t.Fatalf("participant 1 not excluded: %+v", sched)
	}
	ac, err := pl.Commit(2, p, MeanStream{}, valGrad, sched, map[int][]float64{0: {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ac.Reported) != "[0 1]" {
		t.Fatalf("reported %v", ac.Reported)
	}
	w := staleWeight(1)
	// Mean of fresh {1,1} at weight 1 and stale {2,4} at weight w.
	want0 := (1 + 2*w) / 2
	want1 := (1 + 4*w) / 2
	if math.Abs(ac.Agg[0]-want0) > 1e-15 || math.Abs(ac.Agg[1]-want1) > 1e-15 {
		t.Fatalf("agg %v, want [%v %v]", ac.Agg, want0, want1)
	}
	// Dots[1] = w·(valGrad·δ) = w·6.
	if math.Abs(ac.Dots[1]-6*w) > 1e-15 {
		t.Fatalf("stale dot %v, want %v", ac.Dots[1], 6*w)
	}
	snap := col.Snapshot()
	if snap.StaleFolds != 1 || snap.AsyncCommits != 1 {
		t.Fatalf("events: folds=%d commits=%d", snap.StaleFolds, snap.StaleRejects)
	}
}

// TestAsyncBufferRoundTrip: Buffer/SetBuffer reproduce the planner state
// bit for bit — the WAL recovery seam.
func TestAsyncBufferRoundTrip(t *testing.T) {
	cfg := AsyncConfig{Quorum: 2, MaxStaleness: 3}
	inj := faults.MustNew(faults.Config{Seed: 11, Straggler: 0.5})
	pl, err := NewAsyncPlanner(cfg, inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	active := []int{0, 1, 2, 3, 4}
	valGrad := []float64{1, 1}
	run := func(pl *AsyncPlanner, from, to int) []*AsyncCommit {
		var out []*AsyncCommit
		for ep := from; ep <= to; ep++ {
			sched := pl.Schedule(ep, active)
			deltas := map[int][]float64{}
			for _, i := range sched.Fresh {
				deltas[i] = []float64{float64(ep), float64(i)}
			}
			ac, err := pl.Commit(ep, 2, MeanStream{}, valGrad, sched, deltas)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, ac)
		}
		return out
	}
	first := run(pl, 1, 3)

	// Clone the buffer into a fresh planner and continue both; they must
	// stay bit-identical.
	buf := pl.Buffer()
	entries := make([]*AsyncEntry, len(buf))
	for i, e := range buf {
		c := *e
		c.Delta = tensor.Clone(e.Delta)
		entries[i] = &c
	}
	pl2, err := NewAsyncPlanner(cfg, inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	pl2.SetBuffer(entries)
	contA := run(pl, 4, 7)
	contB := run(pl2, 4, 7)
	_ = first
	for ep := range contA {
		if fmt.Sprint(contA[ep].Reported) != fmt.Sprint(contB[ep].Reported) {
			t.Fatalf("epoch %d: reported diverged after SetBuffer", ep+4)
		}
		for j := range contA[ep].Agg {
			if contA[ep].Agg[j] != contB[ep].Agg[j] {
				t.Fatalf("epoch %d: agg diverged after SetBuffer", ep+4)
			}
		}
	}
}
