package hfl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"digfl/internal/dataset"
	"digfl/internal/faults"
	"digfl/internal/nn"
	"digfl/internal/obs"
	"digfl/internal/sampling"
	"digfl/internal/tensor"
)

// setupWide builds an 8-participant problem for cohort sampling tests.
func setupWide(t *testing.T, seed int64) *Trainer {
	t.Helper()
	rng := tensor.NewRNG(seed)
	full := dataset.MNISTLike(400, seed)
	train, val := full.Split(0.2, rng)
	parts := dataset.PartitionIID(train, 8, rng)
	return &Trainer{
		Model: nn.NewSoftmaxRegression(train.Dim(), train.Classes),
		Parts: parts,
		Val:   val,
		Cfg:   Config{Epochs: 12, LR: 0.3, KeepLog: true},
	}
}

// A sampled epoch must record its cohort as Reported (so unsampled
// participants get zero φ rows downstream) and only cohort members may
// carry deltas.
func TestSampledEpochsReportCohort(t *testing.T) {
	tr := setupWide(t, 1)
	tr.Cfg.Sample = sampling.MustNew(sampling.Config{Seed: 3, Size: 3})
	res := tr.Run()
	if res.FinalLoss >= res.InitLoss {
		t.Fatalf("sampled run failed to train: %v -> %v", res.InitLoss, res.FinalLoss)
	}
	for _, ep := range res.Log {
		if ep.Reported == nil {
			t.Fatalf("epoch %d: sampled epoch with nil Reported", ep.T)
		}
		if len(ep.Reported) != 3 || len(ep.Deltas) != 3 {
			t.Fatalf("epoch %d: cohort %v with %d deltas, want 3", ep.T, ep.Reported, len(ep.Deltas))
		}
		// The recorded cohort must be exactly the sampler's draw.
		pop := make([]int, 8)
		for i := range pop {
			pop[i] = i
		}
		want := tr.Cfg.Sample.Cohort(ep.T, pop)
		for k, i := range ep.Reported {
			if want[k] != i {
				t.Fatalf("epoch %d: Reported %v, sampler drew %v", ep.T, ep.Reported, want)
			}
		}
	}
}

// Sampled runs must be bit-identical across reruns and across
// checkpoint/resume, for several seeds, with the fault injector composed in
// — the cohort sequence is a pure function of (seed, epoch), never of where
// the run restarted.
func TestSampledRunDeterminismAndResume(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		mk := func(withCrash bool) *Trainer {
			tr := setupWide(t, 11)
			tr.Cfg.Sample = sampling.MustNew(sampling.Config{Seed: seed, Size: 3})
			fc := faults.Config{Seed: seed + 100, Dropout: 0.2}
			if withCrash {
				fc.CrashEpoch = 8
				tr.Cfg.Faults = faults.MustNew(fc)
			} else {
				tr.Cfg.Faults = faults.MustNew(fc).WithoutCrash()
			}
			return tr
		}

		// Uninterrupted reference, run twice: bit-identical.
		want, err := mk(false).RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		again, err := mk(false).RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !sameVec(want.Model.Params(), again.Model.Params()) || !sameVec(want.ValLossCurve, again.ValLossCurve) {
			t.Fatalf("seed %d: two sampled runs differ", seed)
		}
		sameLog(t, want.Log, again.Log)

		// Crash mid-run, resume from the latest checkpoint: identical again.
		var last *Checkpoint
		crash := mk(true)
		crash.Cfg.CheckpointEvery = 3
		crash.Cfg.CheckpointFunc = func(ck *Checkpoint) error {
			cp := *ck
			cp.Log = append([]*Epoch(nil), ck.Log...)
			last = &cp
			return nil
		}
		_, err = crash.RunContext(context.Background())
		var ce *faults.CrashError
		if !errors.As(err, &ce) {
			t.Fatalf("seed %d: expected injected crash, got %v", seed, err)
		}
		resumed := mk(false)
		resumed.Cfg.Resume = last
		got, err := resumed.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !sameVec(want.Model.Params(), got.Model.Params()) || !sameVec(want.ValLossCurve, got.ValLossCurve) {
			t.Fatalf("seed %d: resumed sampled run differs from uninterrupted", seed)
		}
		sameLog(t, want.Log, got.Log)
	}
}

// A pass-through sampler (Size ≥ population) must leave the run
// bit-identical to an unsampled one, Reported fields included.
func TestSamplePassThroughBitIdentical(t *testing.T) {
	plain := setupWide(t, 2)
	want := plain.Run()
	s := setupWide(t, 2)
	s.Cfg.Sample = sampling.MustNew(sampling.Config{Seed: 1, Size: 8})
	got := s.Run()
	if !sameVec(want.Model.Params(), got.Model.Params()) || !sameVec(want.ValLossCurve, got.ValLossCurve) {
		t.Fatal("pass-through sampler perturbed the run")
	}
	sameLog(t, want.Log, got.Log)
}

// TestSampleLookaheadMatchesDirectDraw: the trainer takes epoch t+1's cohort
// from a draw started an epoch early; whatever the run went through, the
// cohort it used at every epoch — Epoch.Reported plus the epoch's dropout
// events — is Sampler.Cohort(t, subset) called directly, and exactly one
// sample event of that size was emitted for the epoch. Run under -race: the
// draw ahead shares subset and the sampler with the training goroutine.
func TestSampleLookaheadMatchesDirectDraw(t *testing.T) {
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	const epochs = 12
	for _, seed := range []int64{1, 7, 42} {
		for _, weights := range [][]float64{nil, {1, 3, 0.5, 2, 2, 0.25, 4, 1}} {
			// run trains subset from resume (nil: fresh) with the given fault
			// schedule and checks every epoch it reached; it returns the run's
			// last checkpoint and its error.
			run := func(name string, subset []int, size int, fc *faults.Config, resume *Checkpoint) (*Checkpoint, error) {
				t.Helper()
				tr := setupWide(t, 11)
				tr.Cfg.Epochs = epochs
				tr.Cfg.Sample = sampling.MustNew(sampling.Config{Seed: seed, Size: size, Weights: weights})
				if fc != nil {
					tr.Cfg.Faults = faults.MustNew(*fc)
				}
				tr.Cfg.Resume = resume
				var last *Checkpoint
				tr.Cfg.CheckpointEvery = 4
				tr.Cfg.CheckpointFunc = func(ck *Checkpoint) error { last = ck; return nil }
				rec := &kindRecorder{}
				tr.Cfg.Runtime.Sink = rec
				var seen []*Epoch
				tr.Observer = func(ep *Epoch) { seen = append(seen, ep) }
				_, err := tr.RunSubsetContext(context.Background(), subset)

				first := 1
				if resume != nil {
					first = resume.Epoch + 1
				}
				for k, ep := range seen {
					if ep.T != first+k {
						t.Fatalf("%s: observed epoch %d at position %d of a run starting at %d", name, ep.T, k, first)
					}
					cohort := tr.Cfg.Sample.Cohort(ep.T, subset)
					active, dropped := tr.Cfg.Faults.Survivors(ep.T, cohort)
					if !reflect.DeepEqual(ep.Reported, active) {
						t.Fatalf("%s: epoch %d trained %v, the direct draw %v leaves %v", name, ep.T, ep.Reported, cohort, active)
					}
					var gotDropped []int
					samples := 0
					for _, e := range rec.events {
						switch {
						case int(e[1]) != ep.T:
						case obs.Kind(e[0]) == obs.KindDropout:
							gotDropped = append(gotDropped, int(e[2]))
						case obs.Kind(e[0]) == obs.KindSample:
							samples++
							if int(e[3]) != len(cohort) {
								t.Fatalf("%s: epoch %d sample event of %d, cohort of %d", name, ep.T, e[3], len(cohort))
							}
						}
					}
					if samples != 1 || !reflect.DeepEqual(gotDropped, dropped) {
						t.Fatalf("%s: epoch %d emitted %d sample events and dropouts %v, want 1 and %v",
							name, ep.T, samples, gotDropped, dropped)
					}
				}
				if err == nil && first+len(seen) != epochs+1 {
					t.Fatalf("%s: run observed epochs %d..%d of %d", name, first, first+len(seen)-1, epochs)
				}
				return last, err
			}

			name := fmt.Sprintf("seed %d weighted %v", seed, weights != nil)
			if _, err := run(name+" fresh", all, 3, nil, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := run(name+" coalition", []int{6, 1, 4, 2, 7}, 2, nil, nil); err != nil {
				t.Fatal(err)
			}
			dropout := faults.Config{Seed: seed + 100, Dropout: 0.3}
			mid, err := run(name+" dropout", all, 3, &dropout, nil)
			if err != nil || mid == nil || mid.Epoch != epochs {
				t.Fatalf("%s dropout: err %v, last checkpoint %+v", name, err, mid)
			}
			// A crash at epoch 7 abandons the draw started for it at epoch 6;
			// the resumed run draws its first epoch inline.
			crashing := dropout
			crashing.CrashEpoch = 7
			ck, err := run(name+" crash", all, 3, &crashing, nil)
			var ce *faults.CrashError
			if !errors.As(err, &ce) || ck == nil || ck.Epoch != 4 {
				t.Fatalf("%s crash: err %v, last checkpoint %+v", name, err, ck)
			}
			if _, err := run(name+" resumed", all, 3, &dropout, ck); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// zeroDur forwards events with the measured duration cleared: what is left
// of a trace is a pure function of the run's configuration.
type zeroDur struct{ obs.Sink }

func (z zeroDur) Emit(e obs.Event) { e.Dur = 0; z.Sink.Emit(e) }

// TestSampledTraceGolden pins the obs trace of a short sampled run with
// dropout, as recorded before the trainer drew cohorts an epoch ahead: the
// lookahead emits nothing and moves no sample or dropout event.
func TestSampledTraceGolden(t *testing.T) {
	tr := setupWide(t, 5)
	tr.Cfg.Epochs = 3
	tr.Cfg.Sample = sampling.MustNew(sampling.Config{Seed: 9, Size: 3})
	tr.Cfg.Faults = faults.MustNew(faults.Config{Seed: 4, Dropout: 0.3})
	var buf bytes.Buffer
	tw := obs.NewTraceWriter(&buf)
	tr.Cfg.Runtime.Sink = zeroDur{tw}
	if _, err := tr.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != sampledTraceGolden {
		t.Fatalf("sampled trace differs from the golden:\n%s", got)
	}
}

const sampledTraceGolden = `{"format":"digfl-trace","version":1}
{"kind":"epoch_start","t":1}
{"kind":"sample","t":1,"n":3}
{"kind":"dropout","t":1,"part":4}
{"kind":"local_update","t":1,"part":3}
{"kind":"local_update","t":1,"part":6}
{"kind":"pool_task","n":2,"workers":1}
{"kind":"aggregate","t":1,"n":2}
{"kind":"epoch_end","t":1,"value":0.9245048528208717}
{"kind":"epoch_start","t":2}
{"kind":"sample","t":2,"n":3}
{"kind":"dropout","t":2,"part":5}
{"kind":"local_update","t":2,"part":4}
{"kind":"local_update","t":2,"part":6}
{"kind":"pool_task","n":2,"workers":1}
{"kind":"aggregate","t":2,"n":2}
{"kind":"epoch_end","t":2,"value":0.5001314966744679}
{"kind":"epoch_start","t":3}
{"kind":"sample","t":3,"n":3}
{"kind":"local_update","t":3,"part":1}
{"kind":"local_update","t":3,"part":2}
{"kind":"local_update","t":3,"part":5}
{"kind":"pool_task","n":3,"workers":1}
{"kind":"aggregate","t":3,"n":3}
{"kind":"epoch_end","t":3,"value":0.28706568619803324}
`
