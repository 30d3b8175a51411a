package hfl

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"digfl/internal/faults"
	"digfl/internal/sampling"
	"digfl/internal/tensor"
)

// foldDeltas builds k deterministic pseudo-random deltas of dimension p.
func foldDeltas(k, p int, seed int64) [][]float64 {
	rng := tensor.NewRNG(seed)
	out := make([][]float64, k)
	for i := range out {
		d := make([]float64, p)
		for j := range d {
			d[j] = rng.NormFloat64()
		}
		out[i] = d
	}
	return out
}

// Arrival order must not change a single bit of the fold's output: the
// in-order commit rule fixes the reduction order at slot order.
func TestMeanFoldArrivalOrderInvariant(t *testing.T) {
	const k, p = 7, 11
	deltas := foldDeltas(k, p, 1)
	vg := foldDeltas(1, p, 2)[0]
	orders := [][]int{
		{0, 1, 2, 3, 4, 5, 6},
		{6, 5, 4, 3, 2, 1, 0},
		{3, 0, 6, 1, 5, 2, 4},
	}
	var want *FoldResult
	for _, order := range orders {
		f := MeanStream{}.NewFold(p, k, vg)
		for _, s := range order {
			if err := f.Add(s, append([]float64(nil), deltas[s]...)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if !sameVec(want.Sum, got.Sum) || !sameVec(want.Dots, got.Dots) {
			t.Fatalf("fold output depends on arrival order %v", order)
		}
	}
	for j, s := range want.Slots {
		if s != j {
			t.Fatalf("slots %v not in slot order", want.Slots)
		}
	}
}

// The one reduction order: the updates summed in slot order from zero, then
// one 1/k scale. The fold holds nothing a recycling caller waits on after
// each four-wide pass and once the last slot is in.
func TestMeanFoldSegmentedReduction(t *testing.T) {
	const k, p = 7, 5
	deltas := foldDeltas(k, p, 3)
	f := MeanStream{}.NewFold(p, k, nil)
	for s, d := range deltas {
		if err := f.Add(s, d); err != nil {
			t.Fatal(err)
		}
		if pend := f.(*meanFold).Pending(); (s%4 == 3 || s == k-1) && pend != 0 {
			t.Fatalf("slot %d completes a pass, yet %d updates pending", s, pend)
		}
	}
	got, err := f.Close()
	if err != nil {
		t.Fatal(err)
	}
	// Reference: the same operations, spelled out.
	acc := make([]float64, p)
	for _, d := range deltas {
		tensor.AXPY(1, d, acc)
	}
	tensor.Scale(1.0/k, acc)
	if !sameVec(acc, got.Sum) {
		t.Fatal("fold differs from the spelled-out reduction")
	}
}

// A fold with gaps (stragglers that never report) averages over the arrived
// updates and commits parked out-of-order slots at Close.
func TestMeanFoldGaps(t *testing.T) {
	const k, p = 6, 4
	deltas := foldDeltas(k, p, 4)
	f := MeanStream{}.NewFold(p, k, nil)
	// Slots 0 and 3 never arrive; 4 and 5 arrive before 1 and 2.
	for _, s := range []int{4, 5, 2, 1} {
		if err := f.Add(s, deltas[s]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := f.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, p)
	for _, s := range []int{1, 2, 4, 5} {
		tensor.AXPY(1, deltas[s], want)
	}
	tensor.Scale(1.0/4, want)
	if !sameVec(want, got.Sum) {
		t.Fatal("gap fold averaged wrong")
	}
	if len(got.Slots) != 4 || got.Slots[0] != 1 || got.Slots[3] != 5 {
		t.Fatalf("gap fold slots %v", got.Slots)
	}
}

func TestMeanFoldRejects(t *testing.T) {
	f := MeanStream{}.NewFold(3, 2, nil)
	if err := f.Add(2, make([]float64, 3)); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
	if err := f.Add(0, make([]float64, 2)); err == nil {
		t.Fatal("wrong-length delta accepted")
	}
	if err := f.Add(0, make([]float64, 3)); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(0, make([]float64, 3)); err == nil {
		t.Fatal("duplicate slot accepted")
	}
	if _, err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Close(); err == nil {
		t.Fatal("double Close accepted")
	}
	if err := f.Add(1, make([]float64, 3)); err == nil {
		t.Fatal("Add after Close accepted")
	}
}

// A MeanStream{} run is the buffered run bit for bit — θ, the loss curve,
// and every epoch's DeltaDots against DotRows over the buffered deltas —
// on flat, sampled and dropout runs over 3 seeds: the buffered mean is the
// fold's one-segment order.
func TestStreamedRunMatchesBuffered(t *testing.T) {
	shapes := map[string]func(seed int64) *Trainer{
		"flat": func(seed int64) *Trainer { tr, _ := setup(t, seed); return tr },
		"sampled": func(seed int64) *Trainer {
			tr := setupWide(t, seed)
			tr.Cfg.Sample = sampling.MustNew(sampling.Config{Seed: seed, Size: 5})
			return tr
		},
		"dropout": func(seed int64) *Trainer {
			tr, _ := setup(t, seed)
			tr.Cfg.Faults = faults.MustNew(faults.Config{Seed: seed, Dropout: 0.3})
			return tr
		},
	}
	for name, mk := range shapes {
		for _, seed := range []int64{21, 22, 23} {
			buf := mk(seed).Run()
			str := mk(seed)
			str.Stream = MeanStream{}
			got := str.Run()
			if !sameVec(got.Model.Params(), buf.Model.Params()) || !sameVec(got.ValLossCurve, buf.ValLossCurve) {
				t.Fatalf("%s seed %d: streamed run differs from buffered", name, seed)
			}
			for i, ep := range got.Log {
				bep := buf.Log[i]
				if ep.Deltas != nil {
					t.Fatalf("%s seed %d: streamed epoch %d retained raw deltas", name, seed, ep.T)
				}
				want := make([]float64, len(bep.Deltas))
				tensor.DotRows(want, bep.ValGrad, bep.Deltas)
				if !sameVec(ep.DeltaDots, want) {
					t.Fatalf("%s seed %d: epoch %d dots %v, buffered %v", name, seed, ep.T, ep.DeltaDots, want)
				}
			}
		}
	}
}

// TestStreamRefusesBufferedPlugins: every plugin that consumes the round
// buffer is refused beside Stream with the one error naming both, before an
// epoch runs.
func TestStreamRefusesBufferedPlugins(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(tr *Trainer)
	}{
		{"Aggregator", func(tr *Trainer) { tr.Aggregator = nopAggregator{} }},
		{"Reweighter", func(tr *Trainer) { tr.Reweighter = fixedReweighter{1} }},
		{"Screen", func(tr *Trainer) { tr.Screen = noopScreener{} }},
	} {
		tr, _ := setup(t, 5)
		tr.Stream = MeanStream{}
		tc.set(tr)
		_, err := tr.RunContext(context.Background())
		if err == nil || !strings.Contains(err.Error(), "Stream cannot compose with") || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("Stream+%s: %v", tc.name, err)
		}
	}
}

type noopScreener struct{}

func (noopScreener) Screen(*Epoch, []int) ([]int, error) { return nil, nil }

type nopAggregator struct{}

func (nopAggregator) Aggregate(*Epoch) ([]float64, error) { return nil, nil }

// ReleaseAfterObserve frees each epoch's raw deltas once the Observer has
// run — the observer still sees them, the log keeps the slim record, and
// the training outputs are untouched.
func TestRetainDeltasRelease(t *testing.T) {
	keep, _ := setup(t, 9)
	want := keep.Run()

	rel, _ := setup(t, 9)
	rel.Cfg.RetainDeltas = ReleaseAfterObserve
	sawDeltas := 0
	rel.Observer = func(ep *Epoch) {
		if len(ep.Deltas) > 0 {
			sawDeltas++
		}
	}
	got := rel.Run()

	if sawDeltas != rel.Cfg.Epochs {
		t.Fatalf("observer saw deltas in %d/%d epochs", sawDeltas, rel.Cfg.Epochs)
	}
	for _, ep := range got.Log {
		if ep.Deltas != nil {
			t.Fatalf("epoch %d retained deltas under ReleaseAfterObserve", ep.T)
		}
		if ep.ValGrad == nil || ep.Theta == nil {
			t.Fatalf("epoch %d lost its slim record", ep.T)
		}
	}
	if !sameVec(want.Model.Params(), got.Model.Params()) || !sameVec(want.ValLossCurve, got.ValLossCurve) {
		t.Fatal("releasing deltas perturbed the run")
	}
}

// TestMeanFoldOrderAndStaging: a MeanStream fold's result is the same bits —
// sum, slots and dots — whatever the arrival order, for 0…9 slots (every
// split into four-wide passes and a tail of 1…3), with and without a gap
// that falls inside a stage, with and without a validation gradient, whether
// the slots start at 0 (in-order arrivals stage at once) or behind slots
// that never arrive (everything parks until Close). It equals the
// spelled-out Dot + AXPY reference scaled once by 1/m, and Pending counts
// every delta held unfolded, staged or parked.
func TestMeanFoldOrderAndStaging(t *testing.T) {
	const p, first, k = 9, 2, 13
	deltas := foldDeltas(first+11, p, 6)
	rng := tensor.NewRNG(8)
	for n := 0; n <= 9; n++ {
		for _, gap := range []bool{false, true} {
			present := make([]int, n) // n slots from first; a gap skips first+n/2
			for j := range present {
				present[j] = first + j
				if gap && j >= n/2 {
					present[j]++
				}
			}
			reversed := make([]int, n)
			for j, s := range present {
				reversed[n-1-j] = s
			}
			shuffled := make([]int, n)
			for j, k := range rng.Perm(n) {
				shuffled[j] = present[k]
			}
			for _, vg := range [][]float64{foldDeltas(1, p, 7)[0], nil} {
				wantSum, wantDots := make([]float64, p), []float64(nil)
				for _, s := range present {
					if vg != nil {
						wantDots = append(wantDots, tensor.Dot(vg, deltas[s]))
					}
					tensor.AXPY(1, deltas[s], wantSum)
				}
				if n > 0 {
					tensor.Scale(1/float64(n), wantSum)
				} else {
					wantSum = nil
				}
				// lo = first shifts the slots down to start at 0, where
				// in-order arrivals stage at once; lo = 0 leaves slots
				// 0…first-1 missing, so everything parks until Close.
				for _, lo := range []int{first, 0} {
					shift := lo
					for _, order := range [][]int{present, reversed, shuffled} {
						name := fmt.Sprintf("n=%d gap=%v dots=%v lo=%d order %v", n, gap, vg != nil, lo, order)
						f := MeanStream{}.NewFold(p, k, vg)
						added := map[int]bool{}
						for j, s := range order {
							if err := f.Add(s-shift, deltas[s]); err != nil {
								t.Fatal(err)
							}
							added[s] = true
							run := 0 // the slots that continue the run from slot 0
							for lo == first && added[first+run] {
								run++
							}
							if want := j + 1 - run/4*4; f.(*meanFold).Pending() != want {
								t.Fatalf("%s: after %d adds %d pending; want %d", name, j+1, f.(*meanFold).Pending(), want)
							}
						}
						got, err := f.Close()
						if err != nil {
							t.Fatal(err)
						}
						if !sameVec(got.Sum, wantSum) || !sameVec(got.Dots, wantDots) || (vg == nil && got.Dots != nil) {
							t.Fatalf("%s: result differs from the Dot+AXPY reference", name)
						}
						slots := make([]int, len(got.Slots))
						for j, s := range got.Slots {
							slots[j] = s + shift
						}
						if fmt.Sprint(slots) != fmt.Sprint(present) || f.(*meanFold).Pending() != 0 {
							t.Fatalf("%s: slots %v, %d pending after Close", name, slots, f.(*meanFold).Pending())
						}
					}
				}
			}
		}
	}
}
