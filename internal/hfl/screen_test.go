package hfl

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// dropScreen drops fixed global participant indices every epoch.
type dropScreen struct{ bad map[int]bool }

func (s dropScreen) Screen(ep *Epoch, reported []int) ([]int, error) {
	var drop []int
	for k, i := range reported {
		if s.bad[i] {
			drop = append(drop, k)
		}
	}
	return drop, nil
}

// TestScreenerCompactsEpoch: a screener dropping participant 1 degrades
// every epoch to the survivors and aggregation renormalizes over them.
func TestScreenerCompactsEpoch(t *testing.T) {
	tr, _ := setup(t, 3)
	tr.Screen = dropScreen{bad: map[int]bool{1: true}}
	res := tr.Run()
	for _, ep := range res.Log {
		if !reflect.DeepEqual(ep.Reported, []int{0, 2}) {
			t.Fatalf("epoch %d Reported = %v, want [0 2]", ep.T, ep.Reported)
		}
		if len(ep.Deltas) != 2 {
			t.Fatalf("epoch %d kept %d deltas", ep.T, len(ep.Deltas))
		}
	}
	if res.FinalLoss >= res.InitLoss {
		t.Fatal("screened training did not reduce loss")
	}
}

// TestScreenerNoopBitIdentity: a screener returning no drops leaves the
// run bit-identical to an unscreened one.
func TestScreenerNoopBitIdentity(t *testing.T) {
	tr, _ := setup(t, 4)
	base := tr.Run()
	tr2, _ := setup(t, 4)
	tr2.Screen = dropScreen{}
	screened := tr2.Run()
	if !reflect.DeepEqual(base.ValLossCurve, screened.ValLossCurve) {
		t.Fatal("no-op screener changed the loss curve")
	}
	if !reflect.DeepEqual(base.Model.Params(), screened.Model.Params()) {
		t.Fatal("no-op screener changed the final model")
	}
	for _, ep := range screened.Log {
		if ep.Reported != nil {
			t.Fatal("no-op screener degraded an epoch")
		}
	}
}

type errScreen struct{}

func (errScreen) Screen(*Epoch, []int) ([]int, error) { return nil, errors.New("screen boom") }

type badPosScreen struct{}

func (badPosScreen) Screen(ep *Epoch, _ []int) ([]int, error) { return []int{len(ep.Deltas)}, nil }

// TestScreenerErrors: screener errors and out-of-range drop positions
// fail the run with an error, not a panic.
func TestScreenerErrors(t *testing.T) {
	tr, _ := setup(t, 5)
	tr.Screen = errScreen{}
	if _, err := tr.RunContext(context.Background()); err == nil || !strings.Contains(err.Error(), "screen boom") {
		t.Fatalf("screen error not surfaced: %v", err)
	}
	tr2, _ := setup(t, 5)
	tr2.Screen = badPosScreen{}
	if _, err := tr2.RunContext(context.Background()); err == nil || !strings.Contains(err.Error(), "dropped position") {
		t.Fatalf("bad drop position not surfaced: %v", err)
	}
}

// errAgg returns an error from Aggregate; the trainer must surface it
// through the RunContext contract instead of panicking.
type errAgg struct{}

func (errAgg) Aggregate(*Epoch) ([]float64, error) { return nil, errors.New("agg boom") }

// TestAggregatorErrorSurfaced checks the error-returning aggregator
// contract.
func TestAggregatorErrorSurfaced(t *testing.T) {
	tr, _ := setup(t, 6)
	tr.Aggregator = errAgg{}
	if _, err := tr.RunContext(context.Background()); err == nil || !strings.Contains(err.Error(), "agg boom") {
		t.Fatalf("Aggregate error not surfaced: %v", err)
	}
}
