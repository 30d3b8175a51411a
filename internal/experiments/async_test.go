package experiments

import (
	"reflect"
	"testing"
)

// TestAsyncStudyGates is the buffered-federation acceptance gate: the
// rate-0 async arm must reproduce the plain streamed trainer bit for bit,
// the study must be deterministic, and at the highest sticky-straggler
// rate the staleness-discounted fold must reach the no-fault loss target
// in fewer epochs than the synchronous drop (which is floored by the
// permanently missing class-disjoint shard).
func TestAsyncStudyGates(t *testing.T) {
	r := Async(QuickOpts())
	if !r.FreshIdentical {
		t.Error("rate-0 async arm not bit-identical to the streamed reference")
	}
	if !r.Deterministic {
		t.Error("async arm rerun diverged (model/curve/phi)")
	}
	if !r.StragglerAdvantage {
		t.Errorf("async fold shows no epochs-to-target advantage at rate %g:\n%+v",
			asyncRates[len(asyncRates)-1], r.Rows)
	}
	var folds int64
	for _, a := range r.Rows {
		folds += a.StaleFolds
	}
	if folds == 0 {
		t.Error("no arm folded a stale update — the lag schedule never fired")
	}
	for _, a := range r.Rows {
		if a.Mode == "sync-drop" && a.AsyncCommits+a.StaleFolds+a.StaleRejects != 0 {
			t.Errorf("sync arm %+v has async counters", a)
		}
	}
	checkGolden(t, r.Tables(), goldenAsync)
}

// TestAsyncStudyRerunIdentical pins the report (rows, counters, gates) as
// a pure function of Opts — the property `make verify-async` gates on.
func TestAsyncStudyRerunIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full study twice")
	}
	if !reflect.DeepEqual(Async(QuickOpts()).Tables(), Async(QuickOpts()).Tables()) {
		t.Error("async study rerun produced different tables")
	}
}
