package fednet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"digfl/internal/core"
	"digfl/internal/hfl"
	"digfl/internal/robust"
)

// TestCompositionRefusedBeforeJoin: every row of the composition table is
// refused by Run with no participant joined — within a second, with that
// row's error, not a byte in the journal and no goroutine left behind. Rows
// that used to sit behind the join barrier (Stream × Quarantine, Archive)
// blocked forever here, after writing run_open; a streamed run with an
// Interactive estimator got past it and deadlocked at the first close. Each
// row naming Stream is refused for each way of streaming a run: Stream or
// Async alone.
func TestCompositionRefusedBeforeJoin(t *testing.T) {
	model, parts, val := problem(5)
	async := func() *hfl.AsyncConfig { ac := asyncPolicy(); return &ac }
	// One misconfiguration per table row, in table order. Every case also
	// gets a Journal (so "no byte written" means something) unless that
	// would trip an earlier row.
	cases := []struct {
		row       string
		set       func(c *Coordinator)
		noJournal bool
	}{
		{"Journal cannot compose with Cfg.Resume", func(c *Coordinator) { c.Cfg.Resume = &hfl.Checkpoint{} }, false},
		{"Async cannot compose with Quarantine", func(c *Coordinator) {
			c.Quarantine = robust.MustNewQuarantine(robust.Quarantine{})
		}, false},
		{"Stream cannot compose with Archive", func(c *Coordinator) { c.Archive = &bytes.Buffer{} }, false},
		{"Stream cannot compose with Interactive Estimator", func(c *Coordinator) {
			c.Estimator = core.NewHFLEstimator(testN, model.NumParams(), core.Interactive, core.LocalHVP(model, parts))
		}, false},
	}
	if len(cases) != len(composition) {
		t.Fatalf("%d cases for %d composition rows", len(cases), len(composition))
	}
	for i, tc := range cases {
		rule := &composition[i]
		if got := rule.a + " " + rule.rel + " " + rule.b; got != tc.row {
			t.Fatalf("row %d is %q, case is %q", i, got, tc.row)
		}
		// A case for a row naming Stream leaves the run buffered; each way
		// of streaming it is applied on top (Async: the one way).
		streamers := []func(c *Coordinator){func(*Coordinator) {}}
		switch {
		case rule.a == "Stream" || rule.b == "Stream":
			streamers = []func(c *Coordinator){
				func(c *Coordinator) { c.Stream = hfl.MeanStream{} },
				func(c *Coordinator) { c.Async = async() },
			}
		case rule.a == "Async":
			streamers = []func(c *Coordinator){
				func(c *Coordinator) { c.Async = async() },
			}
		}
		t.Run(tc.row, func(t *testing.T) {
			for _, stream := range streamers {
				before := runtime.NumGoroutine()
				journal := &bytes.Buffer{}
				c := &Coordinator{N: testN, Model: model, Val: val, Cfg: testConfig()}
				if !tc.noJournal {
					c.Journal = journal
				}
				tc.set(c)
				stream(c)
				done := make(chan error, 1)
				go func() {
					_, err := c.Run(context.Background())
					done <- err
				}()
				var err error
				select {
				case err = <-done:
				case <-time.After(time.Second):
					t.Fatalf("Run still waiting after 1 s with no participant joined (journal holds %d bytes)", journal.Len())
				}
				switch {
				case err == nil:
					t.Fatal("Run accepted the configuration")
				case err.Error() != rule.Error():
					t.Errorf("error %q, want row %d's %q", err, i, rule.Error())
				}
				if journal.Len() != 0 {
					t.Errorf("refused run wrote %d journal bytes", journal.Len())
				}
				// The Run goroutine has sent its error but may not have exited yet.
				if !goroutinesSettle(before, time.Second) {
					t.Errorf("goroutines: %d before, %d after", before, runtime.NumGoroutine())
				}
			}
		})
	}
}

// TestCompositionMatrixInREADME: the README's "What composes with what"
// matrix is the composition table, row for row.
func TestCompositionMatrixInREADME(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- composition:begin -->\n", "<!-- composition:end -->"
	_, rest, ok := strings.Cut(string(readme), begin)
	got, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("README.md has no %s… %s block", strings.TrimSpace(begin), end)
	}
	var want strings.Builder
	want.WriteString("| Setting | | With | Because |\n|---|---|---|---|\n")
	for _, r := range composition {
		fmt.Fprintf(&want, "| `%s` | %s | `%s` | %s |\n", r.a, r.rel, r.b, r.why)
	}
	if got != want.String() {
		t.Errorf("README composition matrix differs from compose.go's table; it should read:\n%s", want.String())
	}
}

// TestModeOnlyEndpointsRefused: the ingest path only one mode serves stays
// refused on the others — an update for an older round on a round that is
// not async answers 409 stale_round, not the async late path's 202.
func TestModeOnlyEndpointsRefused(t *testing.T) {
	const p = 3
	for _, tc := range []struct {
		name   string
		stream hfl.StreamAggregator
		mode   roundMode
	}{
		{"buffered", nil, &bufferedMode{}},
		{"streamed", hfl.MeanStream{}, &streamedMode{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := &Coordinator{N: 2, Cfg: testConfig(), Stream: tc.stream}
			spec := &hfl.RoundSpec{T: 2, Theta: make([]float64, p), Active: []int{0, 1}}
			if tc.stream != nil {
				spec.ValGrad = make([]float64, p)
			}
			r := c.newRoundLocked(spec)
			if fmt.Sprintf("%T", r.mode) != fmt.Sprintf("%T", tc.mode) {
				t.Fatalf("round mode %T, want %T", r.mode, tc.mode)
			}
			openTestRound(c, r)
			post := func(path string, frame []byte) (*httptest.ResponseRecorder, errorReply) {
				req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(frame))
				req.Header.Set("Content-Type", contentTypeBinary)
				w := httptest.NewRecorder()
				c.Handler().ServeHTTP(w, req)
				var er errorReply
				_ = json.Unmarshal(w.Body.Bytes(), &er)
				return w, er
			}
			if w, er := post("/v1/update", updateFrame(t, 1, 0, []float64{1, 2, 3})); w.Code != http.StatusConflict || er.Code != CodeStaleRound {
				t.Errorf("update for round 1 on open round 2: status %d code %q, want 409 %s", w.Code, er.Code, CodeStaleRound)
			}
			if r.got != 0 {
				t.Errorf("a refused request committed %d slots", r.got)
			}
		})
	}
}

// TestCompositionStreamedIsOnePredicate: Stream and Async each stream the
// run, and so does a Quarantine that nothing needing raw deltas keeps
// buffered; Stream only names the fold (MeanStream{} when it is nil), and
// the round mode follows from the two. A Quarantine run is buffered only
// with an Archive or an Interactive estimator.
func TestCompositionStreamedIsOnePredicate(t *testing.T) {
	ac := asyncPolicy()
	rs := core.NewHFLEstimator(4, 3, core.ResourceSaving, nil)
	interactive := core.NewHFLEstimator(4, 3, core.Interactive, func([]float64, int, []float64) []float64 { return nil })
	quarantine := func(est *core.HFLEstimator) *robust.Quarantine {
		return robust.MustNewQuarantine(robust.Quarantine{Estimator: est})
	}
	for _, tc := range []struct {
		name string
		c    *Coordinator
		fold hfl.StreamAggregator
		mode roundMode
	}{
		{"buffered", &Coordinator{N: 4}, nil, &bufferedMode{}},
		{"Stream", &Coordinator{N: 4, Stream: namedStream{2}}, namedStream{2}, &streamedMode{}},
		{"Async", &Coordinator{N: 4, Async: &ac}, hfl.MeanStream{}, &asyncMode{}},
		{"Async+Stream", &Coordinator{N: 4, Async: &ac, Stream: namedStream{3}}, namedStream{3}, &asyncMode{}},
		// A Quarantine streams the run unless an Archive or an Interactive
		// estimator — the coordinator's or the quarantine's — needs the raw
		// deltas: those are the only buffered rounds it leaves.
		{"Quarantine", &Coordinator{N: 4, Quarantine: quarantine(nil)}, hfl.MeanStream{}, &streamedMode{}},
		{"Quarantine+Estimator", &Coordinator{N: 4, Quarantine: quarantine(nil), Estimator: rs}, hfl.MeanStream{}, &streamedMode{}},
		{"Quarantine+Archive", &Coordinator{N: 4, Quarantine: quarantine(nil), Archive: &bytes.Buffer{}}, nil, &bufferedMode{}},
		{"Quarantine+Interactive Estimator", &Coordinator{N: 4, Quarantine: quarantine(nil), Estimator: interactive}, nil, &bufferedMode{}},
		{"Quarantine's Interactive Estimator", &Coordinator{N: 4, Quarantine: quarantine(interactive)}, nil, &bufferedMode{}},
	} {
		c := tc.c
		if c.streamed() != (tc.fold != nil) || c.fold() != tc.fold {
			t.Errorf("%s: streamed %v, fold %v; want fold %v", tc.name, c.streamed(), c.fold(), tc.fold)
		}
		if c.Async != nil {
			pl, err := hfl.NewAsyncPlanner(*c.Async, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			c.asyncPlan = pl
		}
		spec := &hfl.RoundSpec{T: 1, Theta: make([]float64, 3), Active: []int{0, 1, 2, 3}, ValGrad: make([]float64, 3)}
		r := c.newRoundLocked(spec)
		if fmt.Sprintf("%T", r.mode) != fmt.Sprintf("%T", tc.mode) {
			t.Errorf("%s: round mode %T, want %T", tc.name, r.mode, tc.mode)
		}
		if m, ok := r.mode.(*asyncMode); ok && m.stream != tc.fold {
			t.Errorf("%s: async folds with %v, want %v", tc.name, m.stream, tc.fold)
		}
	}
}

// namedStream is a StreamAggregator other than MeanStream{}, told apart by
// its name, for tests that check which fold a round was handed.
type namedStream struct{ name int }

func (namedStream) NewFold(p, k int, valGrad []float64) hfl.Fold {
	return hfl.MeanStream{}.NewFold(p, k, valGrad)
}
