package fednet

import (
	"math"
	"net/http"
	"net/url"
	"testing"

	"digfl/internal/core"
	"digfl/internal/hfl"
	"digfl/internal/jsonf"
	"digfl/internal/metrics"
	"digfl/internal/robust"
	"digfl/internal/shapley"
	"digfl/internal/tensor"
)

// scoreReply is the /v1/score response as encoding/json spells it: the
// reference appendScore's bytes are pinned to (TestScoreReplyBytes), and
// what the tests decode a reply into. Engine names the active contribution
// engine — the attached pluggable engine's name, or "dig-fl" when only the
// first-derivative estimator backs the endpoint; the Engine* fields carry
// the pluggable engine's running Shapley totals and utility-evaluation
// cost, and are absent when no engine is attached.
type scoreReply struct {
	Epochs       int       `json:"epochs"`
	Totals       jsonf.Vec `json:"totals"`
	Quarantined  []int     `json:"quarantined,omitempty"`
	Engine       string    `json:"engine,omitempty"`
	EngineTotals jsonf.Vec `json:"engine_totals,omitempty"`
	EngineEpochs int       `json:"engine_epochs,omitempty"`
	EngineEvals  int64     `json:"engine_evals,omitempty"`
}

// reportEngine is a shapley.Engine that only reports: Finalize returns a
// copy of rep, as the real engines return a fresh report.
type reportEngine struct{ rep shapley.Report }

func (e *reportEngine) Name() string       { return e.rep.Name }
func (e *reportEngine) Observe(*hfl.Epoch) {}
func (e *reportEngine) Finalize() *shapley.Report {
	rep := e.rep
	rep.Totals = append([]float64(nil), e.rep.Totals...)
	return &rep
}
func (e *reportEngine) State() *shapley.EngineState         { return nil }
func (e *reportEngine) SetState(*shapley.EngineState) error { return nil }

// scoreEdgeValues are the floats whose spelling the reply must not change:
// signed zeros, the smallest subnormal, both sides of the 'f'/'e' boundaries
// at 1e-6 and 1e21, and the non-finite sentinels.
var scoreEdgeValues = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-7, 1e-6, -1e-6, 1e20, 1e21, -1e21,
	0.1, 1.0 / 3, math.NaN(), math.Inf(1), math.Inf(-1)}

// scoreEstimator is an estimator over n participants whose attribution
// reads epochs epochs and the given totals.
func scoreEstimator(n, epochs int, totals []float64) *core.HFLEstimator {
	est := core.NewHFLEstimator(n, 3, core.ResourceSaving, nil)
	attr := est.Attribution()
	attr.Epochs = epochs
	copy(attr.Totals, totals)
	return est
}

// scoreCell is the 100k-participant estimator-only coordinator a
// /v1/score read is measured on, with request plumbing allocated once.
type scoreCell struct {
	h    http.Handler
	rw   benchRW
	req  http.Request
	want scoreReply
}

func newScoreCell() *scoreCell {
	totals := tensor.NewRNG(7).NormalVec(100_000, 0, 1e-3)
	c := &Coordinator{N: 100_000, Cfg: testConfig(), Estimator: scoreEstimator(100_000, 40, totals)}
	return &scoreCell{h: c.Handler(), rw: benchRW{header: http.Header{}},
		req:  http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/v1/score"}, Header: http.Header{}, Body: http.NoBody},
		want: scoreReply{Epochs: 40, Totals: totals, Engine: "dig-fl"}}
}

// read serves one GET /v1/score into the cell's writer.
func (sc *scoreCell) read() {
	sc.rw.reset()
	sc.h.ServeHTTP(&sc.rw, &sc.req)
}

// BenchmarkScoreRead100k: one warm /v1/score read of the 100k cell through
// Handler() — the copy under the lock, the formatting and the write.
func BenchmarkScoreRead100k(b *testing.B) {
	sc := newScoreCell()
	sc.read()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.read()
	}
	b.StopTimer()
	if sc.rw.status != http.StatusOK {
		b.Fatalf("status %d", sc.rw.status)
	}
	b.ReportMetric(float64(len(sc.rw.body)), "reply_B")
}

// serveScore answers one GET /v1/score through Handler(); every reply,
// refusals included, is JSON.
func serveScore(t *testing.T, c *Coordinator) (int, string) {
	t.Helper()
	w := serveOnce(c.Handler(), "GET", "/v1/score", "", nil)
	if ct := w.Header().Get("Content-Type"); ct != contentTypeJSON {
		t.Errorf("/v1/score answered %d with Content-Type %q", w.Code, ct)
	}
	return w.Code, w.Body.String()
}

// TestScoreReplyBytes: the hand-written /v1/score reply is json.Encoder's
// bytes for the scoreReply of the same fields — estimator only, with a
// quarantine's bans, engine only ("totals":null), estimator and engine,
// epochs 0 — over float edge values and every engine name NewEngine
// accepts, plus names that need json.Marshal's escaping; the 404 and 503
// refusals are the errorReply they always were. Both sides spell a float
// through jsonf.AppendVec, which jsonf's tests pin to a per-element
// encoding/json oracle; this test pins everything around the floats.
func TestScoreReplyBytes(t *testing.T) {
	totals := scoreEdgeValues
	n := len(totals)
	names := append(shapley.Engines(), "dig-fl", `a"b\c`, "<gt&g>", "tab\there", "dé", " ")
	for _, tc := range []struct {
		name   string
		c      *Coordinator
		banned []int
		want   scoreReply
	}{
		{"estimator", &Coordinator{N: n, Estimator: scoreEstimator(n, 12, totals)}, nil,
			scoreReply{Epochs: 12, Totals: totals, Engine: "dig-fl"}},
		{"estimator at epoch 0", &Coordinator{N: n, Estimator: scoreEstimator(n, 0, nil)}, nil,
			scoreReply{Totals: make([]float64, n), Engine: "dig-fl"}},
		{"estimator and quarantine", &Coordinator{N: n, Estimator: scoreEstimator(n, 5, totals)}, []int{1, 4, 13},
			scoreReply{Epochs: 5, Totals: totals, Quarantined: []int{1, 4, 13}, Engine: "dig-fl"}},
		{"estimator and quarantine, nobody banned", &Coordinator{N: n, Estimator: scoreEstimator(n, 5, totals)}, []int{},
			scoreReply{Epochs: 5, Totals: totals, Engine: "dig-fl"}},
	} {
		if tc.banned != nil {
			tc.c.Quarantine = robust.MustNewQuarantine(robust.Quarantine{})
			st := &robust.QuarantineState{Ewma: make([]float64, n), Seen: make([]bool, n), Streak: make([]int, n),
				Banned: make([]bool, n)}
			for _, i := range tc.banned {
				st.Banned[i] = true
			}
			if err := tc.c.Quarantine.SetState(st); err != nil {
				t.Fatal(err)
			}
		}
		if code, got := serveScore(t, tc.c); code != http.StatusOK || got != encoded(t, tc.want) {
			t.Errorf("%s: %d\n %s\njson.Encoder writes\n %s", tc.name, code, got, encoded(t, tc.want))
		}
	}

	for _, name := range names {
		for _, rep := range []shapley.Report{
			{Name: name, Totals: totals, Epochs: 9},
			{Name: name, Totals: []float64{-1e-7, 1e21, math.NaN()}, Epochs: 3, Cost: metrics.Cost{UtilityEvals: 41}},
			{Name: name}, // epoch 0: no totals, no epochs, no evals
		} {
			want := scoreReply{Epochs: rep.Epochs, Engine: name, EngineTotals: rep.Totals,
				EngineEpochs: rep.Epochs, EngineEvals: rep.Cost.UtilityEvals}
			c := &Coordinator{N: n}
			c.Cfg.Engine = &reportEngine{rep}
			if code, got := serveScore(t, c); code != http.StatusOK || got != encoded(t, want) {
				t.Errorf("engine %q only: %d\n %s\njson.Encoder writes\n %s", name, code, got, encoded(t, want))
			}
			want.Epochs, want.Totals = 4, totals
			c.Estimator = scoreEstimator(n, 4, totals)
			if code, got := serveScore(t, c); code != http.StatusOK || got != encoded(t, want) {
				t.Errorf("estimator and engine %q: %d\n %s\njson.Encoder writes\n %s", name, code, got, encoded(t, want))
			}
		}
	}

	// Refusals: no estimator and no engine, then a recovering coordinator.
	if code, got := serveScore(t, &Coordinator{N: n}); code != http.StatusNotFound ||
		got != encoded(t, errorReply{Error: "coordinator has no estimator or engine attached"}) {
		t.Errorf("no estimator or engine: %d %s", code, got)
	}
	c := &Coordinator{N: n, Estimator: scoreEstimator(n, 2, totals), recovering: true}
	if code, got := serveScore(t, c); code != http.StatusServiceUnavailable ||
		got != encoded(t, errorReply{Error: "coordinator is recovering; re-join and retry", Code: CodeRecovering}) {
		t.Errorf("recovering: %d %s", code, got)
	}
}
