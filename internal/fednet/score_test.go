package fednet

import (
	"math"
	"net/http"
	"net/url"
	"testing"

	"digfl/internal/core"
	"digfl/internal/jsonf"
	"digfl/internal/robust"
	"digfl/internal/tensor"
)

// scoreReply is the /v1/score response as encoding/json spells it: the
// reference appendScore's bytes are pinned to (TestScoreReplyBytes), and
// what the tests decode a reply into. Engine names the first-derivative
// estimator that backs the endpoint, always "dig-fl".
type scoreReply struct {
	Epochs      int         `json:"epochs"`
	Totals      []jsonf.F64 `json:"totals"`
	Quarantined []int       `json:"quarantined,omitempty"`
	Engine      string      `json:"engine,omitempty"`
}

// f64s is v as scoreReply spells its totals; nil stays nil.
func f64s(v []float64) []jsonf.F64 {
	if v == nil {
		return nil
	}
	out := make([]jsonf.F64, len(v))
	for i, x := range v {
		out[i] = jsonf.F64(x)
	}
	return out
}

// totals is the reply's totals as floats; nil stays nil.
func (r *scoreReply) totals() []float64 {
	if r.Totals == nil {
		return nil
	}
	out := make([]float64, len(r.Totals))
	for i, x := range r.Totals {
		out[i] = float64(x)
	}
	return out
}

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
		want: scoreReply{Epochs: 40, Totals: f64s(totals), Engine: "dig-fl"}}
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
// quarantine's bans, epochs 0 — over float edge values; the 404 and 503
// refusals are the errorReply they always were. Both sides spell a float
// through jsonf.AppendVec, which jsonf's tests pin to a per-element
// encoding/json oracle; this test pins everything around the floats.
func TestScoreReplyBytes(t *testing.T) {
	totals := scoreEdgeValues
	n := len(totals)
	for _, tc := range []struct {
		name   string
		c      *Coordinator
		banned []int
		want   scoreReply
	}{
		{"estimator", &Coordinator{N: n, Estimator: scoreEstimator(n, 12, totals)}, nil,
			scoreReply{Epochs: 12, Totals: f64s(totals), Engine: "dig-fl"}},
		{"estimator at epoch 0", &Coordinator{N: n, Estimator: scoreEstimator(n, 0, nil)}, nil,
			scoreReply{Totals: f64s(make([]float64, n)), Engine: "dig-fl"}},
		{"estimator and quarantine", &Coordinator{N: n, Estimator: scoreEstimator(n, 5, totals)}, []int{1, 4, 13},
			scoreReply{Epochs: 5, Totals: f64s(totals), Quarantined: []int{1, 4, 13}, Engine: "dig-fl"}},
		{"estimator and quarantine, nobody banned", &Coordinator{N: n, Estimator: scoreEstimator(n, 5, totals)}, []int{},
			scoreReply{Epochs: 5, Totals: f64s(totals), Engine: "dig-fl"}},
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

	// Refusals: no estimator, then a recovering coordinator.
	if code, got := serveScore(t, &Coordinator{N: n}); code != http.StatusNotFound ||
		got != encoded(t, errorReply{Error: "coordinator has no estimator attached"}) {
		t.Errorf("no estimator: %d %s", code, got)
	}
	c := &Coordinator{N: n, Estimator: scoreEstimator(n, 2, totals), recovering: true}
	if code, got := serveScore(t, c); code != http.StatusServiceUnavailable ||
		got != encoded(t, errorReply{Error: "coordinator is recovering; re-join and retry", Code: CodeRecovering}) {
		t.Errorf("recovering: %d %s", code, got)
	}
}
