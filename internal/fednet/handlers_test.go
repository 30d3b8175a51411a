package fednet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"testing"

	"digfl/internal/core"
	"digfl/internal/hfl"
)

// FuzzCoordinatorHandler drives arbitrary requests — method, path, raw
// query, Content-Type, body — at Handler() on an open round of four
// participants in each round mode: streamed with no journal, buffered with a
// journal, and async. No request may panic a handler, and a request answered
// with anything but 2xx must leave the round as it found it: the same
// reporters, the same count, nothing new held (the streamed fold's
// Pending(), the deltas a buffered or async round retains) and nothing
// journaled. The seeds are one valid request per endpoint, a non-finite
// update, and the retired edge partial and validation-gradient poll. A
// request is served on a canceled context, so a poll for a round that is not
// open returns at once instead of long-polling.
func FuzzCoordinatorHandler(f *testing.F) {
	const d = 3
	update, err := CodecV2.EncodeUpdate(1, 0, []float64{0.5, -1, 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Add("POST", "/v1/join", "", contentTypeJSON, []byte(fmt.Sprintf(`{"protocol":%q,"index":0}`, Protocol)))
	f.Add("GET", "/v1/round", "t=1&i=0", "", []byte(nil))
	f.Add("POST", "/v1/update", "", contentTypeBinary, update)
	nonFinite := slices.Clone(update)
	le.PutUint64(nonFinite[len(nonFinite)-8:], math.Float64bits(math.Inf(1)))
	f.Add("POST", "/v1/update", "", contentTypeBinary, nonFinite)
	f.Add("GET", "/v1/score", "", "", []byte(nil))
	f.Add("POST", "/v1/partial", "", contentTypeBinary, encodeEdgePartial(1, 0, []int{1, 2}, []float64{1, 2, 3}, []float64{0.5, 0.25}))
	f.Add("GET", "/v1/round", "t=1&h=1&vg=1", "", []byte(nil))
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	f.Fuzz(func(t *testing.T, method, path, query, contentType string, body []byte) {
		journal := &bytes.Buffer{}
		for _, c := range []*Coordinator{
			{N: 4, Cfg: testConfig(), Stream: hfl.MeanStream{},
				Estimator: core.NewHFLEstimator(4, d, core.ResourceSaving, nil)},
			{N: 4, Cfg: testConfig(), Journal: journal},
			{N: 4, Cfg: testConfig(), Async: &hfl.AsyncConfig{Quorum: 2, MaxStaleness: 2}},
		} {
			if c.Journal != nil {
				c.wal = newWAL(c.Journal, nil)
			}
			if c.Async != nil {
				pl, err := hfl.NewAsyncPlanner(*c.Async, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				c.asyncPlan = pl
			}
			r := c.newRoundLocked(&hfl.RoundSpec{T: 1, LR: 0.5, Theta: make([]float64, d),
				ValGrad: []float64{1, -1, 0.5}, Active: []int{0, 1, 2, 3}})
			openTestRound(c, r)
			// Slot 2 reported before the request: an accepted update that a
			// refused one must not disturb.
			if err := c.commitLocked(r, 2, []float64{1, 2, 3}); err != nil {
				t.Fatal(err)
			}
			got, have, held, logged := r.got, slices.Clone(r.have), roundHeld(r), journal.Len()

			req := (&http.Request{
				Method: method, URL: &url.URL{Path: path, RawQuery: query},
				Header: http.Header{}, Body: io.NopCloser(bytes.NewReader(body)),
				ContentLength: int64(len(body)), Host: "coordinator",
			}).WithContext(canceled)
			if contentType != "" {
				req.Header.Set("Content-Type", contentType)
			}
			w := httptest.NewRecorder()
			c.Handler().ServeHTTP(w, req)
			if w.Code >= 200 && w.Code <= 299 {
				continue
			}
			c.mu.Lock()
			if r.got != got || !slices.Equal(r.have, have) || roundHeld(r) != held || journal.Len() != logged {
				t.Fatalf("%T round: %s %s?%s answered %d but moved the round: got %d→%d, have %v→%v, held %d→%d, journal %d→%d bytes",
					r.mode, method, path, query, w.Code, got, r.got, have, r.have, held, roundHeld(r), logged, journal.Len())
			}
			c.mu.Unlock()
		}
	})
}

// roundHeld counts what round r holds of its updates: the streamed fold's
// Pending(), or the deltas a buffered or async round retains until close.
func roundHeld(r *openRound) int {
	var deltas [][]float64
	switch m := r.mode.(type) {
	case *streamedMode:
		return m.fold.(interface{ Pending() int }).Pending()
	case *bufferedMode:
		deltas = m.deltas
	case *asyncMode:
		deltas = m.deltas
	}
	n := 0
	for _, d := range deltas {
		if d != nil {
			n++
		}
	}
	return n
}
