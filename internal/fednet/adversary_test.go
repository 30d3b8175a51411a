package fednet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"digfl/internal/core"
	"digfl/internal/hfl"
	"digfl/internal/robust"
)

// TestTamperedUpdateRejected: a participant submitting NaN payloads gets a
// fatal 422 non_finite wire error, while the coordinator (with a round
// deadline) degrades those epochs to the honest survivors and finishes.
func TestTamperedUpdateRejected(t *testing.T) {
	model, parts, val := problem(11)
	coord := &Coordinator{
		N: testN, Model: model, Val: val, Cfg: testConfig(),
		RoundDeadline: 2 * time.Second,
	}
	res, perrs, err := Loopback(context.Background(), coord, func(i int) *Participant {
		p := &Participant{Index: i, Model: model.Clone(), Data: parts[i]}
		if i == 1 {
			p.Tamper = func(_ int, delta []float64) {
				for j := range delta {
					delta[j] = math.NaN()
				}
			}
		}
		return p
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	var we *WireError
	if !errors.As(perrs[1], &we) || we.Code != CodeNonFinite || we.Status != http.StatusUnprocessableEntity {
		t.Fatalf("tampering participant error = %v, want 422 %s", perrs[1], CodeNonFinite)
	}
	for _, i := range []int{0, 2} {
		if perrs[i] != nil {
			t.Errorf("honest participant %d: %v", i, perrs[i])
		}
	}
	// The run degraded to the survivors but still trained.
	if res.FinalLoss >= res.InitLoss {
		t.Error("defended run did not reduce loss")
	}
	for _, ep := range res.Log {
		for _, r := range ep.Reported {
			if r == 1 {
				t.Fatalf("epoch %d aggregated the rejected participant", ep.T)
			}
		}
	}
}

// TestUpdateHandlerRejections drives handleUpdate directly against an open
// round: wrong shape and non-finite payloads draw typed 422s, stale rounds
// a 409, and a well-formed update is accepted.
func TestUpdateHandlerRejections(t *testing.T) {
	c := &Coordinator{N: 2, Cfg: testConfig()}
	c.mu.Lock()
	c.initLocked()
	c.round = c.newRoundLocked(&hfl.RoundSpec{T: 1, Theta: make([]float64, 3), Active: []int{0, 1}})
	c.mu.Unlock()

	post := func(tt int, delta []float64) (*httptest.ResponseRecorder, errorReply) {
		req := httptest.NewRequest(http.MethodPost, "/v1/update", bytes.NewReader(updateFrame(t, tt, 0, delta)))
		req.Header.Set("Content-Type", contentTypeBinary)
		w := httptest.NewRecorder()
		c.handleUpdate(w, req)
		var er errorReply
		_ = json.Unmarshal(w.Body.Bytes(), &er)
		return w, er
	}

	if w, er := post(1, []float64{1, 2}); w.Code != http.StatusUnprocessableEntity || er.Code != CodeBadShape {
		t.Errorf("short delta: status %d code %q", w.Code, er.Code)
	}
	if w, er := post(1, []float64{1, math.Inf(1), 3}); w.Code != http.StatusUnprocessableEntity || er.Code != CodeNonFinite {
		t.Errorf("inf delta: status %d code %q", w.Code, er.Code)
	}
	if w, er := post(99, []float64{1, 2, 3}); w.Code != http.StatusConflict || er.Code != CodeStaleRound {
		t.Errorf("future round: status %d code %q", w.Code, er.Code)
	}
	if w, _ := post(1, []float64{1, 2, 3}); w.Code != http.StatusOK {
		t.Errorf("valid update: status %d body %s", w.Code, w.Body.String())
	}
	// The rejected payloads must not have claimed the participant's slot.
	c.mu.Lock()
	got := c.round.got
	c.mu.Unlock()
	if got != 1 {
		t.Errorf("round recorded %d updates, want 1", got)
	}
}

// TestQuarantineOverWire: a sign-flipping attacker is banned by the
// coordinator's contribution-guided quarantine, the ban surfaces on
// /v1/score, and honest participants outrank it by total φ.
func TestQuarantineOverWire(t *testing.T) {
	model, parts, val := problem(13)
	cfg := testConfig()
	cfg.Epochs = 10
	est := core.NewHFLEstimator(testN, model.NumParams(), core.ResourceSaving, nil)
	coord := &Coordinator{
		N: testN, Model: model, Val: val, Cfg: cfg,
		Estimator:     est,
		Quarantine:    robust.MustNewQuarantine(robust.Quarantine{Patience: 2}),
		RoundDeadline: 5 * time.Second,
	}
	attacker := 2
	res, perrs, err := Loopback(context.Background(), coord, func(i int) *Participant {
		p := &Participant{Index: i, Model: model.Clone(), Data: parts[i]}
		if i == attacker {
			p.Tamper = func(_ int, delta []float64) {
				for j := range delta {
					delta[j] = -3 * delta[j]
				}
			}
		}
		return p
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	for i, perr := range perrs {
		if perr != nil {
			t.Errorf("participant %d: %v", i, perr)
		}
	}
	if res.FinalLoss >= res.InitLoss {
		t.Error("defended run did not reduce loss")
	}
	if !coord.Quarantine.IsQuarantined(attacker) {
		t.Fatalf("attacker not quarantined; banned = %v", coord.Quarantine.Quarantined())
	}
	attr := est.Attribution()
	for _, i := range []int{0, 1} {
		if attr.Totals[i] <= attr.Totals[attacker] {
			t.Errorf("honest %d total φ %v not above attacker %v", i, attr.Totals[i], attr.Totals[attacker])
		}
	}
	// The ban crosses the wire on /v1/score.
	req := httptest.NewRequest(http.MethodGet, "/v1/score", nil)
	w := httptest.NewRecorder()
	coord.handleScore(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("score status %d", w.Code)
	}
	var score scoreReply
	if err := json.Unmarshal(w.Body.Bytes(), &score); err != nil {
		t.Fatal(err)
	}
	if len(score.Quarantined) != 1 || score.Quarantined[0] != attacker {
		t.Fatalf("score quarantined = %v, want [%d]", score.Quarantined, attacker)
	}
	if score.Epochs != cfg.Epochs {
		t.Fatalf("score epochs = %d, want %d", score.Epochs, cfg.Epochs)
	}
}

// TestRejectionBitIdentity: a defended loopback run with no attackers is
// bit-identical to the in-process DIG-FL-reweighted reference — the
// quarantine must cost nothing when nobody misbehaves.
func TestRejectionBitIdentity(t *testing.T) {
	seed := int64(3)
	model, parts, val := problem(seed)
	refEst := core.NewHFLEstimator(testN, model.NumParams(), core.ResourceSaving, nil)
	ref := &hfl.Trainer{
		Model: model, Parts: parts, Val: val, Cfg: testConfig(),
		Reweighter: &core.HFLReweighter{Estimator: refEst},
	}
	refRes, err := ref.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	est := core.NewHFLEstimator(testN, model.NumParams(), core.ResourceSaving, nil)
	coord := &Coordinator{
		N: testN, Model: model, Val: val, Cfg: testConfig(),
		Estimator:  est,
		Quarantine: robust.MustNewQuarantine(robust.Quarantine{}),
	}
	res, perrs, err := Loopback(context.Background(), coord, func(i int) *Participant {
		return &Participant{Index: i, Model: model.Clone(), Data: parts[i]}
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	for i, perr := range perrs {
		if perr != nil {
			t.Fatalf("participant %d: %v", i, perr)
		}
	}
	if !sameVec(refRes.Model.Params(), res.Model.Params()) {
		t.Error("defended clean model not bit-identical to reweighted local run")
	}
	if !sameVec(refRes.ValLossCurve, res.ValLossCurve) {
		t.Error("defended clean loss curve not bit-identical")
	}
	if !sameVec(refEst.Attribution().Totals, est.Attribution().Totals) {
		t.Error("defended clean φ not bit-identical")
	}
	if q := coord.Quarantine.Quarantined(); q != nil {
		t.Errorf("clean run banned %v", q)
	}
}
