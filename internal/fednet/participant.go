package fednet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"digfl/internal/dataset"
	"digfl/internal/faults"
	"digfl/internal/nn"
	"digfl/internal/obs"
	"digfl/internal/tensor"
)

// Participant is the client side of the networked runtime: it wraps one
// local dataset shard, polls the coordinator for rounds, computes the local
// update δ_{t,i} with exactly the trainer's arithmetic, and submits it.
type Participant struct {
	// Index is the participant's global index; identity maps to a dataset
	// shard, so the participant declares it at join time.
	Index int
	// BaseURL is the coordinator's address, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Model is the local model prototype; it must match the coordinator's
	// architecture. The participant clones it per round.
	Model nn.Model
	// Data is the local dataset shard.
	Data dataset.Dataset
	// Client is the HTTP client; nil uses http.DefaultClient.
	Client *http.Client
	// Retries bounds the retry attempts per request beyond the first;
	// 0 means no retries.
	Retries int
	// Base and Cap shape the capped exponential backoff between retries;
	// zero values use 10ms / 1s.
	Base, Cap time.Duration
	// Faults optionally injects deterministic client-side faults: an
	// injected request failure (Config.NetFailure) drops the request before
	// it touches the wire and costs one attempt, so the retry loop is
	// exercised without a flaky network.
	Faults *faults.Injector
	// Delay, when non-nil, sleeps before computing round t's update — the
	// test hook that turns this participant into a straggler.
	Delay func(t int)
	// Tamper, when non-nil, mutates round t's update in place after the
	// honest computation and before submission — the wire-level adversary
	// hook the defense tests drive malformed and poisoned payloads through.
	Tamper func(t int, delta []float64)
	// Sink receives a KindNetRequest per attempted request and a KindRetry
	// per retried one.
	Sink obs.Sink

	// lastInst is the last coordinator incarnation observed in a response
	// header; a change means the coordinator restarted and this participant
	// must re-join (the restarted join barrier forgot it). Run is
	// single-goroutine, so no lock.
	lastInst string
}

// rejoin re-claims this participant's slot after a coordinator restart:
// one plain attempt, failures ignored — the caller's retry loop lands back
// here until recovery completes. Not routed through the retry loop (no
// nested retries, and join must go out even while other requests are being
// refused).
func (p *Participant) rejoin(ctx context.Context) {
	body, err := json.Marshal(joinRequest{Protocol: Protocol, Index: p.Index})
	if err != nil {
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.BaseURL+"/v1/join", bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", contentTypeJSON)
	resp, err := p.httpClient().Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if inst := resp.Header.Get(instanceHeader); inst != "" {
			p.lastInst = inst
		}
		obs.Emit(p.Sink, obs.Event{Kind: obs.KindRejoin, Part: p.Index})
	}
}

// Run joins the coordinator and serves rounds until the run completes. The
// returned error is nil on a normal shutdown (StateDone), even if some of
// this participant's updates missed their round deadlines — partial
// participation is the protocol working, not an error.
func (p *Participant) Run(ctx context.Context) error {
	if p.Model == nil {
		return errors.New("fednet: participant needs a model prototype")
	}
	var join joinReply
	body, err := json.Marshal(joinRequest{Protocol: Protocol, Index: p.Index})
	if err == nil {
		err = p.post(ctx, 0, p.BaseURL+"/v1/join", contentTypeJSON, body, &join)
	}
	if err != nil {
		return fmt.Errorf("fednet: participant %d join: %w", p.Index, err)
	}
	if join.Protocol != Protocol {
		return fmt.Errorf("fednet: participant %d: coordinator speaks %q, want %q", p.Index, join.Protocol, Protocol)
	}

	next := 1
	for {
		var round roundReply
		// Polling with ?i= lets the coordinator answer Excluded when this
		// participant is outside the round's sampled cohort, skipping the
		// theta download and the local computation entirely.
		if err := p.get(ctx, next, fmt.Sprintf("%s/v1/round?t=%d&i=%d", p.BaseURL, next, p.Index), &round); err != nil {
			return fmt.Errorf("fednet: participant %d round %d: %w", p.Index, next, err)
		}
		switch round.State {
		case StateDone:
			return nil
		case StatePending:
			continue // long-poll leg expired; re-poll
		case StateOpen:
		default:
			return fmt.Errorf("fednet: participant %d: unknown round state %q", p.Index, round.State)
		}
		if round.T < next {
			continue // stale broadcast; re-poll
		}
		if round.Excluded {
			// Not in this round's cohort — wait for the next round.
			next = round.T + 1
			continue
		}

		if p.Delay != nil {
			p.Delay(round.T)
		}
		// localDelta is the trainer's exact arithmetic, so a loopback run is
		// bit-identical to the in-process one.
		delta := localDelta(p.Model, p.Data, round.Theta, float64(round.LR), join.LocalSteps)
		if p.Tamper != nil {
			p.Tamper(round.T, delta)
		}
		// Encode once; the retry loop re-sends the same bytes. The body
		// buffer is recycled after the last attempt.
		body, err := CodecV2.EncodeUpdate(round.T, p.Index, delta)
		if err != nil {
			return fmt.Errorf("fednet: participant %d update %d: %w", p.Index, round.T, err)
		}
		var ack updateReply
		err = p.post(ctx, round.T, p.BaseURL+"/v1/update", contentTypeBinary, body, &ack)
		tensor.PutBytes(body)
		if err != nil {
			// A stale-round rejection means we straggled past the deadline
			// and the epoch proceeded with the survivors; a too-stale one
			// means an async coordinator refused work beyond its staleness
			// window. Both are the protocol working, not an error. Every
			// other wire rejection (bad shape, non-finite payload) is fatal
			// and unretryable.
			var we *WireError
			if errors.As(err, &we) && (we.Code == CodeStaleRound || we.Code == CodeTooStale) {
				next = round.T + 1
				continue
			}
			return fmt.Errorf("fednet: participant %d update %d: %w", p.Index, round.T, err)
		}
		// A rejected update (we were not in the round's active set) is
		// survivable: move on.
		next = round.T + 1
	}
}
