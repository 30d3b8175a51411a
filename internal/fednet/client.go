package fednet

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"time"

	"digfl/internal/faults"
	"digfl/internal/obs"
)

// The participant's retrying HTTP client: capped exponential backoff between
// attempts, a typed WireError for any non-2xx reply (surfaced unretried: the
// server would refuse the identical retry identically), and a transparent
// retry of 503 recovering, which a restarted coordinator answers until its
// journal replay lands.

func (p *Participant) httpClient() *http.Client {
	if p.Client != nil {
		return p.Client
	}
	return http.DefaultClient
}

func (p *Participant) backoff(attempt int) time.Duration {
	base, cap := p.Base, p.Cap
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if cap <= 0 {
		cap = time.Second
	}
	return faults.Backoff(attempt, base, cap)
}

// do runs one request with up to Retries attempts beyond the first. build
// must return a fresh request each attempt (bodies are single-use readers
// over the same bytes); round identifies the request for the events and the
// deterministic failure schedule. An injected request failure spends an
// attempt before it touches the wire. Any 2xx is an acceptance: 200 for a
// commit-candidate update, 202 for one the async coordinator buffered.
func (p *Participant) do(ctx context.Context, round int, build func() (*http.Request, error), out any) error {
	var lastErr error
	for attempt := 0; attempt <= p.Retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if attempt > 0 {
			obs.Emit(p.Sink, obs.Event{Kind: obs.KindRetry, T: round, Part: p.Index, N: int64(attempt)})
			select {
			case <-time.After(p.backoff(attempt - 1)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		obs.Emit(p.Sink, obs.Event{Kind: obs.KindNetRequest, T: round, Part: p.Index, N: 1})
		if p.Faults.RequestFails(round, p.Index, attempt) {
			lastErr = fmt.Errorf("fednet: injected request failure (round %d attempt %d)", round, attempt)
			continue
		}
		req, err := build()
		if err != nil {
			return err
		}
		resp, err := p.httpClient().Do(req.WithContext(ctx))
		if err != nil {
			lastErr = err
			continue
		}
		// A changed incarnation header means the coordinator restarted
		// since our last exchange: re-claim our slot before whatever this
		// response says (join is idempotent, so a spurious rejoin is free).
		if inst := resp.Header.Get(instanceHeader); inst != "" && inst != p.lastInst {
			if p.lastInst != "" && req.URL.Path != "/v1/join" {
				p.rejoin(ctx)
			}
			p.lastInst = inst
		}
		var refused *WireError
		if resp.StatusCode >= 200 && resp.StatusCode <= 299 {
			err = decodeReply(resp, out)
		} else {
			var er errorReply
			_ = readJSON(resp.Body, &er)
			refused = &WireError{Status: resp.StatusCode, Code: er.Code,
				Msg: fmt.Sprintf("%s %s: %s", req.Method, req.URL.Path, er.Error)}
		}
		resp.Body.Close()
		switch {
		case refused == nil && err == nil:
			return nil
		case refused == nil:
			// The reply tore in transit; the request may be retried.
			lastErr = err
		case refused.Code == CodeRecovering:
			// The restarted coordinator's join barrier refilled from zero —
			// recovery cannot finish until every participant re-joins.
			p.rejoin(ctx)
			lastErr = refused
		default:
			return refused
		}
	}
	// faults.ErrRetriesExhausted is the module-wide retry sentinel, shared
	// with the secure protocol's round retries.
	return fmt.Errorf("%w: %d attempts: %w", faults.ErrRetriesExhausted, p.Retries+1, lastErr)
}

func (p *Participant) get(ctx context.Context, round int, url string, out any) error {
	return p.do(ctx, round, func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, url, nil)
	}, out)
}

// post submits a pre-encoded body: built once, re-sent verbatim on every
// backoff attempt (bytes.NewReader is the only per-attempt cost).
func (p *Participant) post(ctx context.Context, round int, url, contentType string, body []byte, out any) error {
	return p.do(ctx, round, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", contentType)
		return req, nil
	}, out)
}
