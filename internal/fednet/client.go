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

// retrier is the retrying HTTP client both client roles — Participant and
// EdgeAggregator — talk to their upstream through: capped exponential
// backoff between attempts, a typed WireError for any non-2xx reply
// (surfaced unretried: the server would refuse the identical retry
// identically), and a transparent retry of 503 recovering, which a
// restarted coordinator answers until its journal replay lands.
type retrier struct {
	client    *http.Client  // nil uses http.DefaultClient
	base, cap time.Duration // backoff shape; zero values use 10ms / 1s
	// sink receives a KindNetRequest per attempt and a KindRetry per retried
	// one, attributed to part.
	sink obs.Sink
	part int

	// The participant's hooks. The edge injects no faults and holds no join
	// slot — retrying the identical request is its whole failover — so it
	// leaves all three nil.
	//
	// dropped reports an injected request failure: the attempt is spent
	// before it touches the wire. replied sees every response before its
	// status is acted on (the incarnation header). rejoin re-claims the join
	// slot before a recovering reply is retried.
	dropped func(round, attempt int) bool
	replied func(ctx context.Context, req *http.Request, resp *http.Response)
	rejoin  func(ctx context.Context)
}

func (rc *retrier) httpClient() *http.Client {
	if rc.client != nil {
		return rc.client
	}
	return http.DefaultClient
}

func (rc *retrier) backoff(attempt int) time.Duration {
	base, cap := rc.base, rc.cap
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if cap <= 0 {
		cap = time.Second
	}
	return faults.Backoff(attempt, base, cap)
}

// do runs one request with up to retries attempts beyond the first. build
// must return a fresh request each attempt (bodies are single-use readers
// over the same bytes); round identifies the request for the events and the
// deterministic failure schedule. Any 2xx is an acceptance: 200 for a
// commit-candidate update, 202 for one the async coordinator buffered.
func (rc *retrier) do(ctx context.Context, round, retries int, build func() (*http.Request, error), out any) error {
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if attempt > 0 {
			obs.Emit(rc.sink, obs.Event{Kind: obs.KindRetry, T: round, Part: rc.part, N: int64(attempt)})
			select {
			case <-time.After(rc.backoff(attempt - 1)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		obs.Emit(rc.sink, obs.Event{Kind: obs.KindNetRequest, T: round, Part: rc.part, N: 1})
		if rc.dropped != nil && rc.dropped(round, attempt) {
			lastErr = fmt.Errorf("fednet: injected request failure (round %d attempt %d)", round, attempt)
			continue
		}
		req, err := build()
		if err != nil {
			return err
		}
		resp, err := rc.httpClient().Do(req.WithContext(ctx))
		if err != nil {
			lastErr = err
			continue
		}
		if rc.replied != nil {
			rc.replied(ctx, req, resp)
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
			if rc.rejoin != nil {
				// The restarted coordinator's join barrier refilled from
				// zero — recovery cannot finish until every participant
				// re-joins.
				rc.rejoin(ctx)
			}
			lastErr = refused
		default:
			return refused
		}
	}
	// faults.ErrRetriesExhausted is the module-wide retry sentinel, shared
	// with the secure protocol's round retries.
	return fmt.Errorf("%w: %d attempts: %w", faults.ErrRetriesExhausted, retries+1, lastErr)
}

func (rc *retrier) get(ctx context.Context, round, retries int, url string, out any) error {
	return rc.do(ctx, round, retries, func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, url, nil)
	}, out)
}

// post submits a pre-encoded body: built once, re-sent verbatim on every
// backoff attempt (bytes.NewReader is the only per-attempt cost).
func (rc *retrier) post(ctx context.Context, round, retries int, url, contentType string, body []byte, out any) error {
	return rc.do(ctx, round, retries, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", contentType)
		return req, nil
	}, out)
}
