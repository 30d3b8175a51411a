package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"digfl/internal/fednet"
	"digfl/internal/tensor"
)

// client calls a coordinator's Handler in-process — no sockets, no
// connections — through request plumbing it allocates once and reuses, so
// the load generator adds as little as it can to the allocation and time
// budget it is measuring. A client belongs to one goroutine.
type client struct {
	h    http.Handler
	req  http.Request
	u    url.URL
	body bodyReader
	rw   recorder
	q    []byte

	// requests counts handler calls, failures those whose status the caller
	// did not accept, reqBytes/respBytes the bodies in each direction.
	requests, failures  int64
	reqBytes, respBytes int64
}

func newClient(h http.Handler) *client {
	c := &client{h: h}
	c.req.URL = &c.u
	c.req.Header = http.Header{}
	c.req.Proto, c.req.ProtoMajor, c.req.ProtoMinor = "HTTP/1.1", 1, 1
	c.rw.header = http.Header{}
	return c
}

// bodyReader is a reusable request body.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// recorder is a reusable http.ResponseWriter keeping the last reply.
type recorder struct {
	header http.Header
	status int
	buf    []byte
}

func (r *recorder) Header() http.Header { return r.header }
func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}
func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	r.buf = append(r.buf, p...)
	return len(p), nil
}

// do issues one request and returns the status; the reply body stays in
// c.rw.buf until the next call.
func (c *client) do(method, path string, query []byte, contentType string, body []byte) int {
	c.req.Method = method
	c.u.Path = path
	c.u.RawQuery = string(query)
	if body != nil {
		c.body.Reset(body)
		c.req.Body = &c.body
		c.req.ContentLength = int64(len(body))
		c.req.Header["Content-Type"] = []string{contentType}
	} else {
		c.req.Body = http.NoBody
		c.req.ContentLength = 0
		delete(c.req.Header, "Content-Type")
	}
	clear(c.rw.header)
	c.rw.status = 0
	c.rw.buf = c.rw.buf[:0]
	c.h.ServeHTTP(&c.rw, &c.req)
	c.requests++
	c.reqBytes += int64(len(body))
	c.respBytes += int64(len(c.rw.buf))
	return c.rw.status
}

func (c *client) fail(format string, args ...any) error {
	c.failures++
	return fmt.Errorf(format, args...)
}

// join claims participant slot i, offering the binary codec like
// fednet.Participant does.
func (c *client) join(i int) error {
	c.q = append(c.q[:0], `{"protocol":"`+fednet.Protocol+`","index":`...)
	c.q = strconv.AppendInt(c.q, int64(i), 10)
	c.q = append(c.q, `,"accept":["`+fednet.ProtocolV2+`"]}`...)
	if st := c.do("POST", "/v1/join", nil, "application/json", c.q); st != http.StatusOK {
		return c.fail("join %d: status %d: %s", i, st, c.rw.buf)
	}
	return nil
}

// Poll outcomes.
const (
	pollOpen = iota // the round is open and the participant is in it
	// pollExcluded: the round has no slot for the participant — it is open
	// without it (sampled out, or an earlier update still in flight), or it
	// already closed on its other members' updates and a later round
	// answered.
	pollExcluded
	pollDone // the run has ended
)

// roundFrameMagic opens a digfl-fednet/2 round broadcast (codec.go).
var roundFrameMagic = []byte("D2RD")

// poll long-polls round t as participant i, asking for the binary
// broadcast. It blocks until a round at or past t opens or the run ends.
func (c *client) poll(t, i int) (int, error) {
	for {
		c.q = append(c.q[:0], "t="...)
		c.q = strconv.AppendInt(c.q, int64(t), 10)
		c.q = append(c.q, "&i="...)
		c.q = strconv.AppendInt(c.q, int64(i), 10)
		c.q = append(c.q, "&c=2"...)
		if st := c.do("GET", "/v1/round", c.q, "", nil); st != http.StatusOK {
			return 0, c.fail("poll t=%d i=%d: status %d: %s", t, i, st, c.rw.buf)
		}
		if c.rw.header.Get("Content-Type") == fednet.CodecV2.ContentType() {
			b := c.rw.buf
			if len(b) < 8 || !bytes.Equal(b[:4], roundFrameMagic) {
				return 0, c.fail("poll t=%d i=%d: unexpected round frame", t, i)
			}
			switch got := int(binary.LittleEndian.Uint32(b[4:])); {
			case got == t:
				return pollOpen, nil
			case got > t:
				return pollExcluded, nil
			}
			return 0, c.fail("poll t=%d i=%d: round frame for an earlier round", t, i)
		}
		var rr struct {
			State    string `json:"state"`
			T        int    `json:"t"`
			Excluded bool   `json:"excluded"`
		}
		if err := json.Unmarshal(c.rw.buf, &rr); err != nil {
			return 0, c.fail("poll t=%d i=%d: %v", t, i, err)
		}
		switch {
		case rr.State == fednet.StateDone:
			return pollDone, nil
		case rr.State == fednet.StateOpen && rr.Excluded && rr.T >= t:
			return pollExcluded, nil
		case rr.State == fednet.StatePending:
			// The server-side long-poll leg expired; poll again.
		default:
			return 0, c.fail("poll t=%d i=%d: unexpected reply %s", t, i, c.rw.buf)
		}
	}
}

// update posts participant i's round-t delta as a digfl-fednet/2 frame and
// reports whether the coordinator buffered it (202) rather than took it
// as a commit candidate (200).
func (c *client) update(t, i int, delta []float64) (buffered bool, err error) {
	body, err := fednet.CodecV2.EncodeUpdate(t, i, delta)
	if err != nil {
		return false, c.fail("encode update: %v", err)
	}
	st := c.do("POST", "/v1/update", nil, fednet.CodecV2.ContentType(), body)
	tensor.PutBytes(body)
	switch st {
	case http.StatusOK:
		return false, nil
	case http.StatusAccepted:
		return true, nil
	}
	return false, c.fail("update t=%d i=%d: status %d: %s", t, i, st, c.rw.buf)
}

// roundLoop is the closed-loop driver: one goroutine plays every cohort
// member of every round against the handler, following the public wire
// protocol generically — poll; if excluded skip, else post — so one loop
// serves streamed, async and buffered rounds.
type roundLoop struct {
	c      *client
	tr     *tracer
	cohort func(t int) []int
	delta  func(t, i int) []float64
	// onOpen, when set, is called with each round's number the moment the
	// driver sees it open (score-readers schedules its reads from it).
	onOpen func(t int, at time.Time)

	// opened[t-1] is when round t became available; opened[rounds] is when
	// the run reported done. Round t's latency is opened[t] − opened[t-1].
	opened   []time.Time
	buffered int64
	excluded int64
}

func (l *roundLoop) run(rounds int) error {
	l.opened = make([]time.Time, 0, rounds+1)
	for t := 1; t <= rounds; t++ {
		for k, i := range l.cohort(t) {
			name := "fednet.poll"
			if k == 0 {
				// The first poll of a round blocks until the coordinator has
				// closed the previous round, aggregated, observed and opened
				// this one: the round's turnaround.
				name = "fednet.turnaround"
			}
			id := l.tr.begin(name, t)
			st, err := l.c.poll(t, i)
			l.tr.end(id)
			if err != nil {
				return err
			}
			if k == 0 {
				now := time.Now()
				l.opened = append(l.opened, now)
				if l.onOpen != nil {
					l.onOpen(t, now)
				}
			}
			switch st {
			case pollDone:
				return fmt.Errorf("run ended before round %d", t)
			case pollExcluded:
				l.excluded++
				continue
			}
			id = l.tr.begin("fednet.update", t)
			buffered, err := l.c.update(t, i, l.delta(t, i))
			l.tr.end(id)
			if err != nil {
				return err
			}
			if buffered {
				l.buffered++
			}
		}
	}
	// The run is over when a poll past the last round answers done; that
	// poll is the last round's turnaround.
	id := l.tr.begin("fednet.turnaround", rounds+1)
	st, err := l.c.poll(rounds+1, l.cohort(rounds)[0])
	l.tr.end(id)
	if err != nil {
		return err
	}
	if st != pollDone {
		return fmt.Errorf("run still open after round %d", rounds)
	}
	now := time.Now()
	l.opened = append(l.opened, now)
	if l.onOpen != nil {
		l.onOpen(rounds+1, now)
	}
	return nil
}

// latencies returns each round's latency in milliseconds.
func (l *roundLoop) latencies() []float64 {
	out := make([]float64, len(l.opened)-1)
	for t := range out {
		out[t] = ms(l.opened[t+1].Sub(l.opened[t]))
	}
	return out
}
