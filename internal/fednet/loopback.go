package fednet

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"digfl/internal/hfl"
)

// Loopback runs a coordinator and its N participants over real HTTP
// listeners on the loopback interface — the one in-process harness of the
// determinism tests, the studies and the examples. parts builds the i-th
// participant; Loopback fills in its BaseURL. It returns the coordinator's
// training result alongside the per-participant errors (indexed by
// participant). Every byte crosses a real TCP connection and the full wire
// protocol, so a Loopback run exercises exactly what a distributed
// deployment would — it just schedules both sides in one process.
func Loopback(ctx context.Context, c *Coordinator, parts func(i int) *Participant) (*hfl.Result, []error, error) {
	return Chaos{}.Loopback(ctx, c, parts)
}

// Chaos is what a fault-injecting caller adds to a Loopback run: a kill
// switch in front of the coordinator with the step that replaces a dead
// one. The zero value adds nothing.
type Chaos struct {
	// Front, when non-nil, stands before the coordinator; the harness
	// installs every incarnation's handler behind it. Whatever kills the
	// coordinator (a journal writer tearing a record) calls Front.Kill first,
	// so the dead incarnation's replies never reach a participant.
	Front *Front
	// Next, when non-nil, is called each time Coordinator.Run fails, with the
	// number of restarts so far (1 on the first call) and Run's error. It
	// returns the fresh coordinator of the next incarnation, or an error to
	// give up. The harness replays Journal's clean prefix into it through
	// Recover, truncates the torn tail, installs it behind Front and runs it.
	Next func(restarts int, runErr error) (*Coordinator, error)
	// Journal is the buffer the coordinators' journal writer appends to.
	Journal *bytes.Buffer
}

// A harness server's limits: on a request header and on an idle kept-alive
// connection. Not ReadTimeout / WriteTimeout — a long poll holds its request
// for longPollWait.
const serveHeaderTimeout, serveIdleTimeout = 5 * time.Second, time.Minute

// serve starts a server for h on a fresh loopback port.
func serve(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("fednet: loopback listener: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: serveHeaderTimeout, IdleTimeout: serveIdleTimeout}
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = srv.Close() }, nil
}

// Loopback is the package-level Loopback with k wired in.
func (k Chaos) Loopback(ctx context.Context, c *Coordinator, parts func(i int) *Participant) (*hfl.Result, []error, error) {
	rootHandler := c.Handler()
	if k.Front != nil {
		k.Front.Install(rootHandler)
		rootHandler = k.Front
	}
	root, stop, err := serve(rootHandler)
	if err != nil {
		return nil, nil, err
	}
	defer stop()

	perrs := make([]error, c.N)
	var wg sync.WaitGroup
	for i := 0; i < c.N; i++ {
		p := parts(i)
		p.BaseURL = root
		wg.Add(1)
		go func() {
			defer wg.Done()
			perrs[i] = p.Run(ctx)
		}()
	}

	res, runErr := c.Run(ctx)
	for restarts := 1; runErr != nil && k.Next != nil; restarts++ {
		if c, err = k.Next(restarts, runErr); err != nil {
			runErr = err
			break
		}
		consumed, err := c.Recover(bytes.NewReader(k.Journal.Bytes()))
		if err != nil {
			runErr = fmt.Errorf("fednet: loopback recovery %d: %w", restarts, err)
			break
		}
		k.Journal.Truncate(int(consumed))
		k.Front.Install(c.Handler())
		res, runErr = c.Run(ctx)
	}
	wg.Wait()
	return res, perrs, runErr
}

// Front is a kill switch in front of a server — the harness's stand-in for a
// process boundary: a swappable inner handler behind one address, a down
// flag and an incarnation counter. While down, every request — and every
// in-flight response write from a previous incarnation's handler — aborts
// its connection, so a killed process's half-written replies and stale
// long-poll wakeups can never reach a client, exactly as if the process had
// died.
type Front struct {
	mu    sync.RWMutex
	inner http.Handler
	gen   int
	down  bool
}

// Install swaps in a new incarnation's handler and brings the front up.
func (f *Front) Install(h http.Handler) {
	f.mu.Lock()
	f.inner = h
	f.gen++
	f.down = false
	f.mu.Unlock()
}

// Kill takes the front down; in-flight handlers abort at their next write.
func (f *Front) Kill() {
	f.mu.Lock()
	f.down = true
	f.mu.Unlock()
}

func (f *Front) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	f.mu.RLock()
	inner, gen, down := f.inner, f.gen, f.down
	f.mu.RUnlock()
	if down || inner == nil {
		panic(http.ErrAbortHandler)
	}
	inner.ServeHTTP(&fencedWriter{front: f, gen: gen, w: w}, req)
}

// fencedWriter aborts the connection on any write attempted after the front
// went down or moved to a newer incarnation — the handler goroutine is
// treated as part of the killed process.
type fencedWriter struct {
	front *Front
	gen   int
	w     http.ResponseWriter
}

func (fw *fencedWriter) check() {
	fw.front.mu.RLock()
	ok := !fw.front.down && fw.front.gen == fw.gen
	fw.front.mu.RUnlock()
	if !ok {
		panic(http.ErrAbortHandler)
	}
}

func (fw *fencedWriter) Header() http.Header { return fw.w.Header() }

func (fw *fencedWriter) WriteHeader(code int) {
	fw.check()
	fw.w.WriteHeader(code)
}

func (fw *fencedWriter) Write(p []byte) (int, error) {
	fw.check()
	return fw.w.Write(p)
}
