package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"digfl/internal/hfl"
)

// span is one traced interval. Start and End are nanoseconds since the
// tracer was created; Parent is the index of the span that caused this one
// (-1 for a root); Round is the identifier spans of one round share.
type span struct {
	Name       string
	Start, End int64
	Parent     int
	Round      int
}

// tracer keeps spans in memory until the run ends. Spans are recorded only
// from the benchmark's own files: around the handler calls the drivers make
// and inside the decorators on the coordinator's interface-typed seams. A
// nil *tracer is the untraced run: every method is a no-op.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// open is the driver goroutine's innermost open span (-1 when none);
	// decorator spans, which may run on the coordinator's goroutine while
	// the driver blocks in a poll, take it as their parent.
	open int
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity), open: -1}
}

// begin opens a driver span and makes it the parent of nested spans.
func (tr *tracer) begin(name string, round int) int {
	if tr == nil {
		return -1
	}
	now := int64(time.Since(tr.t0))
	tr.mu.Lock()
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{Name: name, Start: now, Parent: tr.open, Round: round})
	tr.open = id
	tr.mu.Unlock()
	return id
}

// end closes a span opened by begin and restores its parent as innermost.
func (tr *tracer) end(id int) {
	if tr == nil {
		return
	}
	now := int64(time.Since(tr.t0))
	tr.mu.Lock()
	tr.spans[id].End = now
	tr.open = tr.spans[id].Parent
	tr.mu.Unlock()
}

// leaf records a completed span that began at start as a child of whatever
// driver span is open, sharing its round; the decorators use it. A
// decorator called on the coordinator's goroutine while the driver blocks in
// a poll thereby becomes a child of that poll.
func (tr *tracer) leaf(name string, start time.Time) {
	if tr == nil {
		return
	}
	s, e := int64(start.Sub(tr.t0)), int64(time.Since(tr.t0))
	tr.mu.Lock()
	sp := span{Name: name, Start: s, End: e, Parent: tr.open}
	if tr.open >= 0 {
		sp.Round = tr.spans[tr.open].Round
	}
	tr.spans = append(tr.spans, sp)
	tr.mu.Unlock()
}

// root records a completed span with no parent (the score reader's reads,
// which run beside the round loop rather than inside it).
func (tr *tracer) root(name string, start time.Time, round int) {
	if tr == nil {
		return
	}
	s, e := int64(start.Sub(tr.t0)), int64(time.Since(tr.t0))
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{Name: name, Start: s, End: e, Parent: -1, Round: round})
	tr.mu.Unlock()
}

// totals sums span durations by name and, per name, the time covered by
// direct children — self time is total minus children.
func (tr *tracer) totals() (total, children map[string]time.Duration) {
	total, children = map[string]time.Duration{}, map[string]time.Duration{}
	for _, s := range tr.spans {
		d := time.Duration(s.End - s.Start)
		total[s.Name] += d
		if s.Parent >= 0 {
			children[tr.spans[s.Parent].Name] += d
		}
	}
	return total, children
}

// writeJSONL writes one span per line: {name, start, end, parent, round}.
func (tr *tracer) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	for i, s := range tr.spans {
		fmt.Fprintf(bw, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"round":%d}`+"\n",
			i, s.Name, s.Start, s.End, s.Parent, s.Round)
	}
	return bw.Flush()
}

// writeTraceFile writes the spans under .bench_build/trace/ in the working
// directory (the checkout the benchmark runs in) and returns the path.
func (tr *tracer) writeTraceFile(workload string) (string, error) {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := tr.writeJSONL(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// tracedStream decorates the coordinator's StreamAggregator seam: every
// fold it hands out records hfl.fold_add and hfl.fold_close spans.
type tracedStream struct {
	inner hfl.StreamAggregator
	tr    *tracer
}

func (s tracedStream) NewFold(p, k int, valGrad []float64) hfl.Fold {
	inner := s.inner.NewFold(p, k, valGrad)
	pend, ok := inner.(interface{ Pending() int })
	if !ok {
		// The coordinator recycles a delta only when Pending tells it the
		// fold consumed it; hiding a missing Pending would change ingest.
		panic("bench: traced fold needs an inner fold with Pending()")
	}
	return &tracedFold{inner: inner, pend: pend, tr: s.tr}
}

type tracedFold struct {
	inner hfl.Fold
	pend  interface{ Pending() int }
	tr    *tracer
}

func (f *tracedFold) Add(slot int, delta []float64) error {
	t0 := time.Now()
	err := f.inner.Add(slot, delta)
	f.tr.leaf("hfl.fold_add", t0)
	return err
}

func (f *tracedFold) Close() (*hfl.FoldResult, error) {
	t0 := time.Now()
	res, err := f.inner.Close()
	f.tr.leaf("hfl.fold_close", t0)
	return res, err
}

func (f *tracedFold) Pending() int { return f.pend.Pending() }

// countingWriter is the benchmark's journal device: it counts what the
// write-ahead log appends and keeps nothing (or everything, when retain is
// set, so a test can replay the journal).
type countingWriter struct {
	// bytes is read by the driver while the coordinator's goroutine appends.
	bytes  atomic.Int64
	retain bool
	buf    []byte
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.bytes.Add(int64(len(p)))
	if w.retain {
		w.buf = append(w.buf, p...)
	}
	return len(p), nil
}

// tracedWriter decorates the coordinator's Journal seam with
// fednet.journal_write spans.
type tracedWriter struct {
	inner io.Writer
	tr    *tracer
}

func (w tracedWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := w.inner.Write(p)
	w.tr.leaf("fednet.journal_write", t0)
	return n, err
}
