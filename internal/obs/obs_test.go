package obs

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSnapshotExact feeds a known event mix and checks every counter.
func TestSnapshotExact(t *testing.T) {
	c := &Collector{}
	c.Emit(Event{Kind: KindEpochStart, T: 1})
	c.Emit(Event{Kind: KindLocalUpdate, T: 1, Part: 0, Dur: 3 * time.Millisecond})
	c.Emit(Event{Kind: KindLocalUpdate, T: 1, Part: 1, Dur: 5 * time.Millisecond})
	c.Emit(Event{Kind: KindAggregate, T: 1, N: 2, Dur: time.Millisecond})
	c.Emit(Event{Kind: KindEpochEnd, T: 1, Dur: 10 * time.Millisecond, Value: 0.5})
	c.Emit(Event{Kind: KindEstimatorRound, T: 1, N: 2, Dur: 2 * time.Millisecond})
	c.Emit(Event{Kind: KindPaillierEnc, N: 7})
	c.Emit(Event{Kind: KindPaillierDec, N: 3})
	c.Emit(Event{Kind: KindPaillierAdd, N: 11})
	c.Emit(Event{Kind: KindPaillierMulPlain, N: 13})
	c.Emit(Event{Kind: KindPoolTask, N: 4, Workers: 2})
	c.Emit(Event{Kind: KindPoolTask, N: 6, Workers: 3})

	got := c.Snapshot()
	want := Snapshot{
		Epochs: 1, LocalUpdates: 2, Aggregates: 1, EstimatorRounds: 1,
		PaillierEnc: 7, PaillierDec: 3, PaillierAdd: 11, PaillierMulPlain: 13,
		PoolBatches: 2, PoolTasks: 10, PoolWorkersMax: 3,
		EpochTime: 10 * time.Millisecond, LocalUpdateTime: 8 * time.Millisecond,
		AggregateTime: time.Millisecond, EstimatorTime: 2 * time.Millisecond,
	}
	if got != want {
		t.Fatalf("snapshot mismatch\n got %+v\nwant %+v", got, want)
	}
	if ops := got.PaillierOps(); ops != 7+3+11+13 {
		t.Fatalf("PaillierOps = %d, want %d", ops, 7+3+11+13)
	}
	s := got.String()
	for _, sub := range []string{"epochs=1", "local_updates=2", "paillier[enc=7", "pool[batches=2"} {
		if !strings.Contains(s, sub) {
			t.Errorf("Snapshot.String() = %q, missing %q", s, sub)
		}
	}
}

// TestConcurrentSinks hammers a Tee of both shipped sinks from many
// goroutines; the -race run is the assertion.
func TestConcurrentSinks(t *testing.T) {
	c := &Collector{}
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	sink := Tee(c, tw)

	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				Emit(sink, Event{Kind: KindLocalUpdate, T: i + 1, Part: g})
				Emit(sink, Event{Kind: KindPaillierAdd, N: 2})
				if i%10 == 0 {
					c.Snapshot() // concurrent reads must be safe too
				}
			}
		}(g)
	}
	wg.Wait()
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}

	snap := c.Snapshot()
	if snap.LocalUpdates != goroutines*perG {
		t.Errorf("LocalUpdates = %d, want %d", snap.LocalUpdates, goroutines*perG)
	}
	if snap.PaillierAdd != 2*goroutines*perG {
		t.Errorf("PaillierAdd = %d, want %d", snap.PaillierAdd, 2*goroutines*perG)
	}
	events, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2*goroutines*perG {
		t.Errorf("trace has %d events, want %d", len(events), 2*goroutines*perG)
	}
}

// TestNilSinkZeroAlloc is the acceptance bound: instrumentation with no sink
// attached must not allocate.
func TestNilSinkZeroAlloc(t *testing.T) {
	allocs := testing.AllocsPerRun(1000, func() {
		t0 := Start(nil)
		Emit(nil, Event{Kind: KindLocalUpdate, T: 1, Part: 2, Dur: Since(nil, t0)})
		Emit(nil, Event{Kind: KindEpochEnd, T: 1, Value: 0.25})
	})
	if allocs != 0 {
		t.Fatalf("nil-sink instrumentation allocates %v per op, want 0", allocs)
	}
}

// TestStartSinceNil checks the no-clock contract of the timing helpers.
func TestStartSinceNil(t *testing.T) {
	if t0 := Start(nil); !t0.IsZero() {
		t.Errorf("Start(nil) = %v, want zero time", t0)
	}
	if d := Since(nil, time.Time{}); d != 0 {
		t.Errorf("Since(nil, _) = %v, want 0", d)
	}
	c := &Collector{}
	t0 := Start(c)
	if t0.IsZero() {
		t.Error("Start(sink) returned the zero time")
	}
	if d := Since(c, t0); d < 0 {
		t.Errorf("Since(sink, t0) = %v, want >= 0", d)
	}
}

// TestTraceRoundTrip writes every kind, with non-finite values, and reads
// the identical events back.
func TestTraceRoundTrip(t *testing.T) {
	in := []Event{
		{Kind: KindEpochStart, T: 1},
		{Kind: KindLocalUpdate, T: 1, Part: 3, Dur: 1500 * time.Nanosecond},
		{Kind: KindAggregate, T: 1, N: 5, Dur: time.Microsecond},
		{Kind: KindEpochEnd, T: 1, Dur: time.Millisecond, Value: math.NaN()},
		{Kind: KindEpochEnd, T: 2, Value: math.Inf(1)},
		{Kind: KindEpochEnd, T: 3, Value: math.Inf(-1)},
		{Kind: KindEstimatorRound, T: 1, N: 5, Dur: 2 * time.Microsecond},
		{Kind: KindPaillierEnc, N: 10},
		{Kind: KindPaillierDec, N: 4},
		{Kind: KindPaillierAdd, N: 40},
		{Kind: KindPaillierMulPlain, N: 40},
		{Kind: KindPoolTask, N: 10, Workers: 2},
	}
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	for _, e := range in {
		tw.Emit(e)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), `{"format":"digfl-trace","version":1}`) {
		t.Fatalf("trace missing header, got %q", buf.String()[:60])
	}
	out, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip produced %d events, want %d", len(out), len(in))
	}
	for i := range in {
		a, b := in[i], out[i]
		// NaN breaks ==; compare Value bitwise-equivalently.
		if math.IsNaN(a.Value) != math.IsNaN(b.Value) ||
			(!math.IsNaN(a.Value) && a.Value != b.Value) {
			t.Errorf("event %d Value = %v, want %v", i, b.Value, a.Value)
		}
		a.Value, b.Value = 0, 0
		if a != b {
			t.Errorf("event %d = %+v, want %+v", i, b, a)
		}
	}
}

// TestReadTraceRejects checks header validation and unknown kinds.
func TestReadTraceRejects(t *testing.T) {
	cases := map[string]string{
		"wrong format":    `{"format":"not-a-trace","version":1}`,
		"future version":  `{"format":"digfl-trace","version":99}`,
		"unknown kind":    `{"format":"digfl-trace","version":1}` + "\n" + `{"kind":"warp_drive"}`,
		"truncated event": `{"format":"digfl-trace","version":1}` + "\n" + `{"kind":`,
	}
	for name, in := range cases {
		if _, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadTrace accepted %q", name, in)
		}
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

// TestTraceWriterStickyError checks that a write failure is latched and
// never panics the instrumented run.
func TestTraceWriterStickyError(t *testing.T) {
	tw := NewTraceWriter(&failWriter{n: 16})
	for i := 0; i < 10000; i++ { // enough to overflow the bufio buffer
		tw.Emit(Event{Kind: KindPaillierAdd, N: 1})
	}
	if err := tw.Flush(); err == nil {
		t.Fatal("Flush returned nil error after failed writes")
	}
	if tw.Err() == nil {
		t.Fatal("Err returned nil after failed writes")
	}
	tw.Emit(Event{Kind: KindPaillierAdd, N: 1}) // must be a no-op, not a panic
}

// TestTee checks nil-skipping and fan-out.
func TestTee(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Error("Tee of no sinks should be nil (keeps the zero-cost path)")
	}
	a := &Collector{}
	if got := Tee(nil, a); got != Sink(a) {
		t.Errorf("Tee(nil, a) = %T, want the sink itself", got)
	}
	b := &Collector{}
	Tee(a, nil, b).Emit(Event{Kind: KindEpochEnd})
	if a.Snapshot().Epochs != 1 || b.Snapshot().Epochs != 1 {
		t.Error("Tee did not fan out to both sinks")
	}
}

// TestKindString pins the wire names; renaming one breaks old traces.
func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindEpochStart: "epoch_start", KindEpochEnd: "epoch_end",
		KindLocalUpdate: "local_update", KindAggregate: "aggregate",
		KindEstimatorRound: "estimator_round",
		KindPaillierEnc:    "paillier_enc", KindPaillierDec: "paillier_dec",
		KindPaillierAdd: "paillier_add", KindPaillierMulPlain: "paillier_mul_plain",
		KindPoolTask: "pool_task",
		KindDropout:  "dropout", KindStraggler: "straggler", KindRetry: "retry",
		KindCrash: "crash", KindCheckpoint: "checkpoint", KindResume: "resume",
		KindNetRoundStart: "net_round_start", KindNetRoundEnd: "net_round_end",
		KindNetRequest: "net_request", KindNetTimeout: "net_timeout",
		KindAttackInjected: "attack_injected", KindUpdateRejected: "update_rejected",
		KindUpdateClipped: "update_clipped", KindQuarantine: "quarantine",
		KindSample:     "sample",
		KindNetBytesRx: "net_bytes_rx", KindNetBytesTx: "net_bytes_tx",
		KindCodecV2Frame: "codec_v2_frame",
		KindWALAppend:    "wal_append", KindRecover: "recover",
		KindRejoin:      "rejoin",
		KindAsyncCommit: "async_commit", KindStaleFold: "stale_fold",
		KindStaleReject: "stale_reject",
	}
	got := map[Kind]string{}
	for k := Kind(0); k < numKinds; k++ {
		got[k] = k.String()
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("kind names = %v, want %v", got, want)
	}
	if Kind(250).String() != "unknown" {
		t.Error("out-of-range Kind should stringify as unknown")
	}
}

// BenchmarkEmitNilSink measures the off-cost of an instrumentation point.
func BenchmarkEmitNilSink(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t0 := Start(nil)
		Emit(nil, Event{Kind: KindLocalUpdate, T: i, Dur: Since(nil, t0)})
	}
}

// BenchmarkEmitCollector is the on-cost reference point.
func BenchmarkEmitCollector(b *testing.B) {
	c := &Collector{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Emit(c, Event{Kind: KindLocalUpdate, T: i})
	}
}
