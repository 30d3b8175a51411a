package fednet

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"digfl/internal/core"
	"digfl/internal/faults"
	"digfl/internal/framing"
	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/robust"
	"digfl/internal/tensor"
)

// walRecords splits a journal into its complete records, framing included.
func walRecords(journal []byte) [][]byte {
	var recs [][]byte
	for len(journal) >= framing.HdrLen {
		n := framing.HdrLen + int(binary.LittleEndian.Uint32(journal))
		if n > len(journal) {
			break
		}
		recs = append(recs, journal[:n])
		journal = journal[n:]
	}
	return recs
}

// closeFrames picks the epoch-close frames out of a journal's records.
func closeFrames(journal []byte) [][]byte {
	var out [][]byte
	for _, rec := range walRecords(journal) {
		if len(rec) >= framing.HdrLen+4 && [4]byte(rec[framing.HdrLen:]) == magicClose {
			out = append(out, rec)
		}
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameMatrixBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

// closeHarness drives the journaled close path without a network: a
// coordinator whose quarantine and estimator observe synthetic epochs and
// whose journalClose appends to journal, between the run_open and
// epoch_open records that make the journal replayable.
type closeHarness struct {
	c       *Coordinator
	journal *bytes.Buffer
	rng     *tensor.RNG
	n, d    int
	theta   []float64
	curve   []float64
	// poison, when set, edits an epoch before it is observed.
	poison func(ep *hfl.Epoch)
}

// halfHVP stands in for a participant's Hessian-vector product.
func halfHVP(_ []float64, i int, v []float64) []float64 {
	out := make([]float64, len(v))
	for j, x := range v {
		out[j] = float64(0.5*x) + float64(1e-3*float64(i))
	}
	return out
}

func newCloseHarness(tb testing.TB, n, d, epochs int, mode core.Mode, totalsOnly bool) *closeHarness {
	tb.Helper()
	var hvp core.HVPProvider
	if mode == core.Interactive {
		hvp = halfHVP
	}
	est := core.NewHFLEstimator(n, d, mode, hvp)
	est.TotalsOnly = totalsOnly
	h := &closeHarness{journal: &bytes.Buffer{}, rng: tensor.NewRNG(16), n: n, d: d,
		theta: make([]float64, d), curve: []float64{1}}
	h.c = &Coordinator{N: n, Cfg: hfl.Config{Epochs: epochs}, Estimator: est,
		Quarantine: robust.MustNewQuarantine(robust.Quarantine{Estimator: est})}
	h.c.wal = newWAL(h.journal, nil)
	if err := h.c.wal.appendJSON(walRecord{Kind: walKindRunOpen, Protocol: WALProtocol,
		Instance: 1, N: n, Epochs: epochs, Params: d}); err != nil {
		tb.Fatalf("run_open: %v", err)
	}
	return h
}

// observe runs epoch t through the quarantine (and so the estimator) with
// the given reporters (nil: everyone) and moves the model.
func (h *closeHarness) observe(tb testing.TB, t int, reporters []int) {
	tb.Helper()
	if err := h.c.wal.appendJSON(walRecord{Kind: walKindEpochOpen, T: t, Active: reporters}); err != nil {
		tb.Fatalf("epoch_open %d: %v", t, err)
	}
	m := h.n
	if reporters != nil {
		m = len(reporters)
	}
	ep := &hfl.Epoch{T: t, LR: 0.1, Theta: tensor.Clone(h.theta), Reported: reporters,
		ValGrad: make([]float64, h.d), Deltas: make([][]float64, m)}
	for j := range ep.ValGrad {
		ep.ValGrad[j] = h.rng.NormFloat64()
	}
	for k := range ep.Deltas {
		ep.Deltas[k] = make([]float64, h.d)
		for j := range ep.Deltas[k] {
			ep.Deltas[k][j] = h.rng.NormFloat64()
		}
	}
	if h.poison != nil {
		h.poison(ep)
	}
	for _, delta := range ep.Deltas {
		tensor.AXPY(-0.01, delta, h.theta)
	}
	if h.c.Quarantine != nil {
		h.c.Quarantine.Weights(ep)
	} else {
		h.c.Estimator.Observe(ep)
	}
	h.curve = append(h.curve, 1/float64(t+1))
}

func (h *closeHarness) checkpoint(t int) *hfl.Checkpoint {
	return &hfl.Checkpoint{Epoch: t, Theta: h.theta, ValLossCurve: h.curve[:t+1]}
}

func (h *closeHarness) close(tb testing.TB, t int) {
	tb.Helper()
	if err := h.c.journalClose(h.checkpoint(t)); err != nil {
		tb.Fatalf("close %d: %v", t, err)
	}
}

// checkReplayMatchesLive replays the harness's journal and compares the
// folded checkpoint with the live state it was written from, bit for bit.
func (h *closeHarness) checkReplayMatchesLive(t *testing.T, label string) *walReplay {
	t.Helper()
	rep, err := replayWAL(bytes.NewReader(h.journal.Bytes()))
	if err != nil {
		t.Fatalf("%s: replay: %v", label, err)
	}
	if rep.consumed != int64(h.journal.Len()) {
		t.Errorf("%s: replay consumed %d of %d bytes", label, rep.consumed, h.journal.Len())
	}
	want := h.c.Estimator.State()
	if !sameBits(rep.theta, h.theta) || !sameBits(rep.curve, h.curve) {
		t.Errorf("%s: replayed model or curve differ from the live ones", label)
	}
	if rep.est == nil || rep.est.LastEpoch != want.LastEpoch || !sameBits(rep.est.Totals, want.Totals) ||
		!sameMatrixBits(rep.est.PerEpoch, want.PerEpoch) || !sameMatrixBits(rep.est.DeltaGSum, want.DeltaGSum) {
		t.Errorf("%s: replayed estimator state differs from the live one", label)
	}
	q := h.c.Quarantine.State()
	if rep.quar == nil || !sameBits(rep.quar.Ewma, q.Ewma) || len(rep.quar.Streak) != len(q.Streak) {
		t.Fatalf("%s: replayed quarantine state differs from the live one", label)
	}
	for i := range q.Streak {
		if rep.quar.Streak[i] != q.Streak[i] || rep.quar.Seen[i] != q.Seen[i] || rep.quar.Banned[i] != q.Banned[i] {
			t.Errorf("%s: replayed quarantine slot %d differs", label, i)
		}
	}
	return rep
}

// TestWALCloseFoldMatchesLiveState journals sixty epochs of full and partial
// participation and requires the replayed fold — rows appended, totals
// accumulated, vectors replaced — to equal the live estimator, quarantine
// and checkpoint exactly, with a close frame whose size does not depend on
// the epoch number.
func TestWALCloseFoldMatchesLiveState(t *testing.T) {
	const n, d, epochs = 8, 12, 60
	for _, totalsOnly := range []bool{false, true} {
		h := newCloseHarness(t, n, d, epochs, core.ResourceSaving, totalsOnly)
		for e := 1; e <= epochs; e++ {
			var reporters []int
			switch e % 5 {
			case 3:
				reporters = []int{6, 1, 4} // a sparse row, out of order
			case 4:
				reporters = []int{} // an all-dropped epoch
			}
			h.observe(t, e, reporters)
			h.close(t, e)
		}
		label := map[bool]string{false: "per-epoch", true: "totals-only"}[totalsOnly]
		h.checkReplayMatchesLive(t, label)

		frames := closeFrames(h.journal.Bytes())
		if len(frames) != epochs {
			t.Fatalf("%s: %d close frames for %d epochs", label, len(frames), epochs)
		}
		// Epochs 2 and 57 are both fully reported: same bytes, 55 epochs apart.
		if a, b := len(frames[1]), len(frames[56]); a != b {
			t.Errorf("%s: close frame is %d bytes at epoch 2 and %d at epoch 57", label, a, b)
		}
		// A sparse epoch's frame carries its three reporters, not the row.
		if dense, sparse := len(frames[1]), len(frames[2]); dense-sparse != 8*n-12*3 {
			t.Errorf("%s: dense frame %d bytes, 3-reporter frame %d; want them %d apart",
				label, dense, sparse, 8*n-12*3)
		}
	}
}

// TestWALCloseSampledIsCohortSized: the reference cell's close — 100k
// population, cohort 64, TotalsOnly — journals the cohort's (index, φ)
// pairs and nothing population-sized, and its replayed totals are the live
// ones.
func TestWALCloseSampledIsCohortSized(t *testing.T) {
	const n, d, cohort, epochs = 100_000, 8, 64, 3
	h := newCloseHarness(t, n, d, epochs, core.ResourceSaving, true)
	h.c.Quarantine = nil // the quarantine's per-participant vectors are O(N) by design
	for e := 1; e <= epochs; e++ {
		reporters := make([]int, cohort)
		for k := range reporters {
			reporters[k] = (e*7919 + k*1543) % n
		}
		h.observe(t, e, reporters)
		h.close(t, e)
	}
	rep, err := replayWAL(bytes.NewReader(h.journal.Bytes()))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !sameBits(rep.est.Totals, h.c.Estimator.Attribution().Totals) || rep.est.PerEpoch != nil {
		t.Error("replayed totals differ from the live ones, or rows were retained")
	}
	want := framing.HdrLen + closeSize(closeEst|closeTotalsOnly, d, 1, n, cohort, 0, 0)
	for _, rec := range closeFrames(h.journal.Bytes())[1:] {
		if len(rec) != want || len(rec) > 2048 {
			t.Errorf("close frame of a 64-of-100k epoch is %d bytes, want %d", len(rec), want)
		}
	}
}

// TestWALCloseFrameBitExact pins what the JSON close could not carry: NaN
// payload bits, the sign of zero and the infinities cross the journal
// verbatim, in every float section of the frame — and what the framing
// promises of a close: a tear anywhere in it replays to the record before,
// a flipped bit anywhere in it fails the checksum.
func TestWALCloseFrameBitExact(t *testing.T) {
	const n, d = 5, 9
	nan := math.Float64frombits(0x7ff8000000000abc)
	for _, mode := range []core.Mode{core.ResourceSaving, core.Interactive} {
		h := newCloseHarness(t, n, d, 3, mode, false)
		// Epoch 1 scores participant 0 NaN, 1 minus zero, 2 and 3 the two
		// infinities; the model, the quarantine EWMAs (seeded with φ) and
		// the ΔG-sums inherit them.
		h.poison = func(ep *hfl.Epoch) {
			for j := range ep.ValGrad {
				ep.ValGrad[j] = -math.Abs(ep.ValGrad[j]) - 1
			}
			ep.Deltas[0][0] = nan
			// A dot of -5e-324 scales to a φ that rounds to minus zero.
			clear(ep.Deltas[1])
			ep.ValGrad[0], ep.Deltas[1][0] = -1, math.SmallestNonzeroFloat64
			ep.Deltas[2][1] = math.Inf(1)
			ep.Deltas[3][2] = math.Inf(-1)
		}
		h.observe(t, 1, nil)
		h.curve[1] = nan
		h.close(t, 1)
		h.poison = nil
		h.observe(t, 2, []int{3, 0})
		h.close(t, 2)

		label := mode.String()
		rep := h.checkReplayMatchesLive(t, label)
		row := rep.est.PerEpoch[0]
		// (The Interactive second-order term moves participant 1 off zero.)
		minusZero := mode == core.Interactive || math.Float64bits(row[1]) == 1<<63
		if !math.IsNaN(row[0]) || !minusZero || !math.IsInf(row[2], -1) || !math.IsInf(row[3], 1) {
			t.Errorf("%s: epoch 1's replayed row is %v; want NaN, -0, -Inf, +Inf, finite", label, row)
		}
		if math.Float64bits(rep.curve[1]) != math.Float64bits(nan) {
			t.Errorf("%s: the curve's NaN came back as %#x", label, math.Float64bits(rep.curve[1]))
		}
		if (mode == core.Interactive) != (rep.est.DeltaGSum != nil) {
			t.Errorf("%s: replay carries %d ΔG-sums", label, len(rep.est.DeltaGSum))
		}

		full := h.journal.Bytes()
		closes := closeFrames(full)
		lastOff := len(full) - len(closes[1])
		for cut := lastOff; cut < len(full); cut++ {
			rep, err := replayWAL(bytes.NewReader(full[:cut]))
			if err != nil {
				t.Fatalf("%s: tear at byte %d: %v", label, cut, err)
			}
			if rep.consumed != int64(lastOff) || rep.lastClosed != 1 || rep.openT != 2 ||
				len(rep.curve) != 2 || len(rep.est.PerEpoch) != 1 {
				t.Fatalf("%s: tear at byte %d: consumed %d (want %d), closed %d, open %d",
					label, cut, rep.consumed, lastOff, rep.lastClosed, rep.openT)
			}
		}
		first := bytes.Index(full, closes[0])
		for _, off := range []int{framing.HdrLen + 5, framing.HdrLen + closeHdrLen + 11, len(closes[0]) - 13, len(closes[0]) - 1} {
			bad := bytes.Clone(full)
			bad[first+off] ^= 0x10
			if _, err := replayWAL(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "checksum") {
				t.Errorf("%s: flipped bit at byte %d of the first close: replay returned %v, want a checksum failure", label, off, err)
			}
		}
	}
}

// TestWALRefusesOlderProtocol: a journal written by the /1 format is named
// and refused at its run_open, before any later record is looked at.
func TestWALRefusesOlderProtocol(t *testing.T) {
	var journal bytes.Buffer
	wl := newWAL(&journal, nil)
	if err := wl.appendJSON(walRecord{Kind: walKindRunOpen, Protocol: "digfl-fednet-wal/1",
		Instance: 1, N: 3, Epochs: 2, Params: 4}); err != nil {
		t.Fatal(err)
	}
	_, err := replayWAL(bytes.NewReader(journal.Bytes()))
	if err == nil || !strings.Contains(err.Error(), `"digfl-fednet-wal/1"`) || !strings.Contains(err.Error(), WALProtocol) {
		t.Errorf("replay of a /1 journal returned %v; want a refusal naming both protocols", err)
	}
}

// TestWALReplayDistrustsDeclaredLength: a header's length field is
// unverified until its payload has been read and summed, so a torn tail
// that declares the largest legal record must cost what arrived, not what
// it promised.
func TestWALReplayDistrustsDeclaredLength(t *testing.T) {
	journal := make([]byte, 12)
	binary.LittleEndian.PutUint32(journal, maxBodyBytes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := replayWAL(bytes.NewReader(journal))
	runtime.ReadMemStats(&after)
	if err != nil || rep.consumed != 0 || rep.records != 0 {
		t.Fatalf("replay: %v, consumed %d, %d records; want a clean torn tail", err, rep.consumed, rep.records)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("replaying a 12-byte journal allocated %d bytes", got)
	}
}

// TestRecoverRefusedLeavesScoreUnchanged: Recover on a coordinator that is
// already running is refused before it touches anything — the estimator
// and quarantine the score handler reads keep their live state.
func TestRecoverRefusedLeavesScoreUnchanged(t *testing.T) {
	const n, d, epochs = 4, 6, 3
	h := newCloseHarness(t, n, d, epochs, core.ResourceSaving, false)
	h.observe(t, 1, nil)
	h.close(t, 1)

	est := core.NewHFLEstimator(n, d, core.ResourceSaving, nil)
	c := &Coordinator{N: n, Model: nn.NewLinearRegression(d, false), Cfg: hfl.Config{Epochs: epochs}, Estimator: est,
		Quarantine: robust.MustNewQuarantine(robust.Quarantine{Estimator: est})}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	score := func() string {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/score")
		if err != nil {
			t.Fatalf("score: %v", err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { _, err := c.Run(ctx); done <- err }()
	// Run marks the coordinator started before it waits at the join barrier.
	for {
		c.mu.Lock()
		started := c.started
		c.mu.Unlock()
		if started {
			break
		}
		runtime.Gosched()
	}
	before := score()
	if _, err := c.Recover(bytes.NewReader(h.journal.Bytes())); err == nil || !strings.Contains(err.Error(), "precede Run") {
		t.Errorf("Recover on a running coordinator returned %v", err)
	}
	if after := score(); after != before {
		t.Errorf("refused Recover changed /v1/score:\nbefore %s\nafter  %s", before, after)
	}
	if est.Attribution().Epochs != 0 {
		t.Errorf("refused Recover installed %d epochs of estimator state", est.Attribution().Epochs)
	}
	cancel()
	if err := <-done; err == nil {
		t.Error("cancelled run returned no error")
	}

	// The same journal is accepted by a coordinator that has not started.
	fresh := &Coordinator{N: n, Cfg: hfl.Config{Epochs: epochs},
		Estimator: core.NewHFLEstimator(n, d, core.ResourceSaving, nil)}
	if _, err := fresh.Recover(bytes.NewReader(h.journal.Bytes())); err != nil {
		t.Fatalf("Recover before Run: %v", err)
	}
	if !sameBits(fresh.Estimator.Attribution().Totals, h.c.Estimator.Attribution().Totals) {
		t.Error("recovered totals differ from the journaled run's")
	}
}

// encodeEdgePartial builds the frame an edge aggregator of the retired
// cohort tree posted to the root, which a journal of that time took as it
// arrived: "D2PA" | u32 t | u32 edge | u32 k | u32 d | k×u32 participant
// indices | d×f64 sum | k×f64 dots.
func encodeEdgePartial(t, edge int, indices []int, sum, dots []float64) []byte {
	b := []byte("D2PA")
	for _, v := range []int{t, edge, len(indices), len(sum)} {
		b = le.AppendUint32(b, uint32(v))
	}
	for _, i := range indices {
		b = le.AppendUint32(b, uint32(i))
	}
	for _, v := range append(append([]float64(nil), sum...), dots...) {
		b = le.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// partialJournal is a journal a tree coordinator left mid-round: round 1 of
// a 3-participant run is open, participant 2 posted its update to the root,
// and edge 0's partial covers participants 0 and 1 — record 3.
func partialJournal(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	wl := newWAL(&buf, nil)
	update, err := CodecV2.EncodeUpdate(1, 2, []float64{0.5, -1, 2, 0.25})
	if err != nil {
		tb.Fatal(err)
	}
	for _, err := range []error{
		wl.appendJSON(walRecord{Kind: walKindRunOpen, Protocol: WALProtocol, Instance: 1, N: 3, Epochs: 2, Params: 4}),
		wl.appendJSON(walRecord{Kind: walKindEpochOpen, T: 1}),
		wl.Append(update),
		wl.Append(encodeEdgePartial(1, 0, []int{0, 1}, []float64{1, 2, 3, 4}, []float64{0.5, -0.25})),
	} {
		if err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestRecoverRefusesEdgePartial: a journal holding an edge partial is
// refused by Recover, naming the record, and the coordinator's /v1/score is
// left as it was. Recovering it as a flat round would silently drop the
// members the edge acknowledged.
func TestRecoverRefusesEdgePartial(t *testing.T) {
	c := &Coordinator{N: 3, Cfg: hfl.Config{Epochs: 2},
		Estimator: core.NewHFLEstimator(3, 4, core.ResourceSaving, nil)}
	score := func() string {
		w := serveOnce(c.Handler(), http.MethodGet, "/v1/score", "", nil)
		return fmt.Sprint(w.Code, " ", w.Body)
	}
	before := score()
	_, err := c.Recover(bytes.NewReader(partialJournal(t)))
	if err == nil || !strings.Contains(err.Error(), "WAL record 3 ") {
		t.Errorf("Recover of a journal holding an edge partial returned %v; want an error naming record 3", err)
	}
	if after := score(); after != before {
		t.Errorf("refused Recover changed /v1/score:\nbefore %s\nafter  %s", before, after)
	}
}

// TestWALInteractiveRecovery: an Interactive-mode estimator's ΔG-sum
// recursion is journaled with every close, so a recovered estimator
// continues bit-identically — φ rows, totals and the recursion itself.
func TestWALInteractiveRecovery(t *testing.T) {
	const n, d, epochs, crashAfter = 4, 10, 6, 3
	live := newCloseHarness(t, n, d, epochs, core.Interactive, false)
	for e := 1; e <= crashAfter; e++ {
		live.observe(t, e, nil)
		live.close(t, e)
	}
	rep := live.checkReplayMatchesLive(t, "interactive")
	if len(rep.est.DeltaGSum) != n {
		t.Fatalf("replay carries %d ΔG-sums, want %d", len(rep.est.DeltaGSum), n)
	}

	// A second harness with the same seed replays the same epochs into a
	// coordinator that recovers from the first one's journal...
	twin := newCloseHarness(t, n, d, epochs, core.Interactive, false)
	if _, err := twin.c.Recover(bytes.NewReader(live.journal.Bytes())); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	shadow := newCloseHarness(t, n, d, epochs, core.Interactive, false)
	for e := 1; e <= crashAfter; e++ {
		shadow.observe(t, e, nil) // advance the twin's rng and model past the crash point
	}
	twin.rng, twin.theta, twin.curve = shadow.rng, shadow.theta, shadow.curve
	// ... and both continue: every later epoch must agree exactly.
	for e := crashAfter + 1; e <= epochs; e++ {
		reporters := []int(nil)
		if e == epochs-1 {
			reporters = []int{2, 0}
		}
		live.observe(t, e, reporters)
		twin.observe(t, e, reporters)
	}
	got, want := twin.c.Estimator.State(), live.c.Estimator.State()
	if !sameBits(got.Totals, want.Totals) || !sameMatrixBits(got.PerEpoch, want.PerEpoch) ||
		!sameMatrixBits(got.DeltaGSum, want.DeltaGSum) {
		t.Error("recovered Interactive estimator diverged from the uninterrupted one")
	}
}

// discardCount counts what the journal would have written.
type discardCount struct{ bytes, records int }

func (w *discardCount) Write(p []byte) (int, error) {
	w.bytes += len(p)
	w.records++
	return len(p), nil
}

// closeHarnessAt returns a benchmark-shaped harness (N=64, d=2000) that has
// observed epochs 1..epoch and journals into a counting sink.
func closeHarnessAt(tb testing.TB, epoch int) (*closeHarness, *discardCount) {
	h := newCloseHarness(tb, 64, 2000, 64, core.ResourceSaving, false)
	for e := 1; e <= epoch; e++ {
		h.observe(tb, e, nil)
	}
	sink := &discardCount{}
	h.c.wal = newWAL(sink, nil)
	return h, sink
}

// TestWALCloseAllocsFlat is the allocation gate: a close costs a small
// constant number of allocations whatever the epoch number (the /1 close
// cost thousands, growing with the history it re-serialised).
func TestWALCloseAllocsFlat(t *testing.T) {
	var at [2]float64
	for j, epoch := range []int{2, 60} {
		h, _ := closeHarnessAt(t, epoch)
		ck := h.checkpoint(epoch)
		h.close(t, epoch) // warm the buffer pool
		// The race detector's sync.Pool drops a share of its puts, and one
		// dropped buffer in 20 runs rounds the average up by a whole
		// allocation: the gate reads the minimum of a few attempts.
		at[j] = math.Inf(1)
		for attempt := 0; attempt < 5; attempt++ {
			at[j] = min(at[j], testing.AllocsPerRun(20, func() {
				if err := h.c.journalClose(ck); err != nil {
					t.Fatal(err)
				}
			}))
		}
	}
	if at[0] > 2 || at[1] != at[0] {
		t.Errorf("a close allocates %v times at epoch 2 and %v at epoch 60; want the same, at most 2", at[0], at[1])
	}
}

// BenchmarkJournalClose times the close path alone at the buffered-wal
// cell's shape — N=64, d=2000, estimator and quarantine — early and late in
// a segment: ns/op, B/op and journal bytes per record should not depend on
// the epoch.
func BenchmarkJournalClose(b *testing.B) {
	for _, epoch := range []int{1, 60} {
		b.Run(map[int]string{1: "epoch=1", 60: "epoch=60"}[epoch], func(b *testing.B) {
			h, sink := closeHarnessAt(b, epoch)
			ck := h.checkpoint(epoch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := h.c.journalClose(ck); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sink.bytes)/float64(sink.records), "bytes/record")
		})
	}
}

// journalOfRun runs one small journaled federation of the given round mode
// to completion over loopback and returns its journal.
func journalOfRun(tb testing.TB, mode string) []byte {
	tb.Helper()
	const seed = 5
	n := testN
	model, parts, val := problemN(seed, n)
	journal := &bytes.Buffer{}
	cfg := testConfig()
	cfg.Epochs = 3
	est := core.NewHFLEstimator(n, model.NumParams(), core.ResourceSaving, nil)
	c := &Coordinator{N: n, Model: model, Val: val, Cfg: cfg, Estimator: est, Journal: journal}
	switch mode {
	case "buffered":
		c.Quarantine, c.Archive = robust.MustNewQuarantine(robust.Quarantine{}), &bytes.Buffer{}
	case "streamed":
		c.Stream = hfl.MeanStream{}
	case "async":
		ac := asyncPolicy()
		c.Stream, c.Async = hfl.MeanStream{}, &ac
		c.Cfg.Faults = faults.MustNew(faults.Config{Seed: 3, Straggler: 0.5})
	}
	_, perrs, err := Loopback(context.Background(), c, func(i int) *Participant {
		return &Participant{Index: i, Model: model, Data: parts[i], Retries: 2}
	})
	if err != nil {
		tb.Fatalf("%s run: %v", mode, err)
	}
	for i, perr := range perrs {
		if perr != nil {
			tb.Fatalf("%s worker %d: %v", mode, i, perr)
		}
	}
	return journal.Bytes()
}
