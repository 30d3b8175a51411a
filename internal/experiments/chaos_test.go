package experiments

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"
	"time"

	"digfl/internal/core"
	"digfl/internal/faults"
	"digfl/internal/fednet"
	"digfl/internal/hfl"
	"digfl/internal/obs"
	"digfl/internal/robust"
)

// chaosResult summarizes the deterministic chaos harness: seeded coordinator
// kills with WAL recovery, on a buffered and on an async run, and the
// bit-identity of every interrupted run against its uninterrupted reference.
type chaosResult struct {
	epochs int
	// restarts counts coordinator incarnations beyond the first, summed
	// over the buffered crash runs; asyncRestarts over the async ones.
	restarts, asyncRestarts int
	// walTransparent: an uninterrupted journaled run produced the same
	// model, curve, phi, and archive bytes as the unjournaled reference.
	walTransparent bool
	// crashIdentical: every killed-and-recovered run reproduced the
	// reference bit for bit (model, curve, per-epoch and total phi,
	// archive bytes).
	crashIdentical bool
	// asyncIdentical: the async (K-of-N buffered) loopback run under
	// dropout + stragglers, killed at the same scheduled points and
	// recovered mid-quorum from the journal, reproduced the in-process
	// AsyncLocalSource reference bit for bit (model, curve, phi).
	asyncIdentical bool
	// Crash-safety event counts observed across the interrupted runs, and
	// the async runs' staleness-discounted commits (proof the runs
	// exercised the buffer, not just the fresh path).
	recoveries, rejoins, asyncStaleFolds int64
	// walBytes totals the journal bytes written by the uninterrupted
	// journaled runs.
	walBytes int64
}

// errChaosCrash is the injected journal-write failure that kills a
// coordinator incarnation.
var errChaosCrash = errors.New("chaos: injected crash during journal append")

// walControl is the slice of the journal's JSON control records the crash
// trigger needs (kind and epoch).
type walControl struct {
	Kind string `json:"kind"`
	T    int    `json:"t"`
}

// walCloseMagic opens the journal's binary epoch-close frame; the epoch is
// the little-endian u32 that follows it.
const walCloseMagic = "D2CK"

// crashWriter is the coordinator's journal sink with scheduled violence: it
// parses each appended record (the WAL writes exactly one record per Write),
// and at each scheduled (epoch, phase) it writes only half the record —
// a torn tail, the canonical crash artifact — takes the front down, and
// fails the append. Everything before the torn record is a clean prefix,
// which is precisely what Recover's replay contract promises to resume from.
type crashWriter struct {
	mu      sync.Mutex
	buf     *bytes.Buffer
	sched   []faults.CrashAt
	mid     int // which update ordinal a mid-round kill tears
	openT   int
	updates int
	onCrash func()
}

func (w *crashWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.hit(p) {
		w.sched = w.sched[1:]
		n, _ := w.buf.Write(p[:len(p)/2])
		w.onCrash()
		return n, errChaosCrash
	}
	return w.buf.Write(p)
}

// hit decides whether this record is a scheduled kill point, tracking the
// open epoch and its update count as a side effect. Record framing is the
// digfl-fednet-wal/2 wire: an 8-byte length+CRC header, then a payload that
// is a JSON control record ('{': run_open, epoch_open, ...) or a binary
// frame named by its four-byte magic — the D2CK epoch close, or a D2UP
// member update.
func (w *crashWriter) hit(rec []byte) bool {
	if len(rec) < 16 {
		return false
	}
	payload := rec[8:]
	due := func(phase faults.CrashPhase, t int) bool {
		return len(w.sched) > 0 && w.sched[0].Phase == phase && w.sched[0].Epoch == t
	}
	switch {
	case string(payload[:4]) == walCloseMagic:
		return due(faults.CrashAtClose, int(binary.LittleEndian.Uint32(payload[4:])))
	case payload[0] != '{':
		// One committed member update.
		w.updates++
		return due(faults.CrashMidRound, w.openT) && w.updates == w.mid
	}
	var c walControl
	if json.Unmarshal(payload, &c) != nil || c.Kind != "epoch_open" {
		return false
	}
	w.openT, w.updates = c.T, 0
	return due(faults.CrashAtOpen, c.T)
}

// chaosParticipant is participant i of a chaos run: patient enough to sit
// out a coordinator restart.
func chaosParticipant(fed *federation, retries int, sink obs.Sink) func(i int) *fednet.Participant {
	return func(i int) *fednet.Participant {
		return &fednet.Participant{
			Index: i, Model: fed.model, Data: fed.parts[i],
			Retries: retries, Base: time.Millisecond, Cap: 20 * time.Millisecond, Sink: sink,
		}
	}
}

// runWithKills serves fed over the loopback harness behind a kill switch and
// runs newCoord's coordinator to completion. With a journal, every append
// goes through a crashWriter armed with kills; each time it tears a record
// and takes the front down, the process "died", and the harness recovers a
// fresh newCoord coordinator from the journal's clean prefix behind the same
// address. A nil journal runs a single unjournaled incarnation. It returns
// the finishing incarnation's result and estimator, and the number of
// restarts.
func runWithKills(fed *federation, newCoord func() *fednet.Coordinator,
	journal *bytes.Buffer, kills []faults.CrashAt, sink obs.Sink,
) (*hfl.Result, *core.HFLEstimator, int, error) {
	chaos := fednet.Chaos{Front: &fednet.Front{}, Journal: journal}
	var jw io.Writer
	if journal != nil {
		jw = &crashWriter{buf: journal, sched: kills, mid: (len(fed.parts) + 1) / 2, onCrash: chaos.Front.Kill}
	}
	incarnate := func() *fednet.Coordinator {
		c := newCoord()
		c.Journal = jw
		c.Cfg.Runtime.Sink = sink
		return c
	}
	coord := incarnate()
	restarts := 0
	if journal != nil {
		chaos.Next = func(n int, runErr error) (*fednet.Coordinator, error) {
			restarts = n
			if n > len(kills)+1 {
				return nil, fmt.Errorf("incarnation %d: %w", n, runErr)
			}
			coord = incarnate()
			return coord, nil
		}
	}
	res, perrs, err := chaos.Loopback(context.Background(), coord, chaosParticipant(fed, 400, sink))
	if err = errors.Join(append(perrs, err)...); err != nil {
		return nil, nil, restarts, fmt.Errorf("chaos run: %w", err)
	}
	return res, coord.Estimator, restarts, nil
}

// chaosBuffered is runWithKills's buffered leg: the full crash-safety stack —
// estimator, quarantine and an archive shared by every incarnation. A nil
// journal gives the plain pre-WAL coordinator, the reference.
func chaosBuffered(fed *federation, cfg hfl.Config,
	journal *bytes.Buffer, kills []faults.CrashAt, sink obs.Sink,
) (*hfl.Result, *core.HFLEstimator, *bytes.Buffer, int, error) {
	archive := &bytes.Buffer{}
	res, est, restarts, err := runWithKills(fed, func() *fednet.Coordinator {
		return &fednet.Coordinator{
			N: len(fed.parts), Model: fed.model, Val: fed.val, Cfg: cfg,
			Estimator:  fed.estimator(),
			Quarantine: robust.MustNewQuarantine(robust.Quarantine{}),
			Archive:    archive,
		}
	}, journal, kills, sink)
	return res, est, archive, restarts, err
}

// chaosAsyncPolicy is the async leg's commit policy, and chaosAsyncFaults
// its fault mix: dropout composes with the lag schedule, so buffered
// entries can sit out epochs and age inside the staleness window.
func chaosAsyncPolicy() hfl.AsyncConfig {
	return hfl.AsyncConfig{Quorum: 2, MaxStaleness: 2}
}

func chaosAsyncFaults(seed int64) faults.Config {
	return faults.Config{Seed: seed, Dropout: 0.15, Straggler: 0.5}
}

// chaosAsyncLocal is the async leg's uninterrupted reference: the
// in-process AsyncLocalSource feeding a streaming trainer, with the same
// estimator the loopback coordinator attaches.
func chaosAsyncLocal(fed *federation, seed int64, cfg hfl.Config) (*hfl.Result, *core.HFLEstimator) {
	cfg.Participants = len(fed.parts)
	cfg.Faults = faults.MustNew(chaosAsyncFaults(seed))
	tr, est := fed.observed(&hfl.Trainer{
		Model: fed.model, Val: fed.val, Cfg: cfg,
		Rounds: &fednet.AsyncLocalSource{
			Model: fed.model, Parts: fed.parts, Async: chaosAsyncPolicy(),
			Faults: faults.MustNew(chaosAsyncFaults(seed)),
		},
		Stream: hfl.MeanStream{},
	})
	return tr.Run(), est
}

// chaosAsync is runWithKills's async leg: the K-of-N commit policy under
// dropout + stragglers with the WAL attached, so a kill can land mid-quorum
// with updates buffered but uncommitted. An async run is streamed, which
// forbids Archive, so bit-identity is model + curve + estimator state.
func chaosAsync(fed *federation, seed int64, cfg hfl.Config,
	journal *bytes.Buffer, kills []faults.CrashAt, sink obs.Sink,
) (*hfl.Result, *core.HFLEstimator, int, error) {
	cfg.Faults = faults.MustNew(chaosAsyncFaults(seed))
	ac := chaosAsyncPolicy()
	return runWithKills(fed, func() *fednet.Coordinator {
		return &fednet.Coordinator{
			N: len(fed.parts), Model: fed.model, Val: fed.val, Cfg: cfg,
			Estimator: fed.estimator(),
			Async:     &ac,
		}
	}, journal, kills, sink)
}

// chaosHarness runs the deterministic chaos harness over three seeds: for
// each, an unjournaled reference run, an uninterrupted journaled run (WAL
// transparency), a run whose coordinator is killed at two seeded points and
// recovered from the journal, and an async run killed at the same points —
// comparing every interrupted run with its reference.
func chaosHarness(t *testing.T, o Opts) *chaosResult {
	t.Helper()
	const n = 4
	epochs := o.epochs(10)
	collector := &obs.Collector{}
	r := &chaosResult{epochs: epochs, walTransparent: true, crashIdentical: true, asyncIdentical: true}
	for _, seed := range []int64{o.Seed, o.Seed + 1, o.Seed + 2} {
		fed := iidFederation(n, o.samples(600), seed)
		cfg := hfl.Config{Epochs: epochs, LR: 0.3}

		// Unjournaled reference: the pre-WAL coordinator, bit for bit.
		refRes, refEst, refArch, _, err := chaosBuffered(fed, cfg, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}

		// Uninterrupted journaled run: the WAL must be invisible in the
		// results.
		walBuf := &bytes.Buffer{}
		walRes, walEst, walArch, _, err := chaosBuffered(fed, cfg, walBuf, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		r.walBytes += int64(walBuf.Len())
		if !sameRun(walRes, refRes, walEst.State(), refEst.State(), walArch.Bytes(), refArch.Bytes()) {
			r.walTransparent = false
		}

		// Killed-and-recovered run: two seeded kills per seed.
		kills := faults.ChaosSchedule(seed, epochs, 2)
		crashRes, crashEst, crashArch, restarts, err := chaosBuffered(fed, cfg, &bytes.Buffer{}, kills, collector)
		if err != nil {
			t.Fatal(err)
		}
		r.restarts += restarts
		if !sameRun(crashRes, refRes, crashEst.State(), refEst.State(), crashArch.Bytes(), refArch.Bytes()) {
			r.crashIdentical = false
		}

		// Async leg: the same kill schedule against a K-of-N buffered run
		// under dropout + stragglers, recovered mid-quorum from the WAL,
		// vs the uninterrupted in-process reference.
		asyncRefRes, asyncRefEst := chaosAsyncLocal(fed, seed, cfg)
		asyncRes, asyncEst, asyncRestarts, err := chaosAsync(fed, seed, cfg, &bytes.Buffer{}, kills, collector)
		if err != nil {
			t.Fatal(err)
		}
		r.asyncRestarts += asyncRestarts
		if !sameRun(asyncRes, asyncRefRes, asyncEst.State(), asyncRefEst.State()) {
			r.asyncIdentical = false
		}
	}
	snap := collector.Snapshot()
	r.recoveries, r.rejoins, r.asyncStaleFolds = snap.Recoveries, snap.Rejoins, snap.StaleFolds
	return r
}

// TestChaosHarness is the crash-safety gate: across three seeds, a
// journaled coordinator killed at two scheduled points and recovered, on a
// buffered and on an async run, must reproduce its uninterrupted reference
// bit for bit — and an uninterrupted journaled run must be
// indistinguishable from an unjournaled one.
func TestChaosHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness runs 12 loopback federations")
	}
	r := chaosHarness(t, QuickOpts())
	if !r.walTransparent {
		t.Errorf("journaled uninterrupted run differs from unjournaled reference")
	}
	if !r.crashIdentical {
		t.Errorf("killed-and-recovered runs differ from reference")
	}
	if !r.asyncIdentical {
		t.Errorf("async killed-and-recovered runs differ from AsyncLocalSource reference")
	}
	if r.restarts == 0 || r.asyncRestarts == 0 {
		t.Errorf("chaos schedule produced no coordinator restarts: %+v", r)
	}
	if r.recoveries == 0 || r.rejoins == 0 {
		t.Errorf("crash-safety counters flat: recover=%d rejoin=%d", r.recoveries, r.rejoins)
	}
	if r.asyncStaleFolds == 0 {
		t.Errorf("async chaos runs folded no stale updates — the lag schedule never fired")
	}
	// How many participants notice a restart through a changed incarnation
	// header before they meet a recovering reply depends on scheduling.
	r.rejoins = 0
	if !reflect.DeepEqual(*r, goldenChaos) {
		t.Errorf("study differs from its golden:\n%+v\nwant:\n%+v", *r, goldenChaos)
	}
}
