package experiments

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"digfl/internal/core"
	"digfl/internal/faults"
	"digfl/internal/fednet"
	"digfl/internal/hfl"
	"digfl/internal/obs"
	"digfl/internal/robust"
)

// ChaosResult summarizes the deterministic chaos harness: seeded coordinator
// kills with WAL recovery, on a buffered and on an async run, and the
// bit-identity of every interrupted run against its uninterrupted reference.
type ChaosResult struct {
	Participants, Epochs int
	Seeds                []int64
	// Kills holds each seed's crash schedule (drawn from the DomainChaos
	// hash stream, so reruns replay the identical kills).
	Kills [][]faults.CrashAt
	// Restarts counts coordinator incarnations beyond the first, summed
	// over the crash runs.
	Restarts int
	// WALTransparent: an uninterrupted journaled run produced the same
	// model, curve, phi, and archive bytes as the unjournaled reference.
	WALTransparent bool
	// CrashIdentical: every killed-and-recovered run reproduced the
	// reference bit for bit (model, curve, per-epoch and total phi,
	// archive bytes).
	CrashIdentical bool
	// AsyncIdentical: the async (K-of-N buffered) loopback run under
	// dropout + stragglers, killed at the same scheduled points and
	// recovered mid-quorum from the journal, reproduced the in-process
	// AsyncLocalSource reference bit for bit (model, curve, phi).
	AsyncIdentical bool
	// AsyncRestarts counts the async runs' coordinator incarnations beyond
	// the first; AsyncStaleFolds counts their staleness-discounted commits
	// (proof the runs exercised the buffer, not just the fresh path).
	AsyncRestarts   int
	AsyncStaleFolds int64
	// WALBytes totals the journal bytes written by the uninterrupted
	// journaled runs.
	WALBytes int64
	// Crash-safety event counts observed across the interrupted runs.
	Recoveries, Rejoins int64
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
		return nil, nil, restarts, fmt.Errorf("experiments: chaos run: %w", err)
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
func chaosAsyncLocal(fed *federation, seed int64, cfg hfl.Config, sink obs.Sink) (*hfl.Result, *core.HFLEstimator) {
	cfg.Participants = len(fed.parts)
	cfg.Faults = faults.MustNew(chaosAsyncFaults(seed))
	cfg.Runtime.Sink = sink
	tr, est := fed.observed(&hfl.Trainer{
		Model: fed.model, Val: fed.val, Cfg: cfg,
		Rounds: &fednet.AsyncLocalSource{
			Model: fed.model, Parts: fed.parts, Async: chaosAsyncPolicy(),
			Faults: faults.MustNew(chaosAsyncFaults(seed)), Sink: sink,
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

// Chaos runs the deterministic chaos harness over three seeds: for each, an
// unjournaled reference run, an uninterrupted journaled run (WAL
// transparency), a run whose coordinator is killed at two seeded points and
// recovered from the journal, and an async run killed at the same points —
// asserting every interrupted run is bit-identical to its reference.
func Chaos(o Opts) *ChaosResult {
	o.validate()
	const n = 4
	epochs := o.epochs(10)
	seeds := []int64{o.Seed, o.Seed + 1, o.Seed + 2}

	collector := &obs.Collector{}
	sink := obs.Tee(o.Sink, collector)

	r := &ChaosResult{
		Participants: n, Epochs: epochs, Seeds: seeds,
		WALTransparent: true, CrashIdentical: true, AsyncIdentical: true,
	}
	fail := func(err error) {
		panic(fmt.Sprintf("experiments: chaos: %v", err))
	}

	for _, seed := range seeds {
		fed := iidFederation(n, o.samples(600), seed)
		cfg := hfl.Config{Epochs: epochs, LR: 0.3}

		// Unjournaled reference: the pre-WAL coordinator, bit for bit.
		refRes, refEst, refArch, _, err := chaosBuffered(fed, cfg, nil, nil, o.Sink)
		if err != nil {
			fail(err)
		}

		// Uninterrupted journaled run: the WAL must be invisible in the
		// results.
		walBuf := &bytes.Buffer{}
		walRes, walEst, walArch, _, err := chaosBuffered(fed, cfg, walBuf, nil, o.Sink)
		if err != nil {
			fail(err)
		}
		r.WALBytes += int64(walBuf.Len())
		if !sameRun(walRes, refRes, walEst.State(), refEst.State(), walArch.Bytes(), refArch.Bytes()) {
			r.WALTransparent = false
		}

		// Killed-and-recovered run: two seeded kills per seed.
		kills := faults.ChaosSchedule(seed, epochs, 2)
		r.Kills = append(r.Kills, kills)
		crashRes, crashEst, crashArch, restarts, err := chaosBuffered(fed, cfg, &bytes.Buffer{}, kills, sink)
		if err != nil {
			fail(err)
		}
		r.Restarts += restarts
		if !sameRun(crashRes, refRes, crashEst.State(), refEst.State(), crashArch.Bytes(), refArch.Bytes()) {
			r.CrashIdentical = false
		}

		// Async leg: the same kill schedule against a K-of-N buffered run
		// under dropout + stragglers, recovered mid-quorum from the WAL,
		// vs the uninterrupted in-process reference.
		asyncRefRes, asyncRefEst := chaosAsyncLocal(fed, seed, cfg, o.Sink)
		asyncRes, asyncEst, asyncRestarts, err := chaosAsync(fed, seed, cfg, &bytes.Buffer{}, kills, sink)
		if err != nil {
			fail(err)
		}
		r.AsyncRestarts += asyncRestarts
		if !sameRun(asyncRes, asyncRefRes, asyncEst.State(), asyncRefEst.State()) {
			r.AsyncIdentical = false
		}
	}

	snap := collector.Snapshot()
	r.Recoveries, r.Rejoins = snap.Recoveries, snap.Rejoins
	r.AsyncStaleFolds = snap.StaleFolds
	return r
}

// Passed reports whether every bit-identity gate held.
func (r *ChaosResult) Passed() bool {
	return r.WALTransparent && r.CrashIdentical && r.AsyncIdentical
}

// Render writes the chaos-harness summary.
func (r *ChaosResult) Render(w io.Writer) {
	writeHeader(w, "Chaos harness — crashes vs uninterrupted reference")
	fmt.Fprintf(w, "%d participants, %d epochs, seeds %v\n", r.Participants, r.Epochs, r.Seeds)
	for i, kills := range r.Kills {
		fmt.Fprintf(w, "seed %d coordinator kills: %v\n", r.Seeds[i], kills)
	}
	fmt.Fprintf(w, "restarts=%d recoveries=%d rejoins=%d async-restarts=%d async-stale-folds=%d\n",
		r.Restarts, r.Recoveries, r.Rejoins, r.AsyncRestarts, r.AsyncStaleFolds)
	fmt.Fprintf(w, "WAL transparent (journaled == unjournaled): %v\n", r.WALTransparent)
	fmt.Fprintf(w, "crash+recover bit-identical (model, curve, phi, archive): %v\n", r.CrashIdentical)
	fmt.Fprintf(w, "async crash+recover bit-identical (dropout+stragglers, mid-quorum kills): %v\n", r.AsyncIdentical)
	fmt.Fprintf(w, "journal bytes (uninterrupted): %d\n", r.WALBytes)
}

// Tables returns the CSV rendering.
func (r *ChaosResult) Tables() map[string][][]string {
	return metricTable("chaos", nil,
		"participants", r.Participants, "epochs", r.Epochs, "restarts", r.Restarts,
		"recoveries", r.Recoveries, "rejoins", r.Rejoins,
		"wal_transparent", r.WALTransparent, "crash_identical", r.CrashIdentical,
		"async_identical", r.AsyncIdentical,
		"async_restarts", r.AsyncRestarts, "async_stale_folds", r.AsyncStaleFolds,
		"wal_bytes", r.WALBytes)
}
