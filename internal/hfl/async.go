package hfl

import (
	"fmt"
	"math"
	"sort"

	"digfl/internal/faults"
	"digfl/internal/obs"
	"digfl/internal/tensor"
)

// AsyncConfig is the asynchronous (FedBuff-style) commit policy: an epoch
// commits as soon as Quorum of the cohort's updates are available instead of
// waiting for everyone, and an update computed against an older model folds
// into the current epoch at a staleness discount instead of being dropped.
// Stragglers thereby become discounted contributors: the faults injector's
// lag schedule (faults.Injector.Lag) decides which fresh updates lag and by
// how many epochs, and the planner folds them back in when they surface.
//
// The policy is deterministic end to end: which updates commit, in what
// order, and at what weight is a pure function of (seed, epoch, participant)
// — never of wall-clock arrival races — so an async loopback federation is
// bit-identical to the in-process AsyncLocalSource reference.
type AsyncConfig struct {
	// Quorum is K in K-of-N: the number of updates that commits an epoch.
	// When fewer than K candidates exist at the commit point (a deadline
	// epoch), every available candidate commits. Must be >= 1.
	Quorum int
	// MaxStaleness is the admission window in epochs: an update whose
	// origin epoch is more than MaxStaleness behind the committing epoch is
	// rejected as too stale (wire code 409 too_stale, obs stale_reject).
	// Must be >= 1.
	MaxStaleness int
}

// validate checks the policy.
func (c AsyncConfig) validate() error {
	if c.Quorum < 1 {
		return fmt.Errorf("hfl: AsyncConfig.Quorum must be >= 1, got %d", c.Quorum)
	}
	if c.MaxStaleness < 1 {
		return fmt.Errorf("hfl: AsyncConfig.MaxStaleness must be >= 1, got %d", c.MaxStaleness)
	}
	return nil
}

// staleWeight is the discount of an update committed s = commitEpoch −
// originEpoch epochs late: the polynomial decay w(s) = (1+s)^(-1/2),
// computed as 1/√(1+s) — what math.Pow computes for the exponent −0.5, with
// one correctly rounded square root and one division. w(0) is exactly 1, so
// an all-fresh async commit is bit-identical to the synchronous streamed
// fold.
func staleWeight(s int) float64 {
	if s <= 0 {
		return 1
	}
	return 1 / math.Sqrt(1+float64(s))
}

// AsyncEntry is one update inside the async policy's carry-over buffer: a
// lagged (or late-but-admissible) update awaiting its commit epoch.
type AsyncEntry struct {
	// Part is the owning participant. A participant has at most one entry
	// in flight at a time.
	Part int
	// Origin is the epoch whose broadcast model the update was computed
	// against; staleness at commit time is commitEpoch - Origin.
	Origin int
	// Due is the earliest epoch the entry becomes a commit candidate.
	Due int
	// Delta is the raw (undiscounted) local update. Snapshots returned by
	// Buffer-style accessors may carry it nil.
	Delta []float64
}

// AsyncSchedule is one epoch's arrival plan, computed before the round
// opens: which active participants report fresh this epoch, which of those
// lag (and by how much), and which are excluded because an earlier update of
// theirs is still in flight.
type AsyncSchedule struct {
	// Fresh lists the participants expected to post this epoch, in active
	// order. Every physical arrival of the epoch comes from Fresh; a round
	// closes when all of them have posted (the quorum cut happens at commit
	// time, not arrival time).
	Fresh []int
	// Lag maps each fresh participant to its scheduled lag: 0 commits as a
	// candidate this epoch, L > 0 buffers the update until epoch t+L.
	Lag map[int]int
	// InFlight lists active participants excluded from the fresh cohort
	// because their previous update is still buffered, ascending.
	InFlight []int
}

// AsyncCommit is one epoch's close decision: the committed (discounted)
// aggregate and its attribution row, plus the post-commit buffer snapshot
// for crash-safety journaling.
type AsyncCommit struct {
	// Reported lists the committed participants ascending; Dots aligns with
	// it. Always non-nil (empty on an all-buffered epoch).
	Reported []int
	// Agg is the staleness-discounted streamed aggregate
	// (1/m)·Σ w(s_i)·δ_i over the m committed updates; nil when the commit
	// set is empty.
	Agg []float64
	// Dots[j] = w(s_j)·(∇loss^v(θ_{t-1})·δ_j) for Reported[j] — the
	// discounted Lemma-3 first term, so per-epoch φ attributes exactly the
	// discounted contribution that entered the model.
	Dots []float64
	// Committed echoes the commit set's metadata (Part, Origin; Delta nil),
	// ascending by Part.
	Committed []AsyncEntry
	// Buffered snapshots the post-commit carry-over buffer (Delta nil),
	// ascending by Part — what the coordinator journals at epoch close.
	Buffered []AsyncEntry
	// Rejected lists participants whose entries were rejected as too stale
	// during this commit, ascending.
	Rejected []int
}

// AsyncPlanner executes the async commit policy. One planner instance
// persists across a run and owns the carry-over buffer; Schedule plans an
// epoch's arrivals before its round opens, Commit cuts the quorum at close.
// Callers serialize access (the coordinator under its lock, the in-process
// source on the training goroutine).
type AsyncPlanner struct {
	// Release, when non-nil, is handed each delta the planner is done with —
	// folded by Commit, or dropped by a staleness rejection (the networked
	// coordinator returns it to the tensor pool); nil leaves them to the
	// caller.
	Release func([]float64)

	cfg  AsyncConfig
	inj  *faults.Injector
	sink obs.Sink
	seed int64
	buf  map[int]*AsyncEntry
}

// NewAsyncPlanner validates the policy and builds a planner. inj supplies
// the lag schedule and the tie-break seed; nil means no scheduled lags
// (every update fresh) and seed 0 ties. sink receives async_commit,
// stale_fold and stale_reject events; nil discards them.
func NewAsyncPlanner(cfg AsyncConfig, inj *faults.Injector, sink obs.Sink) (*AsyncPlanner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pl := &AsyncPlanner{cfg: cfg, inj: inj, sink: sink, buf: make(map[int]*AsyncEntry)}
	if inj != nil {
		pl.seed = inj.Config().Seed
	}
	return pl, nil
}

// Schedule plans epoch t's arrivals over the trainer's active set. It is a
// pure read of (buffer, seed): calling it again for the same epoch — as
// crash recovery does when re-opening a grafted round — reproduces the same
// plan bit for bit.
func (pl *AsyncPlanner) Schedule(t int, active []int) *AsyncSchedule {
	s := &AsyncSchedule{Lag: make(map[int]int, len(active))}
	for _, i := range active {
		if _, inflight := pl.buf[i]; inflight {
			s.InFlight = append(s.InFlight, i)
			continue
		}
		s.Fresh = append(s.Fresh, i)
		s.Lag[i] = pl.inj.Lag(t, i, pl.cfg.MaxStaleness)
	}
	sort.Ints(s.InFlight)
	return s
}

// InFlight reports whether part has a buffered update pending.
func (pl *AsyncPlanner) InFlight(part int) bool {
	_, ok := pl.buf[part]
	return ok
}

// Admit inserts a late-but-admissible update into the buffer: an update
// computed against epoch origin that physically arrived while epoch due was
// open (the networked deadline-straggler path; the deterministic schedule
// never produces one). It reports false — and leaves the buffer untouched —
// when the participant already has an entry in flight, making retried
// admissions idempotent. Callers enforce the staleness window before
// admitting.
func (pl *AsyncPlanner) Admit(part, origin, due int, delta []float64) bool {
	if _, ok := pl.buf[part]; ok {
		return false
	}
	pl.buf[part] = &AsyncEntry{Part: part, Origin: origin, Due: due, Delta: delta}
	return true
}

// asyncCandidate is one commit candidate during selection.
type asyncCandidate struct {
	part, origin int
	delta        []float64
	buffered     bool
}

// Commit cuts epoch t's quorum and folds the commit set. deltas maps each
// fresh participant that physically posted to its raw update (a fresh member
// missing from deltas — possible only when a real deadline fired — is
// treated as dropped, like the synchronous path). p is the parameter
// dimension, stream the aggregation rule shared with the trainer, valGrad
// the epoch's validation gradient.
//
// Selection is deterministic: candidates are every due buffered entry plus
// every fresh lag-0 arrival; they are ordered oldest-staleness first, then
// by a seeded tie key on (epoch, part, origin), then by part, and the first
// min(Quorum, len) commit. The selected set is then re-sorted ascending by
// participant for folding, so a full fresh commit reports exactly the active
// order and reproduces the synchronous streamed fold bit for bit.
// Unselected candidates re-buffer for epoch t+1 unless that would exceed
// MaxStaleness, in which case they are rejected (stale_reject). Fresh lagged
// arrivals enter the buffer due at t+lag. A committed delta is scaled in
// place by its weight; the planner never retains committed deltas, and hands
// them to Release once folded.
func (pl *AsyncPlanner) Commit(t, p int, stream StreamAggregator, valGrad []float64, sched *AsyncSchedule, deltas map[int][]float64) (*AsyncCommit, error) {
	out := &AsyncCommit{Reported: []int{}}

	// Gather candidates: due buffered entries first (skipping — and
	// rejecting — any whose participant also posted fresh this epoch, so a
	// participant never commits twice in one epoch), then fresh lag-0
	// arrivals. Fresh lagged arrivals are parked for insertion after
	// selection so they never compete in their own epoch.
	inflight := make(map[int]bool, len(sched.InFlight))
	for _, i := range sched.InFlight {
		inflight[i] = true
	}
	var cands []asyncCandidate
	var incoming []*AsyncEntry
	for _, e := range pl.sortedBuf() {
		if e.Due > t {
			continue
		}
		if t-e.Origin > pl.cfg.MaxStaleness {
			// Possible only when the owner sat out epochs past its due date
			// (dropout composed with the lag schedule): the deferred entry
			// aged out of the window.
			pl.reject(t, e)
			out.Rejected = append(out.Rejected, e.Part)
			continue
		}
		if _, fresh := deltas[e.Part]; fresh {
			pl.reject(t, e)
			out.Rejected = append(out.Rejected, e.Part)
			continue
		}
		if !inflight[e.Part] {
			// The owner is not active this epoch (dropped out); the entry
			// waits for its next active epoch.
			continue
		}
		cands = append(cands, asyncCandidate{part: e.Part, origin: e.Origin, delta: e.Delta, buffered: true})
	}
	for _, i := range sched.Fresh {
		delta, ok := deltas[i]
		if !ok {
			continue
		}
		if lag := sched.Lag[i]; lag > 0 {
			incoming = append(incoming, &AsyncEntry{Part: i, Origin: t, Due: t + lag, Delta: delta})
			continue
		}
		cands = append(cands, asyncCandidate{part: i, origin: t, delta: delta})
	}

	// Quorum cut: oldest first (stalest updates must not starve), seeded
	// tie-break, participant index as the final total order.
	sort.Slice(cands, func(a, b int) bool {
		ca, cb := cands[a], cands[b]
		if ca.origin != cb.origin {
			return ca.origin < cb.origin
		}
		ka := faults.Uniform(pl.seed, faults.DomainAsyncTie, uint64(t), uint64(ca.part), uint64(ca.origin))
		kb := faults.Uniform(pl.seed, faults.DomainAsyncTie, uint64(t), uint64(cb.part), uint64(cb.origin))
		if ka != kb {
			return ka < kb
		}
		return ca.part < cb.part
	})
	k := pl.cfg.Quorum
	if k > len(cands) {
		k = len(cands)
	}
	commit, overflow := cands[:k], cands[k:]

	// Overflow re-buffers for the next epoch — or leaves the run when the
	// extra epoch would push it past the staleness window.
	for _, c := range overflow {
		e := pl.buf[c.part]
		if e == nil {
			e = &AsyncEntry{Part: c.part, Origin: c.origin, Delta: c.delta}
			pl.buf[c.part] = e
		}
		e.Due = t + 1
		if e.Due-e.Origin > pl.cfg.MaxStaleness {
			pl.reject(t, e)
			out.Rejected = append(out.Rejected, e.Part)
		}
	}
	// Fresh lagged arrivals enter the buffer; a leftover entry for the same
	// participant (late-admit collisions on real networks) loses to the
	// newer update.
	for _, e := range incoming {
		if old, ok := pl.buf[e.Part]; ok {
			pl.reject(t, old)
			out.Rejected = append(out.Rejected, old.Part)
		}
		pl.buf[e.Part] = e
	}
	sort.Ints(out.Rejected)

	// Fold the commit set ascending by participant: the canonical order
	// shared by the synchronous streamed path, so Reported aligns with the
	// estimator's slot mapping (and equals the active order exactly on a
	// full fresh commit).
	sort.Slice(commit, func(a, b int) bool { return commit[a].part < commit[b].part })
	if len(commit) > 0 {
		fold := stream.NewFold(p, len(commit), valGrad)
		for j, c := range commit {
			s := t - c.origin
			if w := staleWeight(s); w != 1 {
				tensor.Scale(w, c.delta)
			}
			if err := fold.Add(j, c.delta); err != nil {
				return nil, err
			}
			if c.buffered {
				delete(pl.buf, c.part)
			}
			out.Reported = append(out.Reported, c.part)
			out.Committed = append(out.Committed, AsyncEntry{Part: c.part, Origin: c.origin})
			if s > 0 {
				obs.Emit(pl.sink, obs.Event{Kind: obs.KindStaleFold, T: t, Part: c.part, N: int64(s)})
			}
		}
		fr, err := fold.Close()
		if err != nil {
			return nil, err
		}
		out.Agg, out.Dots = fr.Sum, fr.Dots
		if pl.Release != nil {
			// Past Close no fold holds a delta (Fold.Add's contract).
			for _, c := range commit {
				pl.Release(c.delta)
			}
		}
	}
	out.Buffered = pl.snapshot()
	obs.Emit(pl.sink, obs.Event{Kind: obs.KindAsyncCommit, T: t, N: int64(len(out.Reported))})
	return out, nil
}

// reject drops a buffered entry as too stale, emitting stale_reject with the
// staleness the entry had reached.
func (pl *AsyncPlanner) reject(t int, e *AsyncEntry) {
	delete(pl.buf, e.Part)
	obs.Emit(pl.sink, obs.Event{Kind: obs.KindStaleReject, T: t, Part: e.Part, N: int64(t - e.Origin)})
	if pl.Release != nil {
		pl.Release(e.Delta)
	}
}

// sortedBuf returns the live buffer entries ascending by participant — the
// canonical iteration order for everything that reads the buffer.
func (pl *AsyncPlanner) sortedBuf() []*AsyncEntry {
	out := make([]*AsyncEntry, 0, len(pl.buf))
	for _, e := range pl.buf {
		out = append(out, e)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Part < out[b].Part })
	return out
}

// snapshot copies the buffer's metadata (Delta nil), ascending by Part.
func (pl *AsyncPlanner) snapshot() []AsyncEntry {
	out := make([]AsyncEntry, 0, len(pl.buf))
	for _, e := range pl.sortedBuf() {
		out = append(out, AsyncEntry{Part: e.Part, Origin: e.Origin, Due: e.Due})
	}
	return out
}

// Buffer returns the live carry-over buffer including deltas, ascending by
// Part. Callers must not mutate the entries.
func (pl *AsyncPlanner) Buffer() []*AsyncEntry { return pl.sortedBuf() }

// SetBuffer replaces the carry-over buffer — crash recovery reinstalls the
// journaled pre-crash buffer before re-opening the grafted round. Entries
// must carry their deltas.
func (pl *AsyncPlanner) SetBuffer(entries []*AsyncEntry) {
	pl.buf = make(map[int]*AsyncEntry, len(entries))
	for _, e := range entries {
		c := *e
		pl.buf[e.Part] = &c
	}
}
