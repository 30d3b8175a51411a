package robust

import (
	"fmt"
	"sort"

	"digfl/internal/core"
	"digfl/internal/hfl"
	"digfl/internal/obs"
)

// Quarantine is the contribution-guided defense the paper gestures at:
// contribution evaluation *as* an admission policy. It is an
// hfl.Reweighter that consumes the live DIG-FL φ stream (through an
// HFLEstimator, or the first-order projection when none is attached),
// maintains a rectified EWMA of each participant's per-epoch contribution,
// and permanently demotes persistent non-contributors to zero aggregation
// weight once their EWMA has stayed non-positive for Patience consecutive
// observed epochs while the federation median is positive. The median
// guard encodes the honest-majority assumption: when training has stalled
// for everyone (median ≤ 0), nobody is banned for it.
//
// For participants not yet quarantined the returned numerators are exactly
// the paper's Eq. 17 rectification over the non-banned cohort, so a run in
// which nobody is ever banned is bit-identical to using core.HFLReweighter
// directly.
//
// Quarantine keeps per-run state and is not safe for concurrent use; the
// trainer calls it serially once per epoch.
type Quarantine struct {
	// Estimator, when non-nil, supplies φ_{t,·} (and accumulates the run's
	// attribution as a side effect, like core.HFLReweighter). When nil, the
	// first-order projection (1/|S|)·∇loss^v·δ is computed per epoch.
	Estimator *core.HFLEstimator
	// Patience is the number of consecutive observed epochs a
	// participant's rectified EWMA must stay non-positive (against a
	// positive federation median) before it is quarantined. Defaults to 3.
	Patience int
	// Sink optionally receives one KindQuarantine event per ban.
	Sink obs.Sink

	ewma    []float64
	seen    []bool
	streak  []int
	banned  []bool
	nBanned int
}

var _ hfl.Reweighter = (*Quarantine)(nil)

// quarantineLambda is the rate λ of the contribution EWMA:
// ewma ← (1−λ)·ewma + λ·φ.
const quarantineLambda = 0.3

// NewQuarantine validates the policy parameters and fills defaults.
func NewQuarantine(q Quarantine) (*Quarantine, error) {
	if q.Patience < 0 {
		return nil, fmt.Errorf("robust: negative quarantine Patience %d", q.Patience)
	}
	if q.Patience == 0 {
		q.Patience = 3
	}
	return &q, nil
}

// MustNewQuarantine is NewQuarantine panicking on invalid configuration.
func MustNewQuarantine(q Quarantine) *Quarantine {
	out, err := NewQuarantine(q)
	if err != nil {
		panic(err)
	}
	return out
}

// grow lazily sizes the per-participant state to at least n.
func (q *Quarantine) grow(n int) {
	for len(q.ewma) < n {
		q.ewma = append(q.ewma, 0)
		q.seen = append(q.seen, false)
		q.streak = append(q.streak, 0)
		q.banned = append(q.banned, false)
	}
}

// Weights implements hfl.Reweighter: observe the epoch's φ, update the
// quarantine state, and return Eq. 17's rectified numerators over the
// non-banned reporters (banned reporters get exactly 0).
func (q *Quarantine) Weights(ep *hfl.Epoch) []float64 {
	if q.Patience == 0 {
		q.Patience = 3
	}
	phi := core.AlignedPhi(q.Estimator, ep)
	// reporters are the global indices aligned with ep.Deltas.
	reporters := ep.Reported
	if len(ep.Deltas) == 0 {
		return nil
	}
	if reporters == nil {
		reporters = make([]int, len(ep.Deltas))
		for k := range reporters {
			reporters[k] = k
		}
	}
	maxIdx := 0
	for _, i := range reporters {
		if i > maxIdx {
			maxIdx = i
		}
	}
	q.grow(maxIdx + 1)

	// Update EWMAs for this epoch's reporters only — absent participants
	// keep their state frozen, like the estimator's ΔG recursion.
	for k, i := range reporters {
		if !q.seen[i] {
			q.ewma[i], q.seen[i] = phi[k], true
		} else {
			q.ewma[i] = (1-quarantineLambda)*q.ewma[i] + quarantineLambda*phi[k]
		}
	}
	// Federation health: median EWMA over this epoch's reporters.
	meds := make([]float64, len(reporters))
	for k, i := range reporters {
		meds[k] = q.ewma[i]
	}
	sort.Float64s(meds)
	med := meds[len(meds)/2]
	if len(meds)%2 == 0 {
		med = (meds[len(meds)/2-1] + meds[len(meds)/2]) / 2
	}
	for _, i := range reporters {
		if q.banned[i] {
			continue
		}
		if med > 0 && q.ewma[i] <= 0 {
			q.streak[i]++
			if q.streak[i] >= q.Patience {
				q.banned[i] = true
				q.nBanned++
				obs.Emit(q.Sink, obs.Event{Kind: obs.KindQuarantine, T: ep.T, Part: i})
			}
		} else {
			q.streak[i] = 0
		}
	}

	// Eq. 17's numerators, exactly 0 on banned reporters; with nobody
	// positive the rest share the round, and all banned freezes the model.
	r := make([]float64, len(phi))
	pos := false
	for k, i := range reporters {
		if !q.banned[i] && phi[k] > 0 {
			r[k], pos = phi[k], true
		}
	}
	if !pos {
		for k, i := range reporters {
			if !q.banned[i] {
				r[k] = 1
			}
		}
	}
	return r
}

// QuarantineState is the serializable state of a Quarantine policy —
// everything needed to continue the EWMA/streak bookkeeping after a crash
// so the resumed ban sequence is bit-identical to an uninterrupted run.
// The networked coordinator journals it in its write-ahead log. All slices
// share one length (the highest participant index seen so far plus one).
type QuarantineState struct {
	// Ewma is each participant's rectified contribution EWMA.
	Ewma []float64
	// Seen marks participants whose EWMA has been initialized.
	Seen []bool
	// Streak counts consecutive non-positive epochs per participant.
	Streak []int
	// Banned marks quarantined participants.
	Banned []bool
}

// State snapshots the policy for checkpointing. The snapshot is a deep
// copy: later epochs do not mutate it.
func (q *Quarantine) State() *QuarantineState {
	v := q.StateView()
	return &QuarantineState{
		Ewma:   append([]float64(nil), v.Ewma...),
		Seen:   append([]bool(nil), v.Seen...),
		Streak: append([]int(nil), v.Streak...),
		Banned: append([]bool(nil), v.Banned...),
	}
}

// StateView is State without the copy, for a caller that encodes the state
// at once and already excludes Weights (the coordinator journals it under
// its lock): the slices alias the live policy — read-only, and valid until
// the next Weights call.
func (q *Quarantine) StateView() QuarantineState {
	return QuarantineState{Ewma: q.ewma, Seen: q.seen, Streak: q.streak, Banned: q.banned}
}

// SetState reinstalls a snapshot captured by State; subsequent epochs
// continue the EWMA recursion and ban streaks bit-identically to a policy
// that never stopped.
func (q *Quarantine) SetState(s *QuarantineState) error {
	if s == nil {
		return fmt.Errorf("robust: nil quarantine state")
	}
	n := len(s.Ewma)
	if len(s.Seen) != n || len(s.Streak) != n || len(s.Banned) != n {
		return fmt.Errorf("robust: quarantine state slices disagree on length (%d/%d/%d/%d)",
			len(s.Ewma), len(s.Seen), len(s.Streak), len(s.Banned))
	}
	q.ewma = append([]float64(nil), s.Ewma...)
	q.seen = append([]bool(nil), s.Seen...)
	q.streak = append([]int(nil), s.Streak...)
	q.banned = append([]bool(nil), s.Banned...)
	q.nBanned = 0
	for _, b := range q.banned {
		if b {
			q.nBanned++
		}
	}
	return nil
}

// IsQuarantined reports whether participant i is currently banned.
func (q *Quarantine) IsQuarantined(i int) bool {
	return i >= 0 && i < len(q.banned) && q.banned[i]
}

// Quarantined returns the banned participant indices in ascending order —
// the order of the scan over the ban flags — or nil when nobody is banned.
func (q *Quarantine) Quarantined() []int {
	if q.nBanned == 0 {
		return nil
	}
	out := make([]int, 0, q.nBanned)
	for i, b := range q.banned {
		if b {
			out = append(out, i)
		}
	}
	return out
}
