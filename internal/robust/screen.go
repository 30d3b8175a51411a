// Package robust implements the server-side defenses of the adversarial
// runtime: a pre-aggregation update screen (UpdateScreen: shape and
// finiteness checks, median-based norm clipping) and a contribution-guided
// quarantine (Quarantine) that turns the live DIG-FL φ stream into a ban
// list and gives a banned participant zero aggregation weight. The screen
// plugs into the trainer as its hfl.Screener, the quarantine as its
// hfl.Reweighter and hfl.Admitter, so a streamed round folds only what the
// quarantine admits.
package robust

import (
	"math"
	"sort"

	"digfl/internal/hfl"
	"digfl/internal/obs"
)

// ScreenConfig parameterizes an UpdateScreen. The zero value selects the
// defaults documented on each field.
type ScreenConfig struct {
	// ClipFactor sets the norm-clipping threshold as a multiple of the
	// running median update norm: updates with L2 norm above
	// ClipFactor×median are rescaled down to the threshold. Defaults to 3;
	// negative disables clipping (shape and finiteness checks remain).
	ClipFactor float64
	// Sink optionally receives a KindUpdateRejected event per dropped
	// update and a KindUpdateClipped event (Value = pre-clip norm) per
	// clipped one.
	Sink obs.Sink
}

// UpdateScreen is the server-side pre-aggregation defense: it drops
// wrong-shape and non-finite updates outright and norm-clips outliers
// against a running median-of-norms threshold. The median (breakdown
// point 1/2) keeps the threshold anchored to the honest cohort even when
// a large minority inflates its updates; the EWMA smooths it across
// epochs so a single noisy round cannot move the gate much.
//
// The screen never touches an honest-looking update: a clean run with all
// norms under the threshold passes through bit-identically. It maintains
// per-run state (the running median) and is not safe for concurrent use;
// the trainer calls it serially once per epoch.
type UpdateScreen struct {
	cfg ScreenConfig
	med float64
	ok  bool // med is initialized
}

var _ hfl.Screener = (*UpdateScreen)(nil)

// screenLambda is the EWMA rate of the running median-of-norms: after each
// epoch, median ← (1−λ)·median + λ·median_t.
const screenLambda = 0.3

// MustNewUpdateScreen builds an update screen, filling the defaults. Every
// ScreenConfig is valid, so it never panics; the name is the facade's.
func MustNewUpdateScreen(cfg ScreenConfig) *UpdateScreen {
	if cfg.ClipFactor == 0 {
		cfg.ClipFactor = 3
	}
	return &UpdateScreen{cfg: cfg}
}

// Screen implements hfl.Screener: it returns the positions of the updates
// to reject (wrong length against the broadcast model, or any non-finite
// coordinate) and rescales over-norm survivors in place.
func (s *UpdateScreen) Screen(ep *hfl.Epoch, reported []int) ([]int, error) {
	p := len(ep.Theta)
	var drop []int
	norms := make([]float64, 0, len(ep.Deltas))
	normAt := make([]float64, len(ep.Deltas))
	for k, d := range ep.Deltas {
		part := k
		if k < len(reported) {
			part = reported[k]
		}
		if len(d) != p {
			drop = append(drop, k)
			obs.Emit(s.cfg.Sink, obs.Event{Kind: obs.KindUpdateRejected, T: ep.T, Part: part})
			continue
		}
		var n2 float64
		finite := true
		for _, v := range d {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				finite = false
				break
			}
			n2 += float64(v * v)
		}
		if !finite || math.IsInf(n2, 0) {
			drop = append(drop, k)
			obs.Emit(s.cfg.Sink, obs.Event{Kind: obs.KindUpdateRejected, T: ep.T, Part: part})
			continue
		}
		normAt[k] = math.Sqrt(n2)
		norms = append(norms, normAt[k])
	}
	if len(norms) == 0 || s.cfg.ClipFactor < 0 {
		return drop, nil
	}
	sort.Float64s(norms)
	med := norms[len(norms)/2]
	if len(norms)%2 == 0 {
		med = (norms[len(norms)/2-1] + norms[len(norms)/2]) / 2
	}
	if !s.ok {
		s.med, s.ok = med, true
	} else {
		s.med = float64((1-screenLambda)*s.med) + float64(screenLambda*med)
	}
	threshold := s.cfg.ClipFactor * s.med
	if threshold <= 0 {
		return drop, nil
	}
	dropped := make(map[int]bool, len(drop))
	for _, k := range drop {
		dropped[k] = true
	}
	for k, d := range ep.Deltas {
		if dropped[k] || normAt[k] <= threshold {
			continue
		}
		scale := threshold / normAt[k]
		for j := range d {
			d[j] *= scale
		}
		part := k
		if k < len(reported) {
			part = reported[k]
		}
		obs.Emit(s.cfg.Sink, obs.Event{Kind: obs.KindUpdateClipped, T: ep.T,
			Part: part, Value: normAt[k]})
	}
	return drop, nil
}
