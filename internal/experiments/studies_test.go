package experiments

import (
	"reflect"

	"digfl/internal/core"
	"digfl/internal/hfl"
)

// iidFederation is the clean IID federation the runtime studies share: n
// participants on the MNIST stand-in.
func iidFederation(n, samples int, seed int64) *federation {
	return newFederation(HFLSetting{Dataset: "MNIST", N: n, Samples: samples, Seed: seed})
}

// estimator returns a fresh resource-saving DIG-FL estimator sized for the
// federation — the one every study attaches.
func (f *federation) estimator() *core.HFLEstimator {
	return core.NewHFLEstimator(len(f.parts), f.model.NumParams(), core.ResourceSaving, nil)
}

// observed attaches a fresh estimator to tr as its Observer and returns both.
func (f *federation) observed(tr *hfl.Trainer) (*hfl.Trainer, *core.HFLEstimator) {
	est := f.estimator()
	tr.Observer = func(ep *hfl.Epoch) { est.Observe(ep) }
	return tr, est
}

// sameRun reports whether two runs match bit for bit: model parameters,
// validation-loss curve, and every further (got, want) pair — estimator
// states, φ totals, archive bytes.
func sameRun(a, b *hfl.Result, pairs ...any) bool {
	same := reflect.DeepEqual(a.Model.Params(), b.Model.Params()) &&
		reflect.DeepEqual(a.ValLossCurve, b.ValLossCurve)
	for i := 0; i+1 < len(pairs); i += 2 {
		same = same && reflect.DeepEqual(pairs[i], pairs[i+1])
	}
	return same
}
