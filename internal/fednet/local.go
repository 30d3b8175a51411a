package fednet

import (
	"context"

	"digfl/internal/dataset"
	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/tensor"
)

// LocalSource is an in-process hfl.RoundSource computing local updates
// directly from dataset shards — the reference implementation the networked
// runtime is measured against. With a nil Drop it is bit-equivalent to a
// trainer running on Parts; with Drop it reproduces, deterministically, the
// survivor epochs a deadline-missing participant causes over the network.
type LocalSource struct {
	// Model is the local model prototype (cloned per round).
	Model nn.Model
	// Parts are the participants' local datasets, indexed globally.
	Parts []dataset.Dataset
	// Drop, when non-nil, reports whether participant i misses round t's
	// deadline; its update is then excluded exactly as a networked
	// straggler's would be.
	Drop func(t, participant int) bool
}

// Round computes the requested updates serially in active order.
func (s *LocalSource) Round(ctx context.Context, spec *hfl.RoundSpec) (*hfl.RoundResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := &hfl.RoundResult{}
	degraded := false
	for _, i := range spec.Active {
		if s.Drop != nil && s.Drop(spec.T, i) {
			degraded = true
			continue
		}
		res.Reported = append(res.Reported, i)
		res.Deltas = append(res.Deltas, s.update(spec, i))
	}
	if !degraded {
		res.Reported = nil
	}
	return res, nil
}

func (s *LocalSource) update(spec *hfl.RoundSpec, i int) []float64 {
	return localDelta(s.Model, s.Parts[i], spec.Theta, spec.LR, spec.LocalSteps)
}

// localDelta computes one participant's update with exactly the trainer's
// arithmetic, so source-computed and in-process updates are bit-identical.
func localDelta(proto nn.Model, part dataset.Dataset, theta []float64, lr float64, steps int) []float64 {
	model := proto.Clone()
	model.SetParams(tensor.Clone(theta))
	if steps <= 1 {
		g := model.Grad(part.X, part.Y)
		tensor.Scale(lr, g)
		return g
	}
	local := model.Clone()
	for st := 0; st < steps; st++ {
		g := local.Grad(part.X, part.Y)
		tensor.AXPY(-lr, g, local.Params())
	}
	return tensor.Sub(model.Params(), local.Params())
}
