package fednet

import (
	"context"
	"fmt"

	"digfl/internal/dataset"
	"digfl/internal/faults"
	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/obs"
)

// AsyncLocalSource is the in-process reference implementation of the
// asynchronous commit policy: an hfl.RoundSource that computes local updates
// from dataset shards and feeds them through the same hfl.AsyncPlanner the
// networked coordinator uses. Because every decision — who lags, by how
// much, which candidates cut the quorum, at what discount — is a pure
// function of (seed, epoch, participant), a loopback async federation is
// bit-identical to this source (the verify-async gate).
//
// The source requires a streaming trainer (Trainer.Stream non-nil): every
// async commit returns a folded aggregate, never raw deltas.
type AsyncLocalSource struct {
	// Model is the local model prototype (cloned per round).
	Model nn.Model
	// Parts are the participants' local datasets, indexed globally.
	Parts []dataset.Dataset
	// Async is the commit policy.
	Async hfl.AsyncConfig
	// Faults supplies the lag schedule and tie-break seed; nil schedules no
	// lags (every round commits fresh).
	Faults *faults.Injector
	// Stream is the aggregation rule shared with the trainer; nil defaults
	// to hfl.MeanStream{}, matching the coordinator's default.
	Stream hfl.StreamAggregator
	// Sink receives async_commit/stale_fold/stale_reject events.
	Sink obs.Sink

	plan *hfl.AsyncPlanner
}

// Round plans the epoch's arrivals, computes the fresh updates in active
// order, and cuts the quorum.
func (s *AsyncLocalSource) Round(ctx context.Context, spec *hfl.RoundSpec) (*hfl.RoundResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if spec.ValGrad == nil {
		return nil, fmt.Errorf("fednet: AsyncLocalSource requires a streaming trainer (Trainer.Stream)")
	}
	if s.plan == nil {
		pl, err := hfl.NewAsyncPlanner(s.Async, s.Faults, s.Sink)
		if err != nil {
			return nil, err
		}
		s.plan = pl
	}
	sched := s.plan.Schedule(spec.T, spec.Active)
	deltas := make(map[int][]float64, len(sched.Fresh))
	for _, i := range sched.Fresh {
		deltas[i] = localDelta(s.Model, s.Parts[i], spec.Theta, spec.LR, spec.LocalSteps)
	}
	stream := s.Stream
	if stream == nil {
		stream = hfl.MeanStream{}
	}
	ac, err := s.plan.Commit(spec.T, len(spec.Theta), stream, spec.ValGrad, sched, deltas)
	if err != nil {
		return nil, err
	}
	return &hfl.RoundResult{Reported: ac.Reported, Agg: ac.Agg, Dots: ac.Dots}, nil
}
