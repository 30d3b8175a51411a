package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"

	"digfl/internal/dataset"
	"digfl/internal/fednet"
	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/obs"
	"digfl/internal/sampling"
	"digfl/internal/tensor"
)

// WireResult is the wire gate's one run: the streamed large-population
// benchmark driven over the digfl-fednet/2 wire and compared with the
// in-process streamed trainer.
type WireResult struct {
	Population, Cohort, Epochs, Dim int
	// Bytes totals request+response bytes over the round phase (join
	// traffic is excluded); ControlBytes is the share of it carried by JSON
	// control replies (update acks), the rest being frames.
	Bytes, ControlBytes int64
	// Frames counts the bulk payloads (broadcasts + updates).
	Frames int64
	// AllocsPerRound is the heap-allocation count per round across driver
	// and coordinator, pools warm after round one.
	AllocsPerRound float64
	// BitIdentical: the networked run and the in-process streamed trainer
	// produced the same model bits and loss curve.
	BitIdentical bool
}

// wireDelta is the synthetic local update the wire driver submits for
// participant gi: deterministic, cheap, and full-precision.
func wireDelta(gi, j int) float64 {
	return math.Sin(float64(gi*7919+j)) * 1e-4
}

// wireRoundSource is the in-process reference for the wire benchmark: the
// same synthetic deltas folded in the same arrival order the driver posts
// them, so the networked run has a trainer-only baseline to match bit for
// bit.
type wireRoundSource struct{ p int }

func (s *wireRoundSource) Round(_ context.Context, spec *hfl.RoundSpec) (*hfl.RoundResult, error) {
	fold := hfl.MeanStream{}.NewFold(s.p, len(spec.Active), spec.ValGrad)
	for k, gi := range spec.Active {
		d := make([]float64, s.p) // the fold may hold it until Close
		for j := range d {
			d[j] = wireDelta(gi, j)
		}
		if err := fold.Add(k, d); err != nil {
			return nil, err
		}
	}
	fr, err := fold.Close()
	if err != nil {
		return nil, err
	}
	return &hfl.RoundResult{Agg: fr.Sum, Dots: fr.Dots}, nil
}

// wireProblem are the benchmark's shared dimensions.
type wireProblem struct {
	pop, cohort, epochs, dim int
	seed                     int64
}

func (w wireProblem) val() dataset.Dataset {
	return dataset.SynthTabular(dataset.TabularConfig{
		Name: "wireval", N: 24, D: w.dim, Task: dataset.Regression,
		Informative: 8, Noise: 0.3, Seed: w.seed,
	})
}

func (w wireProblem) cfg() hfl.Config {
	return hfl.Config{
		Epochs: w.epochs, LR: 0.05, KeepLog: true,
		Participants: w.pop,
		Sample:       sampling.MustNew(sampling.Config{Seed: w.seed, Size: w.cohort}),
		RetainDeltas: hfl.ReleaseAfterObserve,
	}
}

// runWire drives the federation without touching TCP: the driver plays
// every sampled participant against the coordinator's Handler via direct
// ServeHTTP calls, so the measured bytes and allocations are the protocol's
// own, not the socket stack's. It fills r's measurements.
func runWire(w wireProblem, sink obs.Sink, r *WireResult) (*hfl.Result, error) {
	collector := &obs.Collector{}
	coord := &fednet.Coordinator{
		N:      w.pop,
		Model:  nn.NewLinearRegression(w.dim, false),
		Val:    w.val(),
		Cfg:    w.cfg(),
		Stream: hfl.MeanStream{},
	}
	coord.Cfg.Runtime.Sink = obs.Tee(collector, sink)
	h := coord.Handler()

	type runOut struct {
		res *hfl.Result
		err error
	}
	outCh := make(chan runOut, 1)
	go func() {
		res, err := coord.Run(context.Background())
		outCh <- runOut{res, err}
	}()

	do := func(method, target, contentType string, body []byte) error {
		var req *http.Request
		if body != nil {
			req = httptest.NewRequest(method, target, bytes.NewReader(body))
			req.Header.Set("Content-Type", contentType)
		} else {
			req = httptest.NewRequest(method, target, nil)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s %s: status %d: %s", method, target, rec.Code, rec.Body.String())
		}
		if rec.Header().Get("Content-Type") == "application/json" {
			r.ControlBytes += int64(rec.Body.Len())
		}
		return nil
	}

	for i := 0; i < w.pop; i++ {
		body := fmt.Sprintf(`{"protocol":%q,"index":%d}`, fednet.Protocol, i)
		if err := do("POST", "/v1/join", "application/json", []byte(body)); err != nil {
			return nil, err
		}
	}
	joins := collector.Snapshot()
	r.ControlBytes = 0

	population := make([]int, w.pop)
	for i := range population {
		population[i] = i
	}
	smp := sampling.MustNew(sampling.Config{Seed: w.seed, Size: w.cohort})

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	delta := tensor.GetVec(w.dim)
	for t := 1; t <= w.epochs; t++ {
		for _, gi := range smp.Cohort(t, population) {
			// Each cohort member downloads the broadcast (the poll blocks
			// until the round opens) and submits its update — encode once,
			// recycle after the post.
			if err := do("GET", fmt.Sprintf("/v1/round?t=%d&i=%d", t, gi), "", nil); err != nil {
				return nil, err
			}
			for j := range delta {
				delta[j] = wireDelta(gi, j)
			}
			body, err := fednet.CodecV2.EncodeUpdate(t, gi, delta)
			if err != nil {
				return nil, err
			}
			err = do("POST", "/v1/update", fednet.CodecV2.ContentType(), body)
			tensor.PutBytes(body)
			if err != nil {
				return nil, err
			}
		}
	}
	tensor.PutVec(delta)
	out := <-outCh
	if out.err != nil {
		return nil, out.err
	}
	runtime.ReadMemStats(&m1)

	end := collector.Snapshot()
	r.Bytes = (end.NetBytesRx + end.NetBytesTx) - (joins.NetBytesRx + joins.NetBytesTx)
	r.Frames = end.CodecV2Frames
	r.AllocsPerRound = float64(m1.Mallocs-m0.Mallocs) / float64(w.epochs)
	return out.res, nil
}

// Wire is the wire gate on the 100k-participant streamed benchmark: sampled
// cohorts posting synthetic updates over digfl-fednet/2, measured (bytes,
// frames, allocations) and verified against the in-process streamed trainer
// bit for bit.
func Wire(o Opts) *WireResult {
	o.validate()
	w := wireProblem{
		pop:    int(100_000 * o.Scale),
		cohort: 64,
		epochs: 4,
		dim:    int(2000 * o.Scale),
		seed:   o.Seed,
	}
	if w.pop < 2_000 {
		w.pop = 2_000
	}
	if w.dim < 128 {
		w.dim = 128
	}

	// In-process reference.
	ref := &hfl.Trainer{
		Model:  nn.NewLinearRegression(w.dim, false),
		Val:    w.val(),
		Cfg:    w.cfg(),
		Rounds: &wireRoundSource{p: w.dim},
		Stream: hfl.MeanStream{},
	}
	ref.Cfg.Runtime.Sink = o.Sink
	want := ref.Run()

	r := &WireResult{Population: w.pop, Cohort: w.cohort, Epochs: w.epochs, Dim: w.dim}
	got, err := runWire(w, o.Sink, r)
	if err != nil {
		panic(fmt.Sprintf("experiments: wire run: %v", err))
	}
	r.BitIdentical = sameRun(want, got)
	return r
}

// Render writes the wire-benchmark summary.
func (r *WireResult) Render(w io.Writer) {
	writeHeader(w, "Wire — digfl-fednet/2 binary frames, streamed sampled run")
	fmt.Fprintf(w, "%d participants, cohort %d, %d rounds, %d params\n",
		r.Population, r.Cohort, r.Epochs, r.Dim)
	fmt.Fprintf(w, "%-16s %10d bytes on wire (%d control), %6.0f allocs/round, %4d frames\n",
		fednet.ProtocolV2, r.Bytes, r.ControlBytes, r.AllocsPerRound, r.Frames)
	fmt.Fprintf(w, "bit-identical to in-process streamed trainer: %v\n", r.BitIdentical)
}

// Tables returns the CSV rendering.
func (r *WireResult) Tables() map[string][][]string {
	return map[string][][]string{"wire": {
		{"codec", "bytes_on_wire", "control_bytes", "allocs_per_round", "frames"},
		{
			fednet.ProtocolV2, strconv.FormatInt(r.Bytes, 10), strconv.FormatInt(r.ControlBytes, 10),
			strconv.FormatFloat(r.AllocsPerRound, 'g', -1, 64), strconv.FormatInt(r.Frames, 10),
		},
		{"bit_identical", strconv.FormatBool(r.BitIdentical), "", "", ""},
	}}
}
