package experiments

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"

	"digfl/internal/dataset"
	"digfl/internal/fednet"
	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/obs"
	"digfl/internal/sampling"
	"digfl/internal/tensor"
)

// wireResult is the wire gate's one run: the streamed large-population
// benchmark driven over the digfl-fednet/2 wire and compared with the
// in-process streamed trainer.
type wireResult struct {
	wireProblem
	// bytes totals request+response bytes over the round phase (join
	// traffic is excluded); controlBytes is the share of it carried by JSON
	// control replies (update acks), the rest being frames.
	bytes, controlBytes int64
	// frames counts the bulk payloads (broadcasts + updates).
	frames int64
	// allocsPerRound is the heap-allocation count per round across client
	// and coordinator, pools warm after round one.
	allocsPerRound float64
	// bitIdentical: the networked run and the in-process streamed trainer
	// produced the same model bits and loss curve.
	bitIdentical bool
}

// wireDelta is the synthetic local update the wire client submits for
// participant gi: deterministic, cheap, and full-precision.
func wireDelta(gi, j int) float64 {
	return math.Sin(float64(gi*7919+j)) * 1e-4
}

// wireRoundSource is the in-process reference for the wire benchmark: the
// same synthetic deltas folded in the same arrival order the client posts
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

// runWire drives the federation without touching TCP: the client plays
// every sampled participant against the coordinator's Handler via direct
// ServeHTTP calls, so the measured bytes and allocations are the protocol's
// own, not the socket stack's. It fills r's measurements.
func runWire(w wireProblem, r *wireResult) (*hfl.Result, error) {
	collector := &obs.Collector{}
	coord := &fednet.Coordinator{
		N:      w.pop,
		Model:  nn.NewLinearRegression(w.dim, false),
		Val:    w.val(),
		Cfg:    w.cfg(),
		Stream: hfl.MeanStream{},
	}
	coord.Cfg.Runtime.Sink = collector
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
			r.controlBytes += int64(rec.Body.Len())
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
	r.controlBytes = 0

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
	r.bytes = (end.NetBytesRx + end.NetBytesTx) - (joins.NetBytesRx + joins.NetBytesTx)
	r.frames = end.CodecV2Frames
	r.allocsPerRound = float64(m1.Mallocs-m0.Mallocs) / float64(w.epochs)
	return out.res, nil
}

// wire is the wire gate on the 100k-participant streamed benchmark: sampled
// cohorts posting synthetic updates over digfl-fednet/2, measured (bytes,
// frames, allocations) and verified against the in-process streamed trainer
// bit for bit.
func wire(t *testing.T, o Opts) *wireResult {
	t.Helper()
	w := wireProblem{
		pop:    max(int(100_000*o.Scale), 2_000),
		cohort: 64,
		epochs: 4,
		dim:    max(int(2000*o.Scale), 128),
		seed:   o.Seed,
	}

	// In-process reference.
	ref := &hfl.Trainer{
		Model:  nn.NewLinearRegression(w.dim, false),
		Val:    w.val(),
		Cfg:    w.cfg(),
		Rounds: &wireRoundSource{p: w.dim},
		Stream: hfl.MeanStream{},
	}
	want := ref.Run()

	r := &wireResult{wireProblem: w}
	got, err := runWire(w, r)
	if err != nil {
		t.Fatalf("wire run: %v", err)
	}
	r.bitIdentical = sameRun(want, got)
	return r
}

// TestWireCodecGate is the bytes-and-allocs gate behind make verify-wire:
// on the streamed sampled-cohort benchmark (population and dimension scaled
// down for CI) the networked run must reproduce the in-process streamed
// trainer bit for bit, put exactly the closed-form frame bytes on the wire
// — per cohort member and round one update frame up (16-byte header + 8d)
// and one round frame down (32 + 8d), plus the JSON acks the client counted
// — and stay under an absolute allocation ceiling per round.
func TestWireCodecGate(t *testing.T) {
	r := wire(t, Opts{Scale: 0.02, Seed: 7})
	if !r.bitIdentical {
		t.Fatal("wire run diverged from the in-process streamed trainer")
	}
	posts := int64(r.epochs * r.cohort)
	if want := posts*int64(16+8*r.dim) + posts*int64(32+8*r.dim) + r.controlBytes; r.bytes != want {
		t.Fatalf("round phase put %d bytes on the wire, closed form says %d (%d of them control)",
			r.bytes, want, r.controlBytes)
	}
	if r.controlBytes <= 0 || r.controlBytes > 64*posts {
		t.Fatalf("%d control bytes for %d acks", r.controlBytes, posts)
	}
	if r.frames != 2*posts {
		t.Fatalf("%d frames counted, want %d (one broadcast and one update per post)", r.frames, 2*posts)
	}
	// A 64-member round measures ~2,880 allocations, nearly all of them the
	// request, recorder and header plumbing of its 128 handler calls (~3,150
	// under -race, whose sync.Pool drops a quarter of its puts; the ceiling is
	// that figure plus 10 %). Before the acks and header values were
	// preformatted it measured ~3,470; the JSON bulk path this wire replaced
	// cost 53,000.
	if r.allocsPerRound > wireAllocCeiling {
		t.Fatalf("%.0f allocations per round, ceiling %d; pooling is not holding",
			r.allocsPerRound, wireAllocCeiling)
	}
	// The allocation count is a measurement (bounded above); the rest is exact.
	r.allocsPerRound = 0
	if !reflect.DeepEqual(*r, goldenWire) {
		t.Errorf("study differs from its golden:\n%+v\nwant:\n%+v", *r, goldenWire)
	}
}

const wireAllocCeiling = 3465

// Two wire runs on one seed must agree bit for bit — the benchmark itself
// obeys the determinism contract it measures.
func TestWireDeterministic(t *testing.T) {
	a := wire(t, Opts{Scale: 0.02, Seed: 3})
	b := wire(t, Opts{Scale: 0.02, Seed: 3})
	if a.bytes != b.bytes || a.controlBytes != b.controlBytes {
		t.Fatalf("bytes-on-wire differ between identical runs: %+v vs %+v", a, b)
	}
	if !a.bitIdentical || !b.bitIdentical {
		t.Fatal("wire runs diverged from the reference")
	}
}
