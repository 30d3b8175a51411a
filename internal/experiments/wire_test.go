package experiments

import (
	"testing"
	"time"
)

// TestWireCodecGate is the bytes-and-allocs gate behind make verify-wire:
// on the streamed sampled-cohort benchmark (population and dimension scaled
// down for CI) the networked run must reproduce the in-process streamed
// trainer bit for bit, put exactly the closed-form frame bytes on the wire
// — per cohort member and round one update frame up (16-byte header + 8d)
// and one round frame down (32 + 8d), plus the JSON acks the driver counted
// — and stay under an absolute allocation ceiling per round.
func TestWireCodecGate(t *testing.T) {
	r := Wire(Opts{Scale: 0.02, Seed: 7})
	if !r.BitIdentical {
		t.Fatal("wire run diverged from the in-process streamed trainer")
	}
	posts := int64(r.Epochs * r.Cohort)
	if want := posts*int64(16+8*r.Dim) + posts*int64(32+8*r.Dim) + r.ControlBytes; r.Bytes != want {
		t.Fatalf("round phase put %d bytes on the wire, closed form says %d (%d of them control)",
			r.Bytes, want, r.ControlBytes)
	}
	if r.ControlBytes <= 0 || r.ControlBytes > 64*posts {
		t.Fatalf("%d control bytes for %d acks", r.ControlBytes, posts)
	}
	if r.Frames != 2*posts {
		t.Fatalf("%d frames counted, want %d (one broadcast and one update per post)", r.Frames, 2*posts)
	}
	// A 64-member round measures ~3,470 allocations, nearly all of them the
	// request, recorder and header plumbing of its 128 handler calls (~3,800
	// under -race, whose sync.Pool drops a quarter of its puts); the JSON
	// bulk path this wire replaced cost 53,000.
	if r.AllocsPerRound > wireAllocCeiling {
		t.Fatalf("%.0f allocations per round, ceiling %d; pooling is not holding",
			r.AllocsPerRound, wireAllocCeiling)
	}
}

const wireAllocCeiling = 6000

// Two Wire runs on one seed must agree bit for bit — the benchmark itself
// obeys the determinism contract it measures.
func TestWireDeterministic(t *testing.T) {
	a := Wire(Opts{Scale: 0.02, Seed: 3})
	b := Wire(Opts{Scale: 0.02, Seed: 3})
	if a.Bytes != b.Bytes || a.ControlBytes != b.ControlBytes {
		t.Fatalf("bytes-on-wire differ between identical runs: %+v vs %+v", a, b)
	}
	if !a.BitIdentical || !b.BitIdentical {
		t.Fatal("wire runs diverged from the reference")
	}
}

// TestLoadRunner drives a reduced load test: the federation must complete
// under concurrent readers with zero request errors.
func TestLoadRunner(t *testing.T) {
	r := Load(LoadSpec{Clients: 64, Delay: 2 * time.Millisecond}, Opts{Scale: 0.25, Seed: 11})
	if !r.Completed {
		t.Fatal("federation failed to complete under load")
	}
	if r.Errors != 0 {
		t.Fatalf("%d load-client requests failed", r.Errors)
	}
	if r.Requests < int64(r.Clients) {
		t.Fatalf("only %d requests from %d clients; load never ramped", r.Requests, r.Clients)
	}
	if r.ScoreP99 <= 0 || r.PollP99 <= 0 {
		t.Fatalf("missing latency percentiles: %+v", r)
	}
}

func TestParseLoadSpec(t *testing.T) {
	spec, err := ParseLoadSpec("clients=128,delay=5ms")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Clients != 128 || spec.Delay != 5*time.Millisecond {
		t.Fatalf("spec = %+v", spec)
	}
	if _, err := ParseLoadSpec("clients=0"); err == nil {
		t.Fatal("accepted zero clients")
	}
	if _, err := ParseLoadSpec("bogus=1"); err == nil {
		t.Fatal("accepted unknown key")
	}
	if def, err := ParseLoadSpec(""); err != nil || def != DefaultLoadSpec() {
		t.Fatalf("empty spec = %+v, %v", def, err)
	}
}
