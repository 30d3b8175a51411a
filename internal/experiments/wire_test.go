package experiments

import "testing"

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
	// A 64-member round measures ~2,880 allocations, nearly all of them the
	// request, recorder and header plumbing of its 128 handler calls (~3,150
	// under -race, whose sync.Pool drops a quarter of its puts; the ceiling is
	// that figure plus 10 %). Before the acks and header values were
	// preformatted it measured ~3,470; the JSON bulk path this wire replaced
	// cost 53,000.
	if r.AllocsPerRound > wireAllocCeiling {
		t.Fatalf("%.0f allocations per round, ceiling %d; pooling is not holding",
			r.AllocsPerRound, wireAllocCeiling)
	}
	// The allocation count is a measurement (bounded above); the rest is exact.
	checkGolden(t, r.Tables(), goldenWire, "allocs_per_round")
}

const wireAllocCeiling = 3465

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
