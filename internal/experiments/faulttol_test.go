package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestParseFaultSpec(t *testing.T) {
	spec, err := ParseFaultSpec("seed=3,dropout=0.4,delay=2ms,crash=8,every=2,retries=5,secure=0.1,straggler=0.2")
	if err != nil {
		t.Fatal(err)
	}
	want := FaultSpec{Seed: 3, Dropout: 0.4, Straggler: 0.2, StragglerDelay: 2 * time.Millisecond,
		CrashEpoch: 8, SecureFailure: 0.1, CheckpointEvery: 2, MaxRetries: 5}
	if spec != want {
		t.Fatalf("spec = %+v, want %+v", spec, want)
	}
	if spec, err = ParseFaultSpec(""); err != nil || spec != DefaultFaultSpec() {
		t.Fatalf("empty spec should yield defaults, got %+v (%v)", spec, err)
	}
	for _, bad := range []string{"bogus=1", "dropout", "crash=x", "dropout=2", "secure=nan"} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Errorf("spec %q should be rejected", bad)
		}
	}
}

func TestFaultTolerance(t *testing.T) {
	spec := DefaultFaultSpec()
	r := FaultTolerance(spec, QuickOpts())
	if !r.ResumeBitIdentical {
		t.Error("crash+resume should be bit-identical to the uninterrupted run")
	}
	if !r.Deterministic {
		t.Error("identically-seeded lifecycles should match exactly")
	}
	if !r.SecureTransparent {
		t.Error("secure retries should not change the protocol result")
	}
	if r.Dropouts == 0 || r.DegradedEpochs == 0 {
		t.Errorf("default dropout rate fired nothing: %+v", r)
	}
	if r.Checkpoints == 0 {
		t.Error("no checkpoints recorded")
	}
	if r.SecureRetries == 0 {
		t.Error("30% secure failure rate fired no retries")
	}

	var sb strings.Builder
	r.Render(&sb)
	for _, want := range []string{"Fault tolerance", "bit-identical", "deterministic"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("rendering lacks %q", want)
		}
	}
	checkGolden(t, r.Tables(), goldenFaults)
}
