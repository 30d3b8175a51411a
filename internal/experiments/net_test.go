package experiments

import (
	"strings"
	"testing"
)

func TestNetExperiment(t *testing.T) {
	r := Net(QuickOpts())
	if !r.BitIdentical {
		t.Error("loopback run should be bit-identical to the in-process trainer")
	}
	if r.Rounds != int64(r.Epochs) {
		t.Errorf("closed %d rounds for %d epochs", r.Rounds, r.Epochs)
	}
	if r.Timeouts != 0 {
		t.Errorf("fault-free run recorded %d timeouts", r.Timeouts)
	}
	if r.Requests == 0 {
		t.Error("no wire requests counted")
	}
	if len(r.Totals) != r.Participants {
		t.Fatalf("totals for %d participants, want %d", len(r.Totals), r.Participants)
	}

	var sb strings.Builder
	r.Render(&sb)
	for _, want := range []string{"Networked runtime", "bit-identical"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("render missing %q", want)
		}
	}
	checkGolden(t, r.Tables(), goldenNet)
}
