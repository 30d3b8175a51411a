package experiments

import "testing"

// TestChaosHarness is the crash-safety gate: across three seeds, a
// journaled coordinator killed at two scheduled points and recovered, on a
// buffered and on an async run, must reproduce its uninterrupted reference
// bit for bit — and an uninterrupted journaled run must be
// indistinguishable from an unjournaled one.
func TestChaosHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness runs 12 loopback federations")
	}
	r := Chaos(QuickOpts())
	if !r.WALTransparent {
		t.Errorf("journaled uninterrupted run differs from unjournaled reference")
	}
	if !r.CrashIdentical {
		t.Errorf("killed-and-recovered runs differ from reference (kills: %v)", r.Kills)
	}
	if r.Restarts == 0 {
		t.Errorf("chaos schedule produced no coordinator restarts")
	}
	if r.Recoveries == 0 || r.Rejoins == 0 {
		t.Errorf("crash-safety counters flat: recover=%d rejoin=%d", r.Recoveries, r.Rejoins)
	}
	if !r.AsyncIdentical {
		t.Errorf("async killed-and-recovered runs differ from AsyncLocalSource reference (kills: %v)", r.Kills)
	}
	if r.AsyncRestarts == 0 {
		t.Errorf("async chaos schedule produced no coordinator restarts")
	}
	if r.AsyncStaleFolds == 0 {
		t.Errorf("async chaos runs folded no stale updates — the lag schedule never fired")
	}
	if !r.Passed() {
		t.Errorf("chaos harness gates did not all pass: %+v", r)
	}
	// How many participants notice a restart through a changed incarnation
	// header before they meet a recovering reply depends on scheduling.
	checkGolden(t, r.Tables(), goldenChaos, "rejoins")
}
