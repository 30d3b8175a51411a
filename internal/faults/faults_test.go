package faults

import (
	"math"
	"testing"
	"time"
)

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Dropout: -0.1},
		{Dropout: 1},
		{Dropout: math.NaN()},
		{Straggler: 1.5},
		{SecureFailure: -1},
		{StragglerDelay: -time.Second},
		{CrashEpoch: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: config %+v should be rejected", i, cfg)
		}
	}
	if _, err := New(Config{Seed: 1, Dropout: 0.99, Straggler: 0.5, CrashEpoch: 3}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestMustNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(Config{Dropout: 2})
}

func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	for epoch := 1; epoch <= 5; epoch++ {
		for part := 0; part < 5; part++ {
			if in.DropsOut(epoch, part) {
				t.Fatal("nil injector dropped a participant")
			}
			if _, ok := in.Straggles(epoch, part); ok {
				t.Fatal("nil injector straggled")
			}
		}
		if in.CrashesAt(epoch) || in.SecureRoundFails(epoch, 0, 0) {
			t.Fatal("nil injector fired")
		}
	}
	subset := []int{0, 1, 2}
	rep, dropped := in.Survivors(1, subset)
	if &rep[0] != &subset[0] || dropped != nil {
		t.Fatal("nil injector should return the subset itself with no drops")
	}
	if in.WithoutCrash() != nil {
		t.Fatal("nil.WithoutCrash() should stay nil")
	}
}

func TestDecisionsAreDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Dropout: 0.3, Straggler: 0.2, SecureFailure: 0.4, CrashEpoch: 7}
	a, b := MustNew(cfg), MustNew(cfg)
	for epoch := 1; epoch <= 50; epoch++ {
		for part := 0; part < 10; part++ {
			if a.DropsOut(epoch, part) != b.DropsOut(epoch, part) {
				t.Fatalf("dropout disagrees at (%d,%d)", epoch, part)
			}
			_, sa := a.Straggles(epoch, part)
			_, sb := b.Straggles(epoch, part)
			if sa != sb {
				t.Fatalf("straggle disagrees at (%d,%d)", epoch, part)
			}
		}
		for attempt := 0; attempt < 4; attempt++ {
			if a.SecureRoundFails(epoch, 0, attempt) != b.SecureRoundFails(epoch, 0, attempt) {
				t.Fatalf("secure failure disagrees at (%d,%d)", epoch, attempt)
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := MustNew(Config{Seed: 1, Dropout: 0.5})
	b := MustNew(Config{Seed: 2, Dropout: 0.5})
	same := true
	for epoch := 1; epoch <= 20 && same; epoch++ {
		for part := 0; part < 10; part++ {
			if a.DropsOut(epoch, part) != b.DropsOut(epoch, part) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical 200-decision dropout schedules")
	}
}

func TestDropoutRate(t *testing.T) {
	in := MustNew(Config{Seed: 7, Dropout: 0.25})
	drops, total := 0, 0
	for epoch := 1; epoch <= 200; epoch++ {
		for part := 0; part < 20; part++ {
			total++
			if in.DropsOut(epoch, part) {
				drops++
			}
		}
	}
	rate := float64(drops) / float64(total)
	if rate < 0.2 || rate > 0.3 {
		t.Fatalf("empirical dropout rate %.3f far from configured 0.25", rate)
	}
}

func TestDomainsAreIndependent(t *testing.T) {
	// With equal rates, dropout and straggle decisions at the same
	// coordinate must not be the same event.
	in := MustNew(Config{Seed: 3, Dropout: 0.5, Straggler: 0.5})
	agree, total := 0, 0
	for epoch := 1; epoch <= 100; epoch++ {
		for part := 0; part < 10; part++ {
			total++
			_, s := in.Straggles(epoch, part)
			if in.DropsOut(epoch, part) == s {
				agree++
			}
		}
	}
	if agree == total {
		t.Fatal("dropout and straggler domains are perfectly correlated")
	}
}

func TestSurvivors(t *testing.T) {
	in := MustNew(Config{Seed: 11, Dropout: 0.4})
	subset := []int{0, 2, 5, 7}
	for epoch := 1; epoch <= 30; epoch++ {
		rep, dropped := in.Survivors(epoch, subset)
		if len(rep)+len(dropped) != len(subset) {
			t.Fatalf("epoch %d: %d reported + %d dropped != %d", epoch, len(rep), len(dropped), len(subset))
		}
		// Partition must agree with the pointwise decisions, in subset order.
		k := 0
		for _, i := range subset {
			if in.DropsOut(epoch, i) {
				continue
			}
			if rep[k] != i {
				t.Fatalf("epoch %d: reported[%d]=%d, want %d", epoch, k, rep[k], i)
			}
			k++
		}
		for _, i := range dropped {
			if !in.DropsOut(epoch, i) {
				t.Fatalf("epoch %d: %d listed dropped but DropsOut is false", epoch, i)
			}
		}
		if dropped == nil && &rep[0] != &subset[0] {
			t.Fatalf("epoch %d: fault-free epoch should return the subset slice itself", epoch)
		}
	}
}

func TestCrash(t *testing.T) {
	in := MustNew(Config{Seed: 1, CrashEpoch: 4})
	for epoch := 1; epoch <= 8; epoch++ {
		if got, want := in.CrashesAt(epoch), epoch == 4; got != want {
			t.Fatalf("CrashesAt(%d) = %v", epoch, got)
		}
	}
	dis := in.WithoutCrash()
	if dis.CrashesAt(4) {
		t.Fatal("WithoutCrash still crashes")
	}
	if dis.Config().Seed != in.Config().Seed {
		t.Fatal("WithoutCrash changed the seed")
	}
	err := &CrashError{Epoch: 4}
	if err.Error() == "" {
		t.Fatal("empty crash error message")
	}
}

func TestBackoff(t *testing.T) {
	base, cap := 10*time.Millisecond, 80*time.Millisecond
	want := []time.Duration{10, 20, 40, 80, 80}
	for attempt, w := range want {
		if got := Backoff(attempt, base, cap); got != w*time.Millisecond {
			t.Fatalf("Backoff(%d) = %v, want %v", attempt, got, w*time.Millisecond)
		}
	}
	if Backoff(3, 0, cap) != 0 {
		t.Fatal("zero base should disable backoff")
	}
	if Backoff(1000, time.Nanosecond, 0) <= 0 {
		t.Fatal("huge attempt must not overflow into a non-positive delay")
	}
}

// TestDomainsUnique is the collision guard the Domains registry promises:
// every hash domain must map to a distinct constant, or two consumers would
// silently draw correlated variates from the same stream.
func TestDomainsUnique(t *testing.T) {
	seen := make(map[uint64]string)
	for name, d := range Domains() {
		if prev, ok := seen[d]; ok {
			t.Errorf("hash domain %d is shared by %q and %q", d, name, prev)
		}
		seen[d] = name
	}
	if len(seen) == 0 {
		t.Fatal("Domains registry is empty")
	}
}

// TestLagScheduleProperties pins the async lag schedule: Lag is
// deterministic, bounded by [0, maxLag], zero on a nil injector or a zero
// straggler rate, fires at roughly the configured rate, and with
// StickyStragglers becomes epoch-invariant.
func TestLagScheduleProperties(t *testing.T) {
	var nilInj *Injector
	if nilInj.Lag(1, 0, 3) != 0 {
		t.Error("nil injector scheduled a lag")
	}
	if MustNew(Config{Seed: 1}).Lag(1, 0, 3) != 0 {
		t.Error("zero straggler rate scheduled a lag")
	}
	inj := MustNew(Config{Seed: 9, Straggler: 0.4})
	if inj.Lag(1, 0, 0) != 0 {
		t.Error("maxLag 0 must disable lags")
	}
	const epochs, parts, maxLag = 200, 10, 3
	fired := 0
	for e := 1; e <= epochs; e++ {
		for i := 0; i < parts; i++ {
			l := inj.Lag(e, i, maxLag)
			if l != inj.Lag(e, i, maxLag) {
				t.Fatal("Lag not deterministic")
			}
			if l < 0 || l > maxLag {
				t.Fatalf("lag %d outside [0,%d]", l, maxLag)
			}
			if l > 0 {
				fired++
			}
		}
	}
	rate := float64(fired) / float64(epochs*parts)
	if rate < 0.3 || rate > 0.5 {
		t.Errorf("empirical lag rate %v far from configured 0.4", rate)
	}

	sticky := MustNew(Config{Seed: 9, Straggler: 0.4, StickyStragglers: true})
	for i := 0; i < parts; i++ {
		want := sticky.Lag(1, i, maxLag)
		for e := 2; e <= 20; e++ {
			if got := sticky.Lag(e, i, maxLag); got != want {
				t.Fatalf("sticky lag for part %d drifted: epoch %d gave %d, epoch 1 gave %d", i, e, got, want)
			}
		}
	}
}
