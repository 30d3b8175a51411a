package adversary

import (
	"context"
	"math"
	"reflect"
	"testing"

	"digfl/internal/dataset"
	"digfl/internal/hfl"
	"digfl/internal/obs"
	"digfl/internal/tensor"
)

// TestDefaults checks default filling per kind.
func TestDefaults(t *testing.T) {
	a := MustNew(Config{Kind: SignFlip, Attackers: []int{1}})
	if c := a.Config(); c.Scale != 3 || c.Rate != 1 || c.Start != 1 || c.NoiseStd != 0.01 || c.FlipFrac != 1 {
		t.Fatalf("sign-flip defaults wrong: %+v", c)
	}
	if c := MustNew(Config{Kind: ScalePoison}).Config(); c.Scale != 10 {
		t.Fatalf("scale-poison default Scale = %v, want 10", c.Scale)
	}
}

// TestValidation rejects out-of-range configs.
func TestValidation(t *testing.T) {
	bad := []Config{
		{Kind: numKinds},
		{Rate: 1.5},
		{Rate: -0.1},
		{FlipFrac: 2},
		{Scale: -1},
		{NoiseStd: -1},
		{Start: -1},
		{Attackers: []int{-3}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New(%+v) accepted invalid config", i, cfg)
		}
	}
}

// TestNilSafe exercises every method on a nil adversary.
func TestNilSafe(t *testing.T) {
	var a *Adversary
	if a.IsAttacker(0) || a.Fires(1, 0) {
		t.Error("nil adversary claims to attack")
	}
	if a.Attackers() != nil {
		t.Error("nil adversary has attackers")
	}
	d := []float64{1, 2}
	if a.MutateDelta(1, 0, d) || d[0] != 1 || d[1] != 2 {
		t.Error("nil adversary mutated a delta")
	}
	parts := []dataset.Dataset{}
	if got := a.PoisonShards(parts); len(got) != 0 {
		t.Error("nil adversary poisoned shards")
	}
	if !reflect.DeepEqual(a.Config(), Config{}) {
		t.Error("nil adversary has a config")
	}
}

// TestFiresSchedule checks honest/start/rate gating and determinism.
func TestFiresSchedule(t *testing.T) {
	a := MustNew(Config{Seed: 7, Kind: SignFlip, Attackers: []int{2, 5}, Start: 3})
	if a.Fires(1, 2) || a.Fires(2, 5) {
		t.Error("attack fired before Start")
	}
	if !a.Fires(3, 2) || !a.Fires(9, 5) {
		t.Error("attack did not fire at full rate after Start")
	}
	if a.Fires(3, 0) {
		t.Error("honest participant fired")
	}
	// LabelFlip never fires at the update level.
	lf := MustNew(Config{Kind: LabelFlip, Attackers: []int{2}})
	if lf.Fires(5, 2) {
		t.Error("LabelFlip fired at update level")
	}
	// Partial rate: deterministic, not all-fire, not no-fire over many rounds.
	p := MustNew(Config{Seed: 7, Kind: SignFlip, Attackers: []int{0}, Rate: 0.5})
	fired := 0
	for round := 1; round <= 200; round++ {
		if p.Fires(round, 0) {
			fired++
		}
		if p.Fires(round, 0) != p.Fires(round, 0) {
			t.Fatal("Fires not deterministic")
		}
	}
	if fired < 60 || fired > 140 {
		t.Errorf("rate-0.5 attacker fired %d/200 rounds", fired)
	}
}

// TestMutateDeltaKinds checks each update-level corruption.
func TestMutateDeltaKinds(t *testing.T) {
	base := []float64{1, -2, 3}

	d := append([]float64(nil), base...)
	MustNew(Config{Kind: SignFlip, Attackers: []int{0}, Scale: 2}).MutateDelta(1, 0, d)
	if want := []float64{-2, 4, -6}; !reflect.DeepEqual(d, want) {
		t.Errorf("SignFlip: got %v want %v", d, want)
	}

	d = append([]float64(nil), base...)
	MustNew(Config{Kind: ScalePoison, Attackers: []int{0}, Scale: 4}).MutateDelta(1, 0, d)
	if want := []float64{4, -8, 12}; !reflect.DeepEqual(d, want) {
		t.Errorf("ScalePoison: got %v want %v", d, want)
	}

	d = append([]float64(nil), base...)
	fr := MustNew(Config{Seed: 3, Kind: FreeRider, Attackers: []int{0}, NoiseStd: 0.05})
	fr.MutateDelta(1, 0, d)
	w := math.Sqrt(3) * 0.05
	for j, v := range d {
		if math.Abs(v) > w || v == base[j] {
			t.Errorf("FreeRider coord %d = %v outside [−%v,%v] or unchanged", j, v, w, w)
		}
	}
	d2 := append([]float64(nil), base...)
	fr.MutateDelta(1, 0, d2)
	if !reflect.DeepEqual(d, d2) {
		t.Error("FreeRider noise not deterministic")
	}

	// Collude: two attackers report identical directions; norm scaled.
	co := MustNew(Config{Seed: 3, Kind: Collude, Attackers: []int{0, 1}, Scale: 2})
	da := append([]float64(nil), base...)
	db := []float64{2, -4, 6} // different honest delta, twice the norm
	co.MutateDelta(4, 0, da)
	co.MutateDelta(4, 1, db)
	na, nb := tensor.Dot(da, da), tensor.Dot(db, db)
	wantNa := float64(4 * tensor.Dot(base, base)) // (Scale·‖base‖)²
	if math.Abs(na-wantNa) > 1e-9*wantNa {
		t.Errorf("Collude norm² = %v, want %v", na, wantNa)
	}
	// Same direction: da/‖da‖ == db/‖db‖.
	cos := tensor.Dot(da, db) / math.Sqrt(na*nb)
	if math.Abs(cos-1) > 1e-12 {
		t.Errorf("colluders disagree on direction: cos = %v", cos)
	}
}

// TestPoisonShards checks only attacker shards change, and only for LabelFlip.
func TestPoisonShards(t *testing.T) {
	mk := func() []dataset.Dataset {
		parts := make([]dataset.Dataset, 3)
		for i := range parts {
			parts[i] = dataset.MNISTLike(20, int64(i+1))
		}
		return parts
	}
	parts := mk()
	a := MustNew(Config{Seed: 9, Kind: LabelFlip, Attackers: []int{1}, FlipFrac: 1})
	out := a.PoisonShards(parts)
	if &out[0].Y[0] != &parts[0].Y[0] || &out[2].Y[0] != &parts[2].Y[0] {
		t.Error("honest shards were copied")
	}
	changed := 0
	for i := range out[1].Y {
		if out[1].Y[i] != parts[1].Y[i] {
			changed++
		}
	}
	if changed == 0 {
		t.Error("attacker shard unchanged")
	}
	// Deterministic.
	out2 := a.PoisonShards(mk())
	if !reflect.DeepEqual(out[1].Y, out2[1].Y) {
		t.Error("PoisonShards not deterministic")
	}
	// Non-LabelFlip kinds return parts unchanged (same slice).
	sf := MustNew(Config{Kind: SignFlip, Attackers: []int{1}})
	if got := sf.PoisonShards(parts); &got[0] != &parts[0] {
		t.Error("SignFlip PoisonShards copied parts")
	}
}

// staticSource returns fixed deltas for the active set.
type staticSource struct{ deltas map[int][]float64 }

func (s staticSource) Round(_ context.Context, spec *hfl.RoundSpec) (*hfl.RoundResult, error) {
	res := &hfl.RoundResult{}
	for _, i := range spec.Active {
		d := append([]float64(nil), s.deltas[i]...)
		res.Deltas = append(res.Deltas, d)
	}
	return res, nil
}

// TestSource checks the RoundSource wrapper mutates only attackers and
// emits attack_injected events.
func TestSource(t *testing.T) {
	inner := staticSource{deltas: map[int][]float64{
		0: {1, 1}, 1: {2, 2}, 2: {3, 3},
	}}
	c := &obs.Collector{}
	src := &Source{
		Inner:     inner,
		Adversary: MustNew(Config{Kind: SignFlip, Attackers: []int{1}, Scale: 1}),
		Sink:      c,
	}
	res, err := src.Round(context.Background(), &hfl.RoundSpec{T: 1, Active: []int{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{1, 1}, {-2, -2}, {3, 3}}
	if !reflect.DeepEqual(res.Deltas, want) {
		t.Fatalf("deltas = %v, want %v", res.Deltas, want)
	}
	if got := c.Snapshot().AttacksInjected; got != 1 {
		t.Fatalf("AttacksInjected = %d, want 1", got)
	}
	// Nil adversary: pure pass-through.
	clean := &Source{Inner: inner}
	res2, _ := clean.Round(context.Background(), &hfl.RoundSpec{T: 1, Active: []int{0, 1, 2}})
	if !reflect.DeepEqual(res2.Deltas, [][]float64{{1, 1}, {2, 2}, {3, 3}}) {
		t.Error("nil-adversary Source mutated deltas")
	}
}

// TestKindNames pins the wire names and round-trips ParseKind.
func TestKindNames(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("warp"); err == nil {
		t.Error("ParseKind accepted unknown name")
	}
	if Kind(200).String() != "unknown" {
		t.Error("out-of-range Kind should stringify as unknown")
	}
}
