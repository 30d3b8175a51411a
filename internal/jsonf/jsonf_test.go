package jsonf

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The oracle is the implementation this package had before it encoded in
// one pass: every element through json.Marshal / json.Unmarshal, one
// reflection call each. The one-pass code must write the same bytes and
// accept the same inputs.

type oracleF64 float64

func (f oracleF64) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

func (f *oracleF64) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "NaN":
			*f = oracleF64(math.NaN())
		case "+Inf":
			*f = oracleF64(math.Inf(1))
		case "-Inf":
			*f = oracleF64(math.Inf(-1))
		default:
			return fmt.Errorf("unknown float sentinel %q", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = oracleF64(v)
	return nil
}

func oracleMarshal(v []float64) ([]byte, error) {
	if v == nil {
		return []byte("null"), nil
	}
	out := make([]oracleF64, len(v))
	for i, x := range v {
		out[i] = oracleF64(x)
	}
	return json.Marshal(out)
}

func oracleUnmarshal(b []byte) ([]float64, error) {
	var raw []oracleF64
	if err := json.Unmarshal(b, &raw); err != nil {
		return nil, err
	}
	if raw == nil {
		return nil, nil
	}
	out := make([]float64, len(raw))
	for i, x := range raw {
		out[i] = float64(x)
	}
	return out, nil
}

// sameFloats compares bit for bit, except that every NaN equals every NaN:
// the "NaN" sentinel does not carry a payload.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.IsNaN(a[i]) && math.IsNaN(b[i]) {
			continue
		}
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// f64s is v as the []F64 a caller hands encoding/json; nil stays nil.
func f64s(v []float64) []F64 {
	if v == nil {
		return nil
	}
	out := make([]F64, len(v))
	for i, x := range v {
		out[i] = F64(x)
	}
	return out
}

func checkAgainstOracle(t *testing.T, v []float64) {
	t.Helper()
	want, err := oracleMarshal(v)
	if err != nil {
		t.Fatalf("oracle marshal: %v", err)
	}
	got := AppendVec(nil, v)
	if string(got) != string(want) {
		t.Fatalf("AppendVec wrote\n %s\nthe oracle\n %s", got, want)
	}
	// AppendVec writes the same bytes behind whatever the buffer holds.
	if app := AppendVec([]byte(`{"v":`), v); string(app) != `{"v":`+string(want) {
		t.Fatalf("AppendVec wrote\n %s\nwant the oracle's bytes behind the prefix\n %s", app, want)
	}
	// Element by element through the real encoder: json.Marshal compacts
	// and validates a Marshaler's output, and must leave it untouched.
	if via, err := json.Marshal(f64s(v)); err != nil || string(via) != string(want) {
		t.Fatalf("json.Marshal([]F64) = %s, %v; want %s", via, err, want)
	}
	var back []F64
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatalf("unmarshal of %s: %v", got, err)
	}
	if !sameFloats(fromF64s(back), v) {
		t.Fatalf("round trip of %v gave %v", v, back)
	}
}

func fromF64s(v []F64) []float64 {
	if v == nil {
		return nil
	}
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

func TestVecMatchesOracle(t *testing.T) {
	table := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 100, 1e20, 123456789.125,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, // subnormals
		2.2250738585072009e-308, 2.2250738585072014e-308, // around the smallest normal
		1e-7, 9.999999999999999e-7, 1e-6, 1.0000000000000002e-6, // the 'e' / 'f' boundary below
		9.999999999999999e20, 1e21, 1.0000000000000001e21, // and above
		1e-9, 1e-10, 1.5e-9, 1e-100, 1e100, // exponent clean-up: one digit, two, three
		math.MaxFloat64, -math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	checkAgainstOracle(t, table)
	for _, x := range table {
		checkAgainstOracle(t, []float64{x})
		fb, _ := F64(x).MarshalJSON()
		ob, _ := oracleF64(x).MarshalJSON()
		if string(fb) != string(ob) {
			t.Errorf("F64(%v) marshals to %s, the oracle to %s", x, fb, ob)
		}
	}
	checkAgainstOracle(t, nil)
	checkAgainstOracle(t, []float64{})

	// Every float64 is a possible value: 10k seeded bit patterns.
	rng := rand.New(rand.NewSource(16))
	random := make([]float64, 10_000)
	for i := range random {
		random[i] = math.Float64frombits(rng.Uint64())
	}
	checkAgainstOracle(t, random)
}

// A float vector decoded as []F64 — encoding/json parses the array, F64
// each element — accepts exactly what the oracle accepts.
func TestVecUnmarshalAcceptsWhatTheOracleAccepts(t *testing.T) {
	for _, in := range []string{
		// accepted by both
		`null`, `[]`, `[ ]`, ` [1, 2 ,3] `, "[\n1,\t2\r]", `[null]`, `[1,null,"NaN"]`,
		`["NaN","+Inf","-Inf"]`, `["NaN"]`, `["\u004eaN"]`, `[-0]`, `[0.5e+3,1E-2,-1.25e2]`,
		`[1e308]`, `[4.9e-324]`, `[1e-400]`, `[12345678901234567890]`,
		// rejected by both
		``, `[`, `]`, `[1`, `1]`, `[1,]`, `[,1]`, `[1,,2]`, `[1 2]`, `[[1]]`, `[[]]`, `[{}]`,
		`[true]`, `[false]`, `["nan"]`, `["Inf"]`, `["NaN]`, `["NaN" "NaN"]`, `[""]`,
		`[1e999]`, `[-1e999]`, `[+1]`, `[.5]`, `[1.]`, `[01]`, `[-]`, `[1e]`, `[1e+]`,
		`[0x10]`, `[1_000]`, `[Inf]`, `[NaN]`, `[nul]`, `{"a":1}`, `"NaN"`, `1`, `true`,
		`[1]]`, `[1] [2]`, `[1]x`,
	} {
		want, werr := oracleUnmarshal([]byte(in))
		var got []F64
		gerr := json.Unmarshal([]byte(in), &got)
		if (gerr == nil) != (werr == nil) {
			t.Errorf("%q: error %v, the oracle's %v", in, gerr, werr)
			continue
		}
		if gerr == nil && !sameFloats(fromF64s(got), want) {
			t.Errorf("%q decodes to %v, the oracle to %v", in, got, want)
		}
	}
}

func TestF64UnmarshalMatchesOracle(t *testing.T) {
	for _, in := range []string{`1`, ` 2.5 `, `"NaN"`, `"+Inf"`, `"-Inf"`, `null`, `"x"`, `true`, `[1]`, `1e999`, `+1`, ``} {
		var got F64 = 3
		var want oracleF64 = 3
		gerr, werr := got.UnmarshalJSON([]byte(in)), want.UnmarshalJSON([]byte(in))
		if (gerr == nil) != (werr == nil) {
			t.Errorf("%q: error %v, the oracle's %v", in, gerr, werr)
		} else if gerr == nil && !sameFloats([]float64{float64(got)}, []float64{float64(want)}) {
			t.Errorf("%q decodes to %v, the oracle to %v", in, got, want)
		}
	}
}

// TestAppendVecReusesBuffer: into a buffer that already fits, AppendVec
// allocates nothing — what lets /v1/score reuse one reply buffer.
func TestAppendVecReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	v := make([]float64, 2000)
	for i := range v {
		v[i] = rng.NormFloat64() * math.Pow10(rng.Intn(40)-20)
	}
	v[3], v[9] = math.NaN(), math.Inf(-1)
	buf := AppendVec(nil, v)
	if got := testing.AllocsPerRun(20, func() { buf = AppendVec(buf[:0], v) }); got != 0 {
		t.Errorf("AppendVec into a warm buffer: %v allocations, want 0", got)
	}
}

var sink []byte

func BenchmarkAppendVec2000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	v := make([]float64, 2000)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	sink = AppendVec(sink[:0], v)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = AppendVec(sink[:0], v)
	}
}
