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

func checkAgainstOracle(t *testing.T, v []float64) {
	t.Helper()
	want, err := oracleMarshal(v)
	if err != nil {
		t.Fatalf("oracle marshal: %v", err)
	}
	got, err := Vec(v).MarshalJSON()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("marshal wrote\n %s\nthe oracle\n %s", got, want)
	}
	// Through the real encoder too: json.Marshal compacts and validates a
	// Marshaler's output, and must leave it untouched.
	if via, err := json.Marshal(Vec(v)); err != nil || string(via) != string(want) {
		t.Fatalf("json.Marshal(Vec) = %s, %v; want %s", via, err, want)
	}
	var back Vec
	if err := back.UnmarshalJSON(got); err != nil {
		t.Fatalf("unmarshal of %s: %v", got, err)
	}
	if !sameFloats(back, v) {
		t.Fatalf("round trip of %v gave %v", v, []float64(back))
	}
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

func TestVecUnmarshalAcceptsWhatTheOracleAccepts(t *testing.T) {
	for _, in := range []string{
		// accepted by both
		`null`, `[]`, `[ ]`, ` [1, 2 ,3] `, "[\n1,\t2\r]", `[null]`, `[1,null,"NaN"]`,
		`["NaN","+Inf","-Inf"]`, `["NaN"]`, `[-0]`, `[0.5e+3,1E-2,-1.25e2]`,
		`[1e308]`, `[4.9e-324]`, `[1e-400]`, `[12345678901234567890]`,
		// rejected by both
		``, `[`, `]`, `[1`, `1]`, `[1,]`, `[,1]`, `[1,,2]`, `[1 2]`, `[[1]]`, `[[]]`, `[{}]`,
		`[true]`, `[false]`, `["nan"]`, `["Inf"]`, `["NaN]`, `["NaN" "NaN"]`, `[""]`,
		`[1e999]`, `[-1e999]`, `[+1]`, `[.5]`, `[1.]`, `[01]`, `[-]`, `[1e]`, `[1e+]`,
		`[0x10]`, `[1_000]`, `[Inf]`, `[NaN]`, `[nul]`, `{"a":1}`, `"NaN"`, `1`, `true`,
		`[1]]`, `[1] [2]`, `[1]x`,
	} {
		want, werr := oracleUnmarshal([]byte(in))
		var got Vec
		gerr := got.UnmarshalJSON([]byte(in))
		if (gerr == nil) != (werr == nil) {
			t.Errorf("%q: error %v, the oracle's %v", in, gerr, werr)
			continue
		}
		if gerr == nil && !sameFloats(got, want) {
			t.Errorf("%q decodes to %v, the oracle to %v", in, []float64(got), want)
		}
		// Inside a document, where encoding/json has validated the syntax
		// before the vector sees its bytes.
		doc := `{"v":` + in + `}`
		var gs struct{ V Vec }
		var ws struct{ V []oracleF64 }
		if gerr, werr := json.Unmarshal([]byte(doc), &gs), json.Unmarshal([]byte(doc), &ws); (gerr == nil) != (werr == nil) {
			t.Errorf("%s: error %v, the oracle's %v", doc, gerr, werr)
		}
	}
	// A refused input leaves the destination alone.
	keep := Vec{7}
	if err := keep.UnmarshalJSON([]byte(`[1,true]`)); err == nil || len(keep) != 1 || keep[0] != 7 {
		t.Errorf("refused input: err %v, destination %v", err, keep)
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

var sink []byte

func BenchmarkVecMarshal2000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	v := make(Vec, 2000)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink, _ = v.MarshalJSON()
	}
}

func BenchmarkVecUnmarshal2000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	v := make(Vec, 2000)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	text, _ := v.MarshalJSON()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out Vec
		if err := out.UnmarshalJSON(text); err != nil {
			b.Fatal(err)
		}
	}
}
