package logio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"go/parser"
	"go/token"
	"hash/crc32"
	"math"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"digfl/internal/framing"
	"digfl/internal/hfl"
	"digfl/internal/vfl"
)

// sameFloat compares with NaN == NaN, the round-trip notion of equality.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return a == b
}

// divergedHFLLog builds a log the way a diverged run produces one: early
// epochs finite, later epochs shot through with NaN and ±Inf.
func divergedHFLLog() []*hfl.Epoch {
	nan, pinf, ninf := math.NaN(), math.Inf(1), math.Inf(-1)
	return []*hfl.Epoch{
		{
			T: 1, Theta: []float64{0.5, -1.25}, LR: 0.1,
			Deltas:  [][]float64{{1, 2}, {3, 4}},
			ValGrad: []float64{0.25, 0.75}, ValLoss: 1.5,
		},
		{
			T: 2, Theta: []float64{nan, pinf}, LR: 0.1,
			Deltas:  [][]float64{{ninf, nan}, {pinf, 0}},
			ValGrad: []float64{nan, ninf}, ValLoss: nan,
			Weights: []float64{0.5, 0.5},
		},
	}
}

// Diverged logs write and round-trip exactly.
func TestHFLNonFiniteRoundTrip(t *testing.T) {
	log := divergedHFLLog()
	var buf bytes.Buffer
	if err := WriteHFL(&buf, log); err != nil {
		t.Fatalf("writing diverged log: %v", err)
	}
	got, err := ReadHFL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(log) {
		t.Fatalf("lost epochs: %d vs %d", len(got), len(log))
	}
	for i := range log {
		if got[i].T != log[i].T || !sameFloat(got[i].LR, log[i].LR) || !sameFloat(got[i].ValLoss, log[i].ValLoss) {
			t.Fatalf("epoch %d metadata mismatch: %+v", i, got[i])
		}
		for j := range log[i].Theta {
			if !sameFloat(got[i].Theta[j], log[i].Theta[j]) {
				t.Fatalf("epoch %d theta[%d] = %v, want %v", i, j, got[i].Theta[j], log[i].Theta[j])
			}
			if !sameFloat(got[i].ValGrad[j], log[i].ValGrad[j]) {
				t.Fatalf("epoch %d valGrad[%d] mismatch", i, j)
			}
		}
		for k := range log[i].Deltas {
			for j := range log[i].Deltas[k] {
				if !sameFloat(got[i].Deltas[k][j], log[i].Deltas[k][j]) {
					t.Fatalf("epoch %d delta[%d][%d] mismatch", i, k, j)
				}
			}
		}
		if (got[i].Weights == nil) != (log[i].Weights == nil) {
			t.Fatalf("epoch %d weights nil-ness changed", i)
		}
	}
}

func TestVFLNonFiniteRoundTrip(t *testing.T) {
	nan, pinf := math.NaN(), math.Inf(1)
	log := []*vfl.Epoch{
		{T: 1, Theta: []float64{1, 2}, Grad: []float64{0.5, -0.5}, LR: 0.05,
			ValGrad: []float64{0.1, 0.2}, ValLoss: 3},
		{T: 2, Theta: []float64{nan, pinf}, Grad: []float64{pinf, nan}, LR: 0.05,
			ValGrad: []float64{nan, nan}, ValLoss: pinf},
	}
	var buf bytes.Buffer
	if err := WriteVFL(&buf, log); err != nil {
		t.Fatalf("writing diverged VFL log: %v", err)
	}
	got, err := ReadVFL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range log {
		if !sameFloat(got[i].ValLoss, log[i].ValLoss) {
			t.Fatalf("epoch %d valLoss mismatch", i)
		}
		for j := range log[i].Theta {
			if !sameFloat(got[i].Theta[j], log[i].Theta[j]) || !sameFloat(got[i].Grad[j], log[i].Grad[j]) {
				t.Fatalf("epoch %d vector mismatch", i)
			}
		}
	}
}

// specials are the floats a text encoding loses or bends: NaNs with
// distinct payloads (quiet, signalling, negative), −0, ±Inf, the smallest
// subnormal.
var specials = []float64{
	math.Float64frombits(0x7ff8_0000_00be_ef01), math.Float64frombits(0x7ff0_0000_0000_0abc),
	math.Float64frombits(0xfff8_0000_0000_0007), math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64,
}

// special returns a vector of n specials starting at the j-th.
func special(n, j int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = specials[(i+j)%len(specials)]
	}
	return v
}

// sameBits compares two values of the same type, floats by their bits and
// slices with their nil-ness.
func sameBits(a, b any) bool {
	return reflect.DeepEqual(bitsOf(reflect.ValueOf(a)), bitsOf(reflect.ValueOf(b)))
}

// bitsOf maps a value to a comparable tree: every float to its bits, every
// slice to nil or its elements, every struct or pointer to its fields.
func bitsOf(v reflect.Value) any {
	switch v.Kind() {
	case reflect.Float64:
		return math.Float64bits(v.Float())
	case reflect.Pointer:
		if v.IsNil() {
			return nil
		}
		return []any{bitsOf(v.Elem())}
	case reflect.Slice:
		if v.IsNil() {
			return nil
		}
		out := []any{}
		for i := 0; i < v.Len(); i++ {
			out = append(out, bitsOf(v.Index(i)))
		}
		return out
	case reflect.Struct:
		out := []any{}
		for i := 0; i < v.NumField(); i++ {
			out = append(out, bitsOf(v.Field(i)))
		}
		return out
	}
	return v.Interface()
}

// TestNonFiniteBitsRoundTrip: NaN payloads, −0, ±Inf and subnormals in
// every vector and scalar field of an HFL and a VFL epoch come back with
// their bits — and the read logs write the bytes they were read from.
func TestNonFiniteBitsRoundTrip(t *testing.T) {
	const p = 5
	var hlog []*hfl.Epoch
	var vlog []*vfl.Epoch
	for j := range specials {
		hlog = append(hlog, &hfl.Epoch{T: j + 1, LR: specials[j], ValLoss: specials[(j+1)%len(specials)],
			Theta: special(p, j), ValGrad: special(p, j+1), Weights: special(3, j+2),
			Deltas: [][]float64{special(p, j+3), special(p, j+4), special(p, j+5)}})
		vlog = append(vlog, &vfl.Epoch{T: j + 1, LR: specials[j], ValLoss: specials[(j+2)%len(specials)],
			Theta: special(p, j), Grad: special(p, j+1), ValGrad: special(p, j+2), Weights: special(2, j+3),
			Reported: []int{0, 2}})
	}
	var hbuf, vbuf bytes.Buffer
	if err := WriteHFL(&hbuf, hlog); err != nil {
		t.Fatal(err)
	}
	if err := WriteVFL(&vbuf, vlog); err != nil {
		t.Fatal(err)
	}
	hgot, err := ReadHFL(bytes.NewReader(hbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	vgot, err := ReadVFL(bytes.NewReader(vbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(hgot, hlog) {
		t.Error("an HFL field lost bits in the round trip")
	}
	if !sameBits(vgot, vlog) {
		t.Error("a VFL field lost bits in the round trip")
	}
	var hagain, vagain bytes.Buffer
	if err := WriteHFL(&hagain, hgot); err != nil || !bytes.Equal(hagain.Bytes(), hbuf.Bytes()) {
		t.Errorf("the read HFL log does not write its own bytes (%v)", err)
	}
	if err := WriteVFL(&vagain, vgot); err != nil || !bytes.Equal(vagain.Bytes(), vbuf.Bytes()) {
		t.Errorf("the read VFL log does not write its own bytes (%v)", err)
	}
}

// TestNilVersusEmpty: an absent Reported list (every party reported) and an
// empty one (every party dropped), an absent Weights vector (unweighted) and
// an empty one, each read back as written, in HFL and VFL logs.
func TestNilVersusEmpty(t *testing.T) {
	hlog := []*hfl.Epoch{
		{T: 1, Theta: []float64{1, 2}, ValGrad: []float64{3, 4}, Deltas: [][]float64{{5, 6}, {7, 8}}},
		{T: 2, Theta: []float64{1, 2}, ValGrad: []float64{3, 4}, Reported: []int{}, Weights: []float64{}},
		{T: 3, Theta: []float64{1, 2}, ValGrad: []float64{3, 4}, Reported: []int{1}, Deltas: [][]float64{{9, 9}},
			Weights: []float64{1}},
	}
	vlog := []*vfl.Epoch{
		{T: 1, Theta: []float64{1}, Grad: []float64{2}, ValGrad: []float64{3}},
		{T: 2, Theta: []float64{1}, Grad: []float64{2}, ValGrad: []float64{3}, Reported: []int{}, Weights: []float64{}},
	}
	var hbuf, vbuf bytes.Buffer
	if err := WriteHFL(&hbuf, hlog); err != nil {
		t.Fatal(err)
	}
	if err := WriteVFL(&vbuf, vlog); err != nil {
		t.Fatal(err)
	}
	hgot, err := ReadHFL(&hbuf)
	if err != nil {
		t.Fatal(err)
	}
	vgot, err := ReadVFL(&vbuf)
	if err != nil {
		t.Fatal(err)
	}
	for i, ep := range hgot {
		if (ep.Reported == nil) != (hlog[i].Reported == nil) || (ep.Weights == nil) != (hlog[i].Weights == nil) {
			t.Errorf("HFL epoch %d: Reported nil=%v Weights nil=%v, wrote nil=%v and nil=%v", i+1,
				ep.Reported == nil, ep.Weights == nil, hlog[i].Reported == nil, hlog[i].Weights == nil)
		}
	}
	for i, ep := range vgot {
		if (ep.Reported == nil) != (vlog[i].Reported == nil) || (ep.Weights == nil) != (vlog[i].Weights == nil) {
			t.Errorf("VFL epoch %d: Reported nil=%v Weights nil=%v, wrote nil=%v and nil=%v", i+1,
				ep.Reported == nil, ep.Weights == nil, vlog[i].Reported == nil, vlog[i].Weights == nil)
		}
	}
	if !sameBits(hgot[2], hlog[2]) {
		t.Errorf("degraded epoch read back as %+v", hgot[2])
	}
}

// records splits an archive into its records, framing included.
func records(t testing.TB, b []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for len(b) > 0 {
		n := 8 + int(binary.LittleEndian.Uint32(b))
		if n > len(b) {
			t.Fatalf("record %d runs past the archive", len(out))
		}
		out = append(out, b[:n:n])
		b = b[n:]
	}
	return out
}

// reseal recomputes a record's length and checksum after its payload was
// edited.
func reseal(rec []byte) []byte {
	binary.LittleEndian.PutUint32(rec, uint32(len(rec)-8))
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(rec[8:]))
	return rec
}

// TestWrittenFormat pins format version 3's bytes: the header record and an
// epoch record of a degraded, weighted, non-finite epoch, each against a
// field-by-field encoding in this test.
func TestWrittenFormat(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_0000_0123)
	log := []*hfl.Epoch{
		{T: 1, LR: 0.5, ValLoss: nan, Theta: []float64{1, math.Inf(-1)}, ValGrad: []float64{math.Copysign(0, -1), 2},
			Reported: []int{2}, Weights: []float64{0.25}, Deltas: [][]float64{{3, 4}}},
	}
	var buf bytes.Buffer
	if err := WriteHFL(&buf, log); err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	f64 := func(b []byte, x float64) []byte { return le.AppendUint64(b, math.Float64bits(x)) }
	hdr := make([]byte, 8)
	for _, v := range []uint32{3, 2, 3} { // version, params, parties
		hdr = le.AppendUint32(hdr, v)
	}
	hdr = append(hdr, "digfl-hfl-log"...)
	ep := make([]byte, 8)
	ep = le.AppendUint32(ep, 1)
	ep = f64(ep, 0.5)
	ep = f64(ep, nan)
	for _, v := range []uint32{hasReported | hasWeights, 1, 1, 1} { // flags, k, r, w
		ep = le.AppendUint32(ep, v)
	}
	for _, x := range []float64{1, math.Inf(-1), math.Copysign(0, -1), 2} {
		ep = f64(ep, x)
	}
	ep = le.AppendUint32(ep, 2)
	for _, x := range []float64{0.25, 3, 4} {
		ep = f64(ep, x)
	}
	want := append(reseal(hdr), reseal(ep)...)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("written archive:\n%x\nwant:\n%x", buf.Bytes(), want)
	}
}

// TestReadRefusesJSONArchives: the line-delimited JSON of format versions 1
// and 2 is not read — refused at the header, not misread.
func TestReadRefusesJSONArchives(t *testing.T) {
	for _, v := range []string{
		`{"format":"digfl-hfl-log","version":1,"params":2,"parties":2}
{"T":1,"Theta":[0.5,-1.25],"Deltas":[[1,2],[3,4]],"LR":0.1,"ValGrad":[0.25,0.75],"ValLoss":1.5,"Weights":null}
`,
		`{"format":"digfl-hfl-log","version":2,"params":2,"parties":2}
{"T":1,"Theta":["NaN",-1.25],"Deltas":[[1,2],[3,4]],"LR":0.1,"ValGrad":[0.25,0.75],"ValLoss":1.5,"Weights":null}
`,
	} {
		if _, err := ReadHFL(strings.NewReader(v)); err == nil || !strings.Contains(err.Error(), "record 0") {
			t.Errorf("a JSON archive read with error %v, want a refusal of record 0", err)
		}
	}
}

// recordIndex is the record an error names.
var recordIndex = regexp.MustCompile(`record (\d+)\b`)

func refusedAt(t *testing.T, what string, err error, want int) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: accepted", what)
	}
	m := recordIndex.FindStringSubmatch(err.Error())
	if m == nil || m[1] != strconv.Itoa(want) {
		t.Fatalf("%s: refused with %q, want record %d named", what, err, want)
	}
}

// smallArchive is a three-epoch archive of a two-party, two-param log.
func smallArchive(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteHFL(&buf, streamEpochs()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestArchiveFlippedByteRefused: a byte flipped anywhere in a small archive —
// length, checksum or payload of any record — is refused, naming the record
// the byte belongs to.
func TestArchiveFlippedByteRefused(t *testing.T) {
	archive := smallArchive(t)
	recs := records(t, archive)
	off := 0
	for i, rec := range recs {
		for j := range rec {
			for _, mask := range []byte{0x01, 0x80, 0xff} {
				bad := bytes.Clone(archive)
				bad[off+j] ^= mask
				_, err := ReadHFL(bytes.NewReader(bad))
				refusedAt(t, fmt.Sprintf("byte %d of record %d ^ %#x", j, i, mask), err, i)
			}
		}
		off += len(rec)
	}
}

// TestArchiveTornTailRefused: an archive cut inside its final record, at
// every length, is refused naming that record; cut at the record's start, it
// reads as the log without its last epoch. A torn VFL log is refused too.
func TestArchiveTornTailRefused(t *testing.T) {
	archive := smallArchive(t)
	recs := records(t, archive)
	last := len(recs) - 1
	start := len(archive) - len(recs[last])
	for cut := start + 1; cut < len(archive); cut++ {
		_, err := ReadHFL(bytes.NewReader(archive[:cut]))
		refusedAt(t, fmt.Sprintf("cut %d bytes into the last record", cut-start), err, last)
	}
	if log, err := ReadHFL(bytes.NewReader(archive[:start])); err != nil || len(log) != last-1 {
		t.Fatalf("cut at the last record's start: %d epochs, %v", len(log), err)
	}
	var vbuf bytes.Buffer
	if err := WriteVFL(&vbuf, []*vfl.Epoch{{T: 1, Theta: []float64{1}, Grad: []float64{2}, ValGrad: []float64{3}}}); err != nil {
		t.Fatal(err)
	}
	_, err := ReadVFL(bytes.NewReader(vbuf.Bytes()[:vbuf.Len()-1]))
	refusedAt(t, "a VFL log cut one byte short", err, 1)
}

// FuzzReadHFL: any input is refused or read without a panic, and an accepted
// log writes back — under the header's own shape — the bytes it was read
// from.
func FuzzReadHFL(f *testing.F) {
	archive := smallArchive(f)
	f.Add(archive)
	f.Add(archive[:len(archive)-3])
	var deg bytes.Buffer
	degraded := streamEpochs()
	degraded[0].Reported, degraded[0].Deltas = []int{}, nil
	if err := WriteHFL(&deg, degraded); err != nil {
		f.Fatal(err)
	}
	f.Add(deg.Bytes())
	var div bytes.Buffer
	if err := WriteHFL(&div, divergedHFLLog()); err != nil {
		f.Fatal(err)
	}
	f.Add(div.Bytes())
	f.Add([]byte(`{"format":"digfl-hfl-log","version":2,"params":2,"parties":2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := ReadHFL(bytes.NewReader(data))
		if err != nil {
			return
		}
		h, err := readHeader(framing.NewReader(bytes.NewReader(data)), formatHFL)
		if err != nil {
			t.Fatalf("ReadHFL accepted a header readHeader refuses: %v", err)
		}
		var again bytes.Buffer
		if err := writeLog(&again, h, nil, log, encodeHFL); err != nil {
			t.Fatalf("an accepted log does not write: %v", err)
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatalf("accepted input writes back other bytes:\n%x\n%x", again.Bytes(), data)
		}
	})
}

// TestLogioImportsNoJSON: the archive's code imports neither encoding/json
// nor the JSON float helpers.
func TestLogioImportsNoJSON(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "encoding/json" || path == "digfl/internal/jsonf" {
				t.Errorf("%s imports %s", name, path)
			}
		}
	}
}
