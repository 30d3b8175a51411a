// Package jsonf provides JSON float encoding that survives non-finite
// values. encoding/json refuses to marshal NaN and ±Inf as numbers, so a
// plain encoder aborts mid-stream the moment a diverged run produces one.
// F64 encodes those values as the string sentinels "NaN", "+Inf" and "-Inf"
// instead, and accepts both sentinel strings and plain numbers on the way
// back in; a vector decodes as []F64. The observability trace
// (internal/obs) and the /v1/score reply share this encoding.
//
// AppendVec writes a float vector in one pass, into a buffer the caller
// owns and reuses: it allocates only when that buffer must grow, and the
// text is byte-identical to what encoding/json writes for the same finite
// values. /v1/score writes its totals with it.
package jsonf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// F64 is a float64 that survives JSON round-trips even when non-finite.
type F64 float64

// appendFloat appends v in encoding/json's float64 format — shortest
// round-trip digits, 'f' unless |v| < 1e-6 or |v| ≥ 1e21, then 'e' with a
// two-digit negative exponent's leading zero dropped (e-09 → e-9) — or as
// its sentinel string when non-finite.
func appendFloat(b []byte, v float64) []byte {
	switch {
	case math.IsNaN(v):
		return append(b, `"NaN"`...)
	case math.IsInf(v, 1):
		return append(b, `"+Inf"`...)
	case math.IsInf(v, -1):
		return append(b, `"-Inf"`...)
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// MarshalJSON encodes finite values as numbers and non-finite values as the
// string sentinels "NaN", "+Inf" and "-Inf".
func (f F64) MarshalJSON() ([]byte, error) {
	return appendFloat(make([]byte, 0, 24), float64(f)), nil
}

// UnmarshalJSON accepts both plain numbers and the sentinel strings.
func (f *F64) UnmarshalJSON(b []byte) error {
	v, err := parseElem(trim(b))
	if err != nil {
		return err
	}
	*f = F64(v)
	return nil
}

// parseElem decodes one float: a JSON number, a sentinel string,
// or null (which, as in encoding/json, leaves the zero value).
func parseElem(tok []byte) (float64, error) {
	if len(tok) > 0 && tok[0] == '"' {
		s := string(tok)
		if bytes.IndexByte(tok, '\\') >= 0 {
			// An escaped spelling of a sentinel is still that sentinel.
			var u string
			if err := json.Unmarshal(tok, &u); err != nil {
				return 0, err
			}
			s = `"` + u + `"`
		}
		switch s {
		case `"NaN"`:
			return math.NaN(), nil
		case `"+Inf"`:
			return math.Inf(1), nil
		case `"-Inf"`:
			return math.Inf(-1), nil
		}
		return 0, fmt.Errorf("unknown float sentinel %s", s)
	}
	if string(tok) == "null" {
		return 0, nil
	}
	if !isNumber(tok) {
		return 0, fmt.Errorf("jsonf: cannot decode %q as a float", tok)
	}
	// ParseFloat accepts every JSON number; like encoding/json, a number
	// beyond float64's range is an error, not ±Inf.
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, fmt.Errorf("jsonf: number %s: %w", tok, err)
	}
	return v, nil
}

// isNumber reports whether tok is exactly one JSON number:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. ParseFloat alone would
// also take hex floats, underscores, "Inf" and a leading '+'.
func isNumber(tok []byte) bool {
	digits := func(i int) int {
		for i < len(tok) && '0' <= tok[i] && tok[i] <= '9' {
			i++
		}
		return i
	}
	i := 0
	if i < len(tok) && tok[i] == '-' {
		i++
	}
	j := digits(i)
	if j == i || (tok[i] == '0' && j > i+1) {
		return false
	}
	i = j
	if i < len(tok) && tok[i] == '.' {
		if j = digits(i + 1); j == i+1 {
			return false
		}
		i = j
	}
	if i < len(tok) && (tok[i] == 'e' || tok[i] == 'E') {
		i++
		if i < len(tok) && (tok[i] == '+' || tok[i] == '-') {
			i++
		}
		if j = digits(i); j == i {
			return false
		}
		i = j
	}
	return i == len(tok)
}

// AppendVec appends v's encoding to b and returns the extended buffer:
// null for a nil v, otherwise an array of F64 encodings. It is the one
// float-vector writer of the package: into a buffer the caller owns it
// allocates only to grow it.
func AppendVec(b []byte, v []float64) []byte {
	if v == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, v[i])
	}
	return append(b, ']')
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// trim drops JSON whitespace around a value (the decoder hands over none;
// a direct caller may).
func trim(b []byte) []byte {
	for len(b) > 0 && isSpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && isSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}
