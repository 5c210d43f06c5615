// Package jsonenc appends floats and strings spelled byte for byte as
// encoding/json spells them, without reflection, for the hand-written
// encoders of trace events and workload traces.
package jsonenc

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// AppendFloat spells f as encoding/json does.
func AppendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// CheckFinite fails as encoding/json fails on a NaN or infinite float.
func CheckFinite(f float64) error {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	return nil
}

// plain marks the bytes encoding/json writes as themselves.
var plain = func() (plain [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		plain[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return plain
}()

// Plain reports whether encoding/json writes c inside a string as c
// itself. A quoted run of plain bytes therefore also decodes to itself.
func Plain(c byte) bool { return plain[c] }

// AppendString quotes s as encoding/json does, HTML escaping included.
// Names are plain ASCII in practice; anything else takes encoding/json's
// own path.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
