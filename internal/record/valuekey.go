package record

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/metadata"
)

// AppendValueKey appends v's canonical key encoding to key and returns the
// extended slice. It is the one spelling of "the same group value" for the
// whole stack — the OLAP layer keys merged partials by it and the federated
// engine orders its groups by it, so pushed-down and engine-side grouping
// agree: a NULL marker, numerics canonicalized through float64 (int64(3)
// from a sealed dictionary and float64(3) from a consuming row collide, as
// they must; -0 and 0 are one number, as Compare has them), anything else
// quoted, so an embedded separator cannot alias two tuples and a string never
// equals a number. Keys of a tuple are the concatenation of its values' keys.
func AppendValueKey(key []byte, v any) []byte {
	switch f, ok := ToFloat64(v); {
	case v == nil:
		return append(key, "~|"...)
	case ok:
		return appendNumberKey(key, f)
	default:
		s, isStr := v.(string)
		if !isStr {
			s = fmt.Sprintf("%v", v)
		}
		return appendTextKey(key, s)
	}
}

// AppendKey appends row r's AppendValueKey, read from the typed vector
// without boxing the cell.
func (v *Vector) AppendKey(key []byte, r int) []byte {
	switch {
	case v.Type == metadata.TypeInvalid || v.Type == metadata.TypeBytes:
		return AppendValueKey(key, v.Box(r))
	case v.IsNull(r):
		return append(key, "~|"...)
	case v.Type == metadata.TypeString:
		return appendTextKey(key, v.Strs[r])
	case v.Type == metadata.TypeDouble:
		return appendNumberKey(key, v.Floats[r])
	}
	return appendNumberKey(key, float64(v.Ints[r]))
}

// Key classifies row r by AppendValueKey's classes without formatting it: a
// number and its CanonBits, or a text — a string as the vector holds it, any
// other non-number its %v form. ok is false for NULL. Hash tables keyed by
// these classes group and join exactly as the canonical key would.
func (v *Vector) Key(r int) (num bool, bits uint64, text string, ok bool) {
	switch {
	case v.IsNull(r):
		return false, 0, "", false
	case v.Type == metadata.TypeString:
		return false, 0, v.Strs[r], true
	case v.Type == metadata.TypeDouble:
		return true, CanonBits(v.Floats[r]), "", true
	case v.Type != metadata.TypeInvalid && v.Type != metadata.TypeBytes:
		return true, CanonBits(float64(v.Ints[r])), "", true
	}
	x := v.Box(r)
	if f, isNum := ToFloat64(x); isNum {
		return true, CanonBits(f), "", true
	}
	s, isStr := x.(string)
	if !isStr {
		s = fmt.Sprintf("%v", x)
	}
	return false, 0, s, true
}

// CanonBits is a number's hash key: its float64 bits, with every NaN as one
// and -0 as 0, so two numbers get the same bits exactly when AppendValueKey
// spells them the same. It is the one place that canonicalization is decided.
func CanonBits(f float64) uint64 {
	switch {
	case f != f:
		f = math.NaN()
	case f == 0:
		f = 0
	}
	return math.Float64bits(f)
}

func appendNumberKey(key []byte, f float64) []byte {
	if f == 0 {
		f = 0 // -0
	}
	return append(strconv.AppendFloat(append(key, 'n'), f, 'g', -1, 64), '|')
}

func appendTextKey(key []byte, s string) []byte {
	return append(strconv.AppendQuote(append(key, 's'), s), '|')
}
