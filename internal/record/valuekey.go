package record

import (
	"fmt"
	"strconv"
)

// AppendValueKey appends v's canonical key encoding to key and returns the
// extended slice. It is the one spelling of "the same group value" for the
// whole stack — the OLAP layer keys merged partials by it and the federated
// engine orders its groups by it, so pushed-down and engine-side grouping
// agree: a NULL marker, numerics canonicalized through float64 (int64(3)
// from a sealed dictionary and float64(3) from a consuming row collide, as
// they must), anything else quoted, so an embedded separator cannot alias
// two tuples and a string never equals a number. Keys of a tuple are the
// concatenation of its values' keys.
func AppendValueKey(key []byte, v any) []byte {
	switch f, ok := ToFloat64(v); {
	case v == nil:
		return append(key, "~|"...)
	case ok:
		return append(strconv.AppendFloat(append(key, 'n'), f, 'g', -1, 64), '|')
	default:
		s, isStr := v.(string)
		if !isStr {
			s = fmt.Sprintf("%v", v)
		}
		return append(strconv.AppendQuote(append(key, 's'), s), '|')
	}
}
