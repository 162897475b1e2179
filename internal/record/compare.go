package record

import (
	"fmt"
	"strings"

	"repro/internal/metadata"
)

// This file is the one shared value-comparison helper for the whole stack.
// The OLAP result sorter, the reference predicate evaluator
// (sqlparse.Predicate.Matches, which the compiled filter both SQL engines
// run is held to) and the federated engine's ORDER BY all need the same
// dynamic-value ordering; keeping a single implementation here guarantees a
// pushed-down query and its engine-side fallback order rows identically.

// ToFloat64 reports v as a float64 when it is one of the canonical numeric
// representations a Record may hold: float64, int64, int, or bool (true=1).
// Everything else (strings, bytes, nil) reports false.
func ToFloat64(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int64:
		return float64(x), true
	case int:
		return float64(x), true
	case bool:
		if x {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

// Compare orders two dynamically-typed values: nils sort first, values that
// both coerce to numbers compare numerically (so int64(3) from a sealed
// dictionary equals float64(3) from a consuming row), and any other pair
// compares as formatted strings. Returns -1, 0 or 1.
func Compare(a, b any) int {
	if a == nil || b == nil {
		switch {
		case a == nil && b == nil:
			return 0
		case a == nil:
			return -1
		default:
			return 1
		}
	}
	fa, aok := ToFloat64(a)
	fb, bok := ToFloat64(b)
	if aok && bok {
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	}
	// %v of a string is the string: two of them compare without formatting.
	if sa, ok := a.(string); ok {
		if sb, ok := b.(string); ok {
			return strings.Compare(sa, sb)
		}
	}
	return strings.Compare(fmt.Sprintf("%v", a), fmt.Sprintf("%v", b))
}

// Compare is Compare of rows a and b of the vector, read typed: numbers as
// float64, strings as strings; NULL and blobs go through Box.
func (v *Vector) Compare(a, b int) int {
	if v.Type == metadata.TypeBytes || v.IsNull(a) || v.IsNull(b) {
		return Compare(v.Box(a), v.Box(b))
	}
	switch v.Type {
	case metadata.TypeString:
		return strings.Compare(v.Strs[a], v.Strs[b])
	case metadata.TypeDouble:
		return compareNums(v.Floats[a], v.Floats[b])
	}
	return compareNums(float64(v.Ints[a]), float64(v.Ints[b]))
}

// compareNums orders two numbers as Compare does: a NaN is equal to
// everything.
func compareNums(x, y float64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}
