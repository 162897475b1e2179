package record

import (
	"math"
	"slices"
	"testing"
)

// TestKeyIndexKeepsTheCanonicalClasses: the group and join tables of every
// engine look keys up in a KeyIndex, so two cells must find one key exactly
// when AppendValueKey spells them the same — whether a column holds the cell
// boxed or typed, alone or in a tuple — and a string's bytes must not let one
// tuple pass for another.
func TestKeyIndexKeepsTheCanonicalClasses(t *testing.T) {
	values := []any{nil, int64(3), float64(3), 3, true, int64(1), false, 0.0, math.Copysign(0, -1), math.NaN(), -math.NaN(),
		math.Inf(1), math.Inf(-1), 1e300, int64(1) << 60, "3", "", "~", "n3|", "<nil>", "a|b", `a"b`, []byte("3"), []string{"3"}}
	// Each value as a boxed cell and, where a vector type holds it, a typed one.
	cells := func(x any) []Vector {
		boxed := Vector{Any: []any{x}}
		typed := Vector{Type: TypeOf(x)}
		typed.Append(x)
		return []Vector{boxed, typed}
	}
	tail := Vector{Any: []any{"tail"}}
	for _, a := range values {
		for _, b := range values {
			canon := string(AppendValueKey(nil, a)) == string(AppendValueKey(nil, b))
			for _, va := range cells(a) {
				for _, vb := range cells(b) {
					for _, shape := range []struct {
						name   string
						ka, kb []Vector
					}{
						{"single", []Vector{va}, []Vector{vb}},
						{"tuple", []Vector{va, tail}, []Vector{vb, tail}},
					} {
						var x KeyIndex
						x.Add(shape.ka, 0)
						if _, found := x.Find(shape.kb, 0); found != canon {
							t.Errorf("%s %#v (%v) and %#v (%v): same canonical key %v, same index key %v",
								shape.name, a, va.Type, b, vb.Type, canon, found)
						}
					}
				}
			}
		}
	}
	// Tuples: a string's bytes cannot pass for the next value's key.
	for _, pair := range [][4]string{{"a\x02\x01b", "c", "a", "b\x02\x01c"}, {"a\x02b", "c", "a", "b\x02c"}} {
		var x KeyIndex
		x.Add([]Vector{{Any: []any{pair[0]}}, {Any: []any{pair[1]}}}, 0)
		if _, found := x.Find([]Vector{{Any: []any{pair[2]}}, {Any: []any{pair[3]}}}, 0); found {
			t.Errorf("tuple keys %q alias", pair)
		}
	}
}

// TestKeyIndexNumbersKeysInOrder: keys are numbered in order of first sight,
// a repeat finds its number, and Find never adds.
func TestKeyIndexNumbersKeysInOrder(t *testing.T) {
	col := Vector{Any: []any{"x", nil, int64(2), "x", 2.0, nil, "y"}}
	for _, key := range [][]Vector{{col}, {col, col}, {}} {
		var x KeyIndex
		x.Reserve(key, 4)
		var got []int
		for r := range col.Any {
			k, _ := x.Add(key, r)
			got = append(got, k)
		}
		want := []int{0, 1, 2, 0, 2, 1, 3}
		if len(key) == 0 {
			want = []int{0, 0, 0, 0, 0, 0, 0}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%d columns: numbers %v, want %v", len(key), got, want)
		}
	}
	var x KeyIndex
	if k, ok := x.Find([]Vector{col}, 0); ok || k != -1 {
		t.Errorf("Find on an empty index: %d, %v", k, ok)
	}
	if k, ok := x.Add([]Vector{col}, 0); ok || k != 0 {
		t.Errorf("Add after a Find that missed: %d, %v, want key 0, new", k, ok)
	}
}
