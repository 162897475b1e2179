package record

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/metadata"
)

// TestVectorBoxesWhatItHolds: a typed vector gives back each cell in the
// value and Go type a record holds, NULLs as nil, as a Value of its type and
// under the key its boxed cell has; appending rows keeps type and NULLs, rows of another
// type box the vector, and Slice, Size and AppendRows read the vector as it
// is.
func TestVectorBoxesWhatItHolds(t *testing.T) {
	cases := []struct {
		typ   metadata.FieldType
		cells []any
	}{
		{metadata.TypeLong, []any{int64(1)<<53 + 1, nil, int64(-3)}},
		{metadata.TypeTimestamp, []any{int64(1_700_000_000_000), int64(0), nil}},
		{metadata.TypeDouble, []any{nil, 2.5, math.Copysign(0, -1)}},
		{metadata.TypeString, []any{"a", "", nil}},
		{metadata.TypeBool, []any{true, nil, false}},
		{metadata.TypeBytes, []any{[]byte("x"), nil, []byte{}}},
		{metadata.TypeInvalid, []any{int64(3), 3.0, nil}},
	}
	for _, c := range cases {
		var v Vector
		v.Reset(c.typ)
		for _, x := range c.cells {
			v.Append(x)
		}
		if v.Len() != len(c.cells) {
			t.Fatalf("%s: %d rows, want %d", c.typ, v.Len(), len(c.cells))
		}
		for r, x := range c.cells {
			if got := v.Box(r); !reflect.DeepEqual(got, x) || v.IsNull(r) != (x == nil) {
				t.Errorf("%s row %d: Box %#v (NULL %v), want %#v", c.typ, r, got, v.IsNull(r), x)
			}
			if got, want := keyOf(&v, r), keyOf(&Vector{Any: []any{x}}, 0); got != want {
				t.Errorf("%s row %d: key %+v, want the boxed cell's %+v", c.typ, r, got, want)
			}
			if !v.Boxed() && !reflect.DeepEqual(v.Value(r).Box(c.typ), x) {
				t.Errorf("%s row %d: Value boxes to %#v, want %#v", c.typ, r, v.Value(r).Box(c.typ), x)
			}
		}

		var out Vector
		out.AppendRows(&v, []int32{2, 0})
		out.AppendNulls(1)
		if out.Type != c.typ {
			t.Errorf("%s: appended rows are %s", c.typ, out.Type)
		}
		for r, x := range []any{c.cells[2], c.cells[0], nil} {
			if got := out.Box(r); !reflect.DeepEqual(got, x) {
				t.Errorf("%s: appended row %d = %#v, want %#v", c.typ, r, got, x)
			}
		}
		out.Slice(1, 3)
		if out.Len() != 2 || !reflect.DeepEqual(out.Box(0), c.cells[0]) || out.Box(1) != nil {
			t.Errorf("%s: sliced to %d rows, %#v %#v", c.typ, out.Len(), out.Box(0), out.Box(1))
		}
	}

	var mixed Vector
	ints := Vector{Type: metadata.TypeLong, Ints: []int64{7}}
	strs := Vector{Type: metadata.TypeString, Strs: []string{"7"}}
	mixed.AppendRows(&ints, []int32{0})
	mixed.AppendRows(&strs, []int32{0})
	if !mixed.Boxed() || !reflect.DeepEqual(mixed.Any, []any{int64(7), "7"}) {
		t.Errorf("rows of two types: %+v, want a boxed int64 and string", mixed)
	}

	b := Batch{Columns: []string{"n", "s"}, Cols: []Vector{
		{Type: metadata.TypeDouble, Floats: []float64{1, 0}, Null: []bool{false, true}},
		{Type: metadata.TypeString, Strs: []string{"ab", "c"}},
	}, Len: 2}
	if got := b.Size(); got != 8*2+2+16*2 {
		t.Errorf("Size = %d, want 8 per number, 16 per string header, 1 per NULL flag", got)
	}
	if rows := b.AppendRows(nil); !reflect.DeepEqual(rows, [][]any{{1.0, "ab"}, {nil, "c"}}) {
		t.Errorf("AppendRows = %#v", rows)
	}
}
