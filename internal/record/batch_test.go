package record

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/metadata"
)

// vectorCases are one column of each vector type, NULLs included.
var vectorCases = []struct {
	typ   metadata.FieldType
	cells []any
}{
	{metadata.TypeLong, []any{int64(1)<<53 + 1, nil, int64(-3)}},
	{metadata.TypeTimestamp, []any{int64(1_700_000_000_000), int64(0), nil}},
	{metadata.TypeDouble, []any{nil, 2.5, math.Copysign(0, -1)}},
	{metadata.TypeString, []any{"a", "", nil}},
	{metadata.TypeBool, []any{true, nil, false}},
	{metadata.TypeBytes, []any{[]byte("x"), nil, []byte{}}},
}

// column is a vector of type t holding cells, appended one by one.
func column(t metadata.FieldType, cells ...any) *Vector {
	v := &Vector{}
	v.Reset(t)
	for _, x := range cells {
		v.Append(x)
	}
	return v
}

// TestVectorBoxesWhatItHolds: a typed vector gives back each cell in the
// value and Go type a record holds, NULLs as nil, as a Value of its type and
// under the key a one-cell vector of it has; appending rows keeps type and
// NULLs, and Slice, Size and AppendRows read the vector as it is.
func TestVectorBoxesWhatItHolds(t *testing.T) {
	for _, c := range vectorCases {
		v := column(c.typ, c.cells...)
		if v.Len() != len(c.cells) {
			t.Fatalf("%s: %d rows, want %d", c.typ, v.Len(), len(c.cells))
		}
		for r, x := range c.cells {
			if got := v.Box(r); !reflect.DeepEqual(got, x) || v.IsNull(r) != (x == nil) {
				t.Errorf("%s row %d: Box %#v (NULL %v), want %#v", c.typ, r, got, v.IsNull(r), x)
			}
			if got, want := keyOf(v, r), keyOf(column(c.typ, x), 0); got != want {
				t.Errorf("%s row %d: key %+v, want the one-cell vector's %+v", c.typ, r, got, want)
			}
			if !reflect.DeepEqual(v.Value(r).Box(c.typ), x) {
				t.Errorf("%s row %d: Value boxes to %#v, want %#v", c.typ, r, v.Value(r).Box(c.typ), x)
			}
		}

		var out Vector
		out.AppendRows(v, []int32{2, 0})
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

// checkColumn fails unless v reads as the column of type typ holding want,
// as Append builds it, through every reader: Len, IsNull, Box, Value,
// Compare, Key, Slice and Size.
func checkColumn(t *testing.T, name string, v *Vector, typ metadata.FieldType, want []any) {
	t.Helper()
	ref := column(typ, want...)
	if v.Type != typ || v.Len() != len(want) || v.Size() != ref.Size() {
		t.Fatalf("%s: %d rows of %s, size %d; want %d of %s, size %d", name, v.Len(), v.Type, v.Size(), len(want), typ, ref.Size())
	}
	for r, x := range want {
		if v.IsNull(r) != (x == nil) || !reflect.DeepEqual(v.Box(r), x) || !reflect.DeepEqual(v.Value(r).Box(typ), x) {
			t.Errorf("%s row %d: NULL %v, Box %#v, Value %+v; want %#v", name, r, v.IsNull(r), v.Box(r), v.Value(r), x)
		}
		if got, exp := keyOf(v, r), keyOf(ref, r); got != exp {
			t.Errorf("%s row %d: key %+v, want %+v", name, r, got, exp)
		}
		for s := range want {
			if got, exp := v.Compare(r, s), Compare(x, want[s]); got != exp {
				t.Errorf("%s: Compare(%d, %d) = %d, want %d", name, r, s, got, exp)
			}
		}
	}
	cut := *v
	cut.Slice(1, len(want))
	if cut.Len() != len(want)-1 || cut.IsNull(0) != (want[1] == nil) || !reflect.DeepEqual(cut.Box(0), want[1]) {
		t.Errorf("%s: sliced from row 1: %d rows, first %#v", name, cut.Len(), cut.Box(0))
	}
}

// TestUntypedNullsTakeTheirTypeFromRows: a vector is typed or untyped, and
// an untyped one is NULL in every row. Typed rows appended after an untyped
// NULL run give the vector their type, the run NULL zero values of it; an
// untyped run appended after typed rows is NULLs of the typed column. Either
// reads as the same column built cell by cell.
func TestUntypedNullsTakeTheirTypeFromRows(t *testing.T) {
	var nulls Vector
	nulls.AppendNulls(2)
	if nulls.Type != metadata.TypeInvalid || nulls.Len() != 2 || nulls.Size() != 2 {
		t.Fatalf("untyped run: %d rows of %s, size %d", nulls.Len(), nulls.Type, nulls.Size())
	}
	for r := range 2 {
		if !nulls.IsNull(r) || nulls.Box(r) != nil || !nulls.Value(r).Null || nulls.Compare(r, 1-r) != 0 {
			t.Errorf("untyped row %d: NULL %v, Box %#v, Value %+v, Compare %d", r, nulls.IsNull(r), nulls.Box(r), nulls.Value(r), nulls.Compare(r, 1-r))
		}
		if _, _, _, ok := nulls.Key(r); ok {
			t.Errorf("untyped row %d has a key", r)
		}
	}
	both := []int32{0, 1}
	for _, c := range vectorCases {
		src := column(c.typ, c.cells...)
		var before Vector
		before.AppendRows(&nulls, both)
		before.AppendRows(src, []int32{0, 1, 2})
		checkColumn(t, c.typ.String()+" after NULLs", &before, c.typ, append([]any{nil, nil}, c.cells...))

		var after Vector
		after.AppendRows(src, []int32{0, 1, 2})
		after.AppendRows(&nulls, both)
		after.AppendNulls(1)
		checkColumn(t, c.typ.String()+" before NULLs", &after, c.typ, append(append([]any(nil), c.cells...), nil, nil, nil))

		var cells Vector
		cells.Append(nil)
		for _, x := range c.cells[:2] {
			cells.Append(x)
		}
		if c.cells[0] != nil {
			checkColumn(t, c.typ.String()+" appended after NULL", &cells, TypeOf(c.cells[0]), append([]any{nil}, c.cells[:2]...))
		}
	}

	// Rows of another type are refused, not boxed.
	defer func() {
		if recover() == nil {
			t.Error("string rows appended to a long vector")
		}
	}()
	longs := column(metadata.TypeLong, int64(7))
	longs.AppendRows(column(metadata.TypeString, "7"), []int32{0})
}
