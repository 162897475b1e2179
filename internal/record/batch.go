package record

import (
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/metadata"
)

// Batch is one column-major batch of rows: Cols[c] holds the values of
// Columns[c], Len rows of them. The OLAP layer's scans stream it and
// federated connectors hand it over, so a batch reaches the SQL engine as the
// segment kernels produced it, typed. Producers recycle the backing arrays: a
// batch is valid only until its iterator's following Next or Close call.
type Batch struct {
	Columns []string
	Cols    []Vector
	Len     int
}

// Reset shapes the batch for the given columns with no rows, keeping the
// vectors' backing arrays; each vector is retyped by whoever fills it.
func (b *Batch) Reset(cols []string) {
	b.Columns = cols
	if len(b.Cols) != len(cols) {
		b.Cols = make([]Vector, len(cols))
	}
	b.Len = 0
}

// Slice keeps rows [from, to) only.
func (b *Batch) Slice(from, to int) {
	for c := range b.Cols {
		b.Cols[c].Slice(from, to)
	}
	b.Len = to - from
}

// AppendRows appends the batch's rows to dst, boxed as Box has them: one
// backing array of cells for the whole batch, not one per row.
func (b *Batch) AppendRows(dst [][]any) [][]any {
	w := len(b.Cols)
	cells := make([]any, b.Len*w)
	for c := range b.Cols {
		v := &b.Cols[c]
		for r := 0; r < b.Len; r++ {
			cells[r*w+c] = v.Box(r)
		}
	}
	for r := 0; r < b.Len; r++ {
		dst = append(dst, cells[r*w:(r+1)*w:(r+1)*w])
	}
	return dst
}

// Size is the batch's resident size by Vector.Size, O(columns).
func (b *Batch) Size() int64 {
	var n int64
	for c := range b.Cols {
		n += b.Cols[c].Size()
	}
	return n
}

// Vector is one column of a Batch. Type says which slice holds the values:
// Ints for long, timestamp and bool (0 or 1), Floats for double, Strs for
// string, Bytes for bytes; row r's value is that slice's element r. Null[r]
// reports row r NULL — its element is then the zero value — and rows past
// the end of Null are not NULL, so a column without NULLs leaves it empty.
// A column with no type (TypeInvalid) is untyped: every row is NULL, and it
// holds Null alone, one true per row — a name no source has. It takes the
// type of the first typed rows AppendRows or Append adds to it.
type Vector struct {
	Type   metadata.FieldType
	Ints   []int64
	Floats []float64
	Strs   []string
	Bytes  [][]byte
	Null   []bool
}

// Reset empties the vector as a column of type t, keeping its backing
// arrays; TypeInvalid makes it untyped.
func (v *Vector) Reset(t metadata.FieldType) {
	*v = Vector{Type: t, Ints: v.Ints[:0], Floats: v.Floats[:0], Strs: v.Strs[:0],
		Bytes: v.Bytes[:0], Null: v.Null[:0]}
}

// Grow makes room for n more rows without reallocating.
func (v *Vector) Grow(n int) {
	switch v.Type {
	case metadata.TypeInvalid:
		v.Null = slices.Grow(v.Null, n)
	case metadata.TypeDouble:
		v.Floats = slices.Grow(v.Floats, n)
	case metadata.TypeString:
		v.Strs = slices.Grow(v.Strs, n)
	case metadata.TypeBytes:
		v.Bytes = slices.Grow(v.Bytes, n)
	default:
		v.Ints = slices.Grow(v.Ints, n)
	}
}

// Len is the number of rows the vector holds.
func (v *Vector) Len() int {
	switch v.Type {
	case metadata.TypeInvalid:
		return len(v.Null)
	case metadata.TypeDouble:
		return len(v.Floats)
	case metadata.TypeString:
		return len(v.Strs)
	case metadata.TypeBytes:
		return len(v.Bytes)
	}
	return len(v.Ints)
}

// IsNull reports row r NULL.
func (v *Vector) IsNull(r int) bool { return r < len(v.Null) && v.Null[r] }

// SetNull marks row r NULL; its value slot must hold the zero value.
func (v *Vector) SetNull(r int) {
	for len(v.Null) <= r {
		v.Null = append(v.Null, false)
	}
	v.Null[r] = true
}

// Box returns row r as a record holds it: nil for NULL, else an int64, a
// float64, a string, a bool or a []byte by the column's type. A []byte is the
// vector's own slice, not a copy.
func (v *Vector) Box(r int) any {
	if v.IsNull(r) {
		return nil
	}
	switch v.Type {
	case metadata.TypeDouble:
		return v.Floats[r]
	case metadata.TypeString:
		return v.Strs[r]
	case metadata.TypeBool:
		return v.Ints[r] != 0
	case metadata.TypeBytes:
		return v.Bytes[r]
	}
	return v.Ints[r]
}

// Value returns row r as a cell of the column's type; a string's B aliases
// the string's bytes, which must not be written.
func (v *Vector) Value(r int) Value {
	if v.IsNull(r) {
		return Value{Null: true}
	}
	switch v.Type {
	case metadata.TypeDouble:
		return Value{F: v.Floats[r]}
	case metadata.TypeString:
		return Value{B: unsafe.Slice(unsafe.StringData(v.Strs[r]), len(v.Strs[r]))}
	case metadata.TypeBytes:
		return Value{B: v.Bytes[r]}
	}
	return Value{I: v.Ints[r]}
}

// Size is the vector's resident size: 8 bytes per number, a 16-byte header
// per string (its bytes are shared with the dictionary or part it was read
// from), a 24-byte header per blob and one per NULL flag. It reads lengths
// only, never a cell.
func (v *Vector) Size() int64 {
	return int64(8*(len(v.Ints)+len(v.Floats)) + 16*len(v.Strs) + 24*len(v.Bytes) + len(v.Null))
}

// AppendNulls appends n NULL rows.
func (v *Vector) AppendNulls(n int) {
	at := v.Len()
	v.extend(n)
	for r := at; r < at+n; r++ {
		v.SetNull(r)
	}
}

// extend appends n zero values to the slice the vector's type holds its
// values in; an untyped vector has none.
func (v *Vector) extend(n int) {
	switch v.Type {
	case metadata.TypeInvalid:
	case metadata.TypeDouble:
		v.Floats = grow(v.Floats, n)
	case metadata.TypeString:
		v.Strs = grow(v.Strs, n)
	case metadata.TypeBytes:
		v.Bytes = grow(v.Bytes, n)
	default:
		v.Ints = grow(v.Ints, n)
	}
}

// grow extends s by n zero values.
func grow[T any](s []T, n int) []T {
	s = slices.Grow(s, n)[:len(s)+n]
	clear(s[len(s)-n:])
	return s
}

// take gives the vector type t for rows of that type about to be appended:
// an untyped vector's NULL rows become NULL zero values of t, and an empty
// vector is retyped. A typed vector takes rows of its own type only.
func (v *Vector) take(t metadata.FieldType) {
	switch n := v.Len(); {
	case v.Type == t:
	case v.Type == metadata.TypeInvalid || n == 0:
		nulls := v.Null
		v.Reset(t)
		v.Null = nulls
		v.extend(n)
	default:
		panic(fmt.Sprintf("record: %s rows appended to a %s vector", t, v.Type))
	}
}

// Append appends one cell in the form Box returns: nil is NULL, an untyped
// vector takes the type of the first value, and a typed column takes values
// of its own type only.
func (v *Vector) Append(x any) {
	switch {
	case x == nil:
		v.AppendNulls(1)
		return
	case v.Type == metadata.TypeInvalid:
		v.take(TypeOf(x))
	}
	switch v.Type {
	case metadata.TypeDouble:
		v.Floats = append(v.Floats, x.(float64))
	case metadata.TypeString:
		v.Strs = append(v.Strs, x.(string))
	case metadata.TypeBytes:
		v.Bytes = append(v.Bytes, x.([]byte))
	case metadata.TypeBool:
		var b int64
		if x.(bool) {
			b = 1
		}
		v.Ints = append(v.Ints, b)
	default:
		v.Ints = append(v.Ints, x.(int64))
	}
}

// TypeOf is the type of the vector that holds x as it is: TypeLong for an
// int64, TypeDouble, TypeString, TypeBool and TypeBytes for the others a
// record holds, TypeInvalid for nil and anything else.
func TypeOf(x any) metadata.FieldType {
	switch x.(type) {
	case int64:
		return metadata.TypeLong
	case float64:
		return metadata.TypeDouble
	case string:
		return metadata.TypeString
	case bool:
		return metadata.TypeBool
	case []byte:
		return metadata.TypeBytes
	}
	return metadata.TypeInvalid
}

// AppendRows appends rows of src, in order: an untyped src's as NULLs, typed
// rows after an untyped or empty vector takes src's type (take). The type
// switch is outside the row loop.
func (v *Vector) AppendRows(src *Vector, rows []int32) {
	if src.Type == metadata.TypeInvalid {
		v.AppendNulls(len(rows))
		return
	}
	v.take(src.Type)
	n := v.Len()
	switch v.Type {
	case metadata.TypeDouble:
		v.Floats = gather(v.Floats, src.Floats, rows)
	case metadata.TypeString:
		v.Strs = gather(v.Strs, src.Strs, rows)
	case metadata.TypeBytes:
		v.Bytes = gather(v.Bytes, src.Bytes, rows)
	default:
		v.Ints = gather(v.Ints, src.Ints, rows)
	}
	if len(src.Null) > 0 {
		for j, r := range rows {
			if int(r) < len(src.Null) && src.Null[r] {
				v.SetNull(n + j)
			}
		}
	}
}

func gather[T any](dst, src []T, rows []int32) []T {
	dst = slices.Grow(dst, len(rows))
	for _, r := range rows {
		dst = append(dst, src[r])
	}
	return dst
}

// Slice keeps rows [from, to) only.
func (v *Vector) Slice(from, to int) {
	switch v.Type {
	case metadata.TypeInvalid: // Null alone
	case metadata.TypeDouble:
		v.Floats = v.Floats[from:to]
	case metadata.TypeString:
		v.Strs = v.Strs[from:to]
	case metadata.TypeBytes:
		v.Bytes = v.Bytes[from:to]
	default:
		v.Ints = v.Ints[from:to]
	}
	v.Null = v.Null[min(from, len(v.Null)):min(to, len(v.Null))]
}
