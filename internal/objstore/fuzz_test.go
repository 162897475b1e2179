package objstore

import (
	"bytes"
	"math"
	"testing"
	"unsafe"

	"repro/internal/record"
)

// sameValue is equality of two decoded cells: doubles by bits (a NaN equals
// itself), blobs by content, everything else by ==.
func sameValue(a, b any) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case []byte:
		y, ok := b.([]byte)
		return ok && bytes.Equal(x, y)
	default:
		return a == b
	}
}

// aliases reports b's bytes inside data's.
func aliases(b, data []byte) bool {
	if len(data) == 0 {
		return false
	}
	lo, hi := uintptr(unsafe.Pointer(&data[0])), uintptr(unsafe.Pointer(&data[len(data)-1]))
	p := uintptr(unsafe.Pointer(&b[0]))
	return p >= lo && p <= hi
}

// FuzzDecodeColumnar feeds the archive part decoder arbitrary bytes — they
// come from the deep store. It must never panic and never size anything by a
// claimed count the input could not hold; the typed columns must box to the
// row form's values and Go types, NULLs included, with no blob a view of the
// input; and whatever it does decode must survive encode → decode unchanged,
// in the column form and the row form.
func FuzzDecodeColumnar(f *testing.F) {
	s := archiveSchema() // one field of every type, two of them nullable
	rows := orderRows(40)
	rows[3]["amount"] = math.NaN()
	rows[5] = record.Record{"id": int64(-1), "city": "", "amount": math.Inf(-1), "rush": false, "ts": int64(0), "payload": []byte{}}
	for _, seed := range [][]record.Record{nil, rows[:1], rows[:9], rows} {
		data, err := EncodeColumnar(s, seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	names := s.FieldNames()
	f.Fuzz(func(t *testing.T, data []byte) {
		cols := make([]record.Vector, len(names))
		n, err := DecodeColumns(s, data, names, cols)
		decoded, rowErr := DecodeColumnar(s, data)
		if (err == nil) != (rowErr == nil) {
			t.Fatalf("DecodeColumns error %v, DecodeColumnar error %v", err, rowErr)
		}
		if err != nil {
			return
		}
		if n > 8*len(data) || len(decoded) != n {
			t.Fatalf("%d rows in columns, %d as records, from %d bytes", n, len(decoded), len(data))
		}
		for c, name := range names {
			if cols[c].Type != s.Fields[c].Type || cols[c].Len() != n {
				t.Fatalf("column %s: %d rows of type %s, want %d of %s", name, cols[c].Len(), cols[c].Type, n, s.Fields[c].Type)
			}
			for i, r := range decoded {
				typed := cols[c].Box(i)
				if !sameValue(typed, r[name]) || cols[c].IsNull(i) != (r[name] == nil) {
					t.Fatalf("row %d column %s: typed %#v (NULL %v), boxed %#v", i, name, typed, cols[c].IsNull(i), r[name])
				}
				if b, ok := typed.([]byte); ok && len(b) > 0 && aliases(b, data) {
					t.Fatalf("row %d column %s: a blob is a view of the input", i, name)
				}
			}
		}
		again, err := EncodeColumnar(s, decoded)
		if err != nil {
			t.Fatalf("re-encoding decoded rows: %v", err)
		}
		m, err := DecodeColumns(s, again, names, cols)
		if err != nil || m != n {
			t.Fatalf("decode(encode(rows)) = %d rows, %v; want %d", m, err, n)
		}
		back, err := DecodeColumnar(s, again)
		if err != nil || len(back) != n {
			t.Fatalf("DecodeColumnar(encode(rows)) = %d rows, %v; want %d", len(back), err, n)
		}
		for i, r := range decoded {
			if len(back[i]) != len(r) {
				t.Fatalf("row %d: %v, was %v", i, back[i], r)
			}
			for c, name := range names {
				if !sameValue(cols[c].Box(i), r[name]) || !sameValue(back[i][name], r[name]) {
					t.Fatalf("row %d column %s: columns %#v, records %#v, was %#v", i, name, cols[c].Box(i), back[i][name], r[name])
				}
			}
		}
	})
}
