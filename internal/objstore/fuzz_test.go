package objstore

import (
	"bytes"
	"math"
	"testing"
	"unsafe"

	"repro/internal/metadata"
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
// come from the deep store, which lends them. It must never panic, never
// write into the input and never size anything by a claimed count the input
// could not hold; every column must come back typed by its field, one cell
// per row, with no blob a view of the input; and whatever it does decode
// must survive encode → decode unchanged, NULLs included, with a second
// encode giving the first one's bytes. The coded read of every string
// column goes through the same parser: it must fail exactly when the typed
// decode does, and otherwise give each row the code of its value in the
// dictionary, -1 for NULL, with the dictionary a view of the input.
func FuzzDecodeColumnar(f *testing.F) {
	s := archiveSchema() // one field of every type, two of them nullable
	rows := orderRows(40)
	rows[3]["amount"] = math.NaN()
	rows[5] = record.Record{"id": int64(-1), "city": "", "amount": math.Inf(-1), "rush": false, "ts": int64(0), "payload": []byte{}}
	for _, seed := range [][]record.Record{nil, rows[:1], rows[:9], rows} {
		data := encodeRows(f, s, seed)
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	// A part written before amount widened from long to double.
	before, widened := widenedAmount()
	f.Add(encodeRows(f, before, widened))
	f.Fuzz(func(t *testing.T, data []byte) {
		was := bytes.Clone(data)
		n, cols, err := decodeAll(s, data)
		var strs, others []string // the coded read's string columns, and the rest as values
		for _, fd := range s.Fields {
			if fd.Type == metadata.TypeString {
				strs = append(strs, fd.Name)
			} else {
				others = append(others, fd.Name)
			}
		}
		coded := make([]Coded, len(strs))
		m, codedErr := decodePart(s, data, others, make([]record.Vector, len(others)), strs, coded)
		if !bytes.Equal(data, was) {
			t.Fatal("the decoder wrote into its input")
		}
		if (err == nil) != (codedErr == nil) {
			t.Fatalf("the typed decode returned %v, the coded read %v", err, codedErr)
		}
		if err != nil {
			return
		}
		if m != n {
			t.Fatalf("the coded read found %d rows, the typed decode %d", m, n)
		}
		for i, name := range strs {
			v, c := &cols[s.FieldIndex(name)], &coded[i]
			if len(c.Codes) != n {
				t.Fatalf("column %s: %d codes for %d rows", name, len(c.Codes), n)
			}
			for r, code := range c.Codes {
				if (code < 0) != v.IsNull(r) || code >= 0 && c.Dict[code] != v.Strs[r] {
					t.Fatalf("column %s row %d: code %d of %q, value %#v", name, r, code, c.Dict, v.Box(r))
				}
			}
			for _, d := range c.Dict {
				if len(d) > 0 && !aliases(unsafe.Slice(unsafe.StringData(d), len(d)), data) {
					t.Fatalf("column %s: dictionary entry %q is not a view of the input", name, d)
				}
			}
		}
		if n > 8*len(data) {
			t.Fatalf("%d rows from %d bytes", n, len(data))
		}
		for c, fd := range s.Fields {
			if cols[c].Type != fd.Type || cols[c].Len() != n {
				t.Fatalf("column %s: %d rows of type %s, want %d of %s", fd.Name, cols[c].Len(), cols[c].Type, n, fd.Type)
			}
			for i := range n {
				if b, ok := cols[c].Box(i).([]byte); ok && len(b) > 0 && aliases(b, data) {
					t.Fatalf("row %d column %s: a blob is a view of the input", i, fd.Name)
				}
			}
		}
		again, err := EncodeColumnar(s, cols)
		if err != nil {
			t.Fatalf("re-encoding decoded columns: %v", err)
		}
		m, back, err := decodeAll(s, again)
		if err != nil || m != n {
			t.Fatalf("decode(encode(columns)) = %d rows, %v; want %d", m, err, n)
		}
		for c, fd := range s.Fields {
			for i := range n {
				if !sameValue(back[c].Box(i), cols[c].Box(i)) || back[c].IsNull(i) != cols[c].IsNull(i) {
					t.Fatalf("row %d column %s: %#v, was %#v", i, fd.Name, back[c].Box(i), cols[c].Box(i))
				}
			}
		}
		if twice, err := EncodeColumnar(s, back); err != nil || !bytes.Equal(twice, again) {
			t.Fatalf("a second encode = %v, %q; want the first's %q", err, twice, again)
		}
	})
}
