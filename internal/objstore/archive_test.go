package objstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/metadata"
	"repro/internal/record"
)

func archiveSchema() *metadata.Schema {
	return &metadata.Schema{
		Name:    "orders",
		Version: 1,
		Fields: []metadata.Field{
			{Name: "id", Type: metadata.TypeLong},
			{Name: "city", Type: metadata.TypeString, Dimension: true},
			{Name: "amount", Type: metadata.TypeDouble},
			{Name: "rush", Type: metadata.TypeBool},
			{Name: "payload", Type: metadata.TypeBytes, Nullable: true},
			{Name: "ts", Type: metadata.TypeTimestamp},
			{Name: "note", Type: metadata.TypeString, Nullable: true},
		},
		TimeField: "ts",
	}
}

func orderRows(n int) []record.Record {
	cities := []string{"sf", "nyc", "la", "chi"}
	rows := make([]record.Record, n)
	for i := range rows {
		rows[i] = record.Record{
			"id":     int64(i),
			"city":   cities[i%len(cities)],
			"amount": float64(i) * 1.5,
			"rush":   i%3 == 0,
			"ts":     int64(1700000000000 + i*1000),
		}
		if i%2 == 0 {
			rows[i]["note"] = fmt.Sprintf("note-%d", i%5)
		}
		if i%7 == 0 {
			rows[i]["payload"] = []byte{byte(i), byte(i + 1)}
		}
	}
	return rows
}

// columnsOf is rows as the columns of a part, one typed vector per schema
// field; a field a row lacks is NULL.
func columnsOf(s *metadata.Schema, rows []record.Record) []record.Vector {
	cols := make([]record.Vector, len(s.Fields))
	for c, f := range s.Fields {
		cols[c].Reset(f.Type)
		for _, r := range rows {
			cols[c].Append(r[f.Name])
		}
	}
	return cols
}

// encodeRows is EncodeColumnar of rows' columns.
func encodeRows(t testing.TB, s *metadata.Schema, rows []record.Record) []byte {
	t.Helper()
	data, err := EncodeColumnar(s, columnsOf(s, rows))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// decodeAll decodes every schema column of a part.
func decodeAll(s *metadata.Schema, data []byte) (int, []record.Vector, error) {
	cols := make([]record.Vector, len(s.Fields))
	n, err := DecodeColumns(s, data, s.FieldNames(), cols)
	return n, cols, err
}

func TestColumnarRoundTrip(t *testing.T) {
	s := archiveSchema()
	rows := orderRows(100)
	n, cols, err := decodeAll(s, encodeRows(t, s, rows))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(rows) {
		t.Fatalf("row count %d, want %d", n, len(rows))
	}
	for i, r := range rows {
		for c, f := range s.Fields {
			if got, want := cols[c].Box(i), r[f.Name]; !reflect.DeepEqual(got, want) {
				t.Fatalf("row %d column %s = %#v, want %#v", i, f.Name, got, want)
			}
		}
	}
}

func TestColumnarEmpty(t *testing.T) {
	s := archiveSchema()
	n, _, err := decodeAll(s, encodeRows(t, s, nil))
	if err != nil || n != 0 {
		t.Errorf("empty round trip = %d rows, %v", n, err)
	}
	if _, err := EncodeColumnar(s, columnsOf(s, nil)[1:]); err == nil {
		t.Error("a part with a column missing encoded")
	}
	cols := columnsOf(s, orderRows(3))
	cols[2].Reset(metadata.TypeLong)
	if _, err := EncodeColumnar(s, cols); err == nil {
		t.Error("a column of another type (and length) encoded")
	}
}

func TestColumnarDictionaryCompression(t *testing.T) {
	// Low-cardinality string columns should compress far better than the
	// row-oriented encoding: the dictionary stores each distinct value once.
	s := &metadata.Schema{
		Name:    "dict",
		Version: 1,
		Fields:  []metadata.Field{{Name: "city", Type: metadata.TypeString}},
	}
	rows := make([]record.Record, 10000)
	for i := range rows {
		rows[i] = record.Record{"city": fmt.Sprintf("city-%d", i%4)}
	}
	colData := encodeRows(t, s, rows)
	codec, _ := record.NewCodec(s)
	var rowBytes int
	for _, r := range rows {
		b, _ := codec.Encode(r)
		rowBytes += len(b)
	}
	if len(colData)*4 > rowBytes {
		t.Errorf("columnar %dB should be <25%% of row %dB for 4-value column", len(colData), rowBytes)
	}
}

func TestRawLogAndCompactor(t *testing.T) {
	store := NewMemStore()
	s := archiveSchema()
	codec, err := record.NewCodec(s)
	if err != nil {
		t.Fatal(err)
	}
	w := NewRawLogWriter(store, "orders", codec)
	rows := orderRows(50)
	if err := w.Append(rows[:20]); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(rows[20:35]); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(nil); err != nil {
		t.Fatal(err) // empty append is a no-op
	}

	raw, _ := store.List("rawlogs/orders/")
	if len(raw) != 2 {
		t.Fatalf("raw batches = %d, want 2", len(raw))
	}

	c := NewCompactor(store, "orders", codec)
	n, err := c.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if n != 35 {
		t.Errorf("compacted %d rows, want 35", n)
	}

	// Raw logs consumed and deleted.
	raw, _ = store.List("rawlogs/orders/")
	if len(raw) != 0 {
		t.Errorf("raw logs remain after compaction: %v", raw)
	}

	// Second compaction with nothing new is a no-op.
	if n, err := c.Compact(); err != nil || n != 0 {
		t.Errorf("idle compaction = %d, %v", n, err)
	}

	// New raw data produces a second part.
	if err := w.Append(rows[35:]); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Compact(); err != nil || n != 15 {
		t.Errorf("second compaction = %d, %v; want 15", n, err)
	}

	reader := NewArchiveReader(store, "orders", s)
	parts, err := reader.Parts()
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 {
		t.Fatalf("parts = %v, want 2", parts)
	}
	var ids []int64
	cols := make([]record.Vector, 1)
	for _, p := range parts {
		if _, err := reader.ReadColumns(p, []string{"id"}, cols); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, cols[0].Ints...)
	}
	if len(ids) != 50 {
		t.Fatalf("archive rows = %d, want 50", len(ids))
	}
	for i, id := range ids {
		if id != int64(i) {
			t.Fatalf("archive order broken at %d: id=%d", i, id)
		}
	}
}

// compactedPart is the part compacted from compactedRows' two raw batches,
// as written when compaction still decoded payloads into records, with one
// byte added after each column's name: its stored type (metadata.FieldType),
// which lets a part outlive a long → double widening of its schema. The
// format changed without a reader of the old one because no part outlives
// the process: the archive is the in-process MemStore.
const compactedPart = "\x06\a\x02id\x01\a?\x00\x02\x04\x06\b\n\x04city\x03\x13?\x04\x00\x02la\x03nyc\x02sf\x03\x02\x01\x00\x03\x02\x06amount\x021?\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x80\x00\x00\x00\x00\x00\x00\xf0\x7f\x00\x00\x00\x00\x00\x00\x12@\x00\x00\x00\x00\x00\x00\x18@\x00\x00\x00\x00\x00\x00\x1e@\x04rush\x04\a?\x01\x00\x00\x01\x00\x00\apayload\x05\x05\x11\x02\x00\x01\x00\x02ts\x06%?\x80\xa0\xab\xfe\xf9b\u042f\xab\xfe\xf9b\xa0\xbf\xab\xfe\xf9b\xf0\u03ab\xfe\xf9b\xc0\u07ab\xfe\xf9b\x90\xee\xab\xfe\xf9b\x04note\x03\x1a\x15\x03\x06note-0\x06note-2\x06note-4\x00\x01\x02"

// compactedRows are six orders with every type, NULLs, -0, +Inf, an empty
// string and an empty blob.
func compactedRows() []record.Record {
	rows := orderRows(6)
	rows[1]["amount"] = math.Copysign(0, -1)
	rows[2]["amount"] = math.Inf(1)
	rows[3]["city"] = ""
	rows[4]["payload"] = []byte{}
	return rows
}

func TestCompactedPartBytes(t *testing.T) {
	s := archiveSchema()
	codec, err := record.NewCodec(s)
	if err != nil {
		t.Fatal(err)
	}
	rows := compactedRows()
	store := NewMemStore()
	w := NewRawLogWriter(store, "orders", codec)
	if err := w.Append(rows[:4]); err != nil {
		t.Fatal(err)
	}
	// The second batch goes in as rows bound under a schema of their own
	// (another field order, every field nullable): the same bytes.
	bound, err := record.BindRows(nil, rows[4:])
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendRows(len(bound), func(i int) record.Row { return bound[i] }); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCompactor(store, "orders", codec).Compact(); err != nil {
		t.Fatal(err)
	}
	data, err := store.Get("archive/orders/000000")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != compactedPart {
		t.Errorf("compacted part =\n%+q\nwant\n%+q", data, compactedPart)
	}
	if enc := encodeRows(t, s, rows); string(enc) != compactedPart {
		t.Errorf("EncodeColumnar of the rows' columns =\n%+q\nwant\n%+q", enc, compactedPart)
	}

	// A row that does not conform is an error, and writes nothing.
	if err := w.Append([]record.Record{{"id": "x"}}); err == nil {
		t.Error("a non-conforming record was appended")
	}
	zero := record.Row{Schema: s, Vals: make([]record.Value, len(s.Fields))}
	if err := w.AppendRows(1, func(int) record.Row { return zero }); err != nil {
		t.Errorf("a row of the codec's own schema: %v", err)
	}
	if err := w.AppendRows(1, func(int) record.Row { return record.Row{Schema: &metadata.Schema{}} }); err == nil {
		t.Error("a row without the required fields was appended")
	}
	if raw, _ := store.List("rawlogs/orders/"); len(raw) != 1 {
		t.Errorf("raw batches = %v, want the one conforming row's", raw)
	}
}

func TestDecodeColumnarSkipsDroppedColumns(t *testing.T) {
	full := archiveSchema()
	rows := orderRows(10)
	data := encodeRows(t, full, rows)
	// Reader schema without the "note" column still decodes.
	reduced := full.Clone()
	var fields []metadata.Field
	for _, f := range reduced.Fields {
		if f.Name != "note" {
			fields = append(fields, f)
		}
	}
	reduced.Fields = fields
	cols := make([]record.Vector, 2)
	if _, err := DecodeColumns(reduced, data, []string{"note", "city"}, cols); err != nil {
		t.Fatal(err)
	}
	if cols[0].Box(0) != nil {
		t.Error("dropped column decoded anyway")
	}
	if cols[1].Box(0) != "sf" {
		t.Error("remaining columns should decode")
	}
}

func TestColumnarCorruptData(t *testing.T) {
	s := archiveSchema()
	if _, _, err := decodeAll(s, nil); err == nil {
		t.Error("empty input should error")
	}
	data := encodeRows(t, s, orderRows(5))
	if _, _, err := decodeAll(s, data[:len(data)/2]); err == nil {
		t.Error("truncated input should error")
	}
}

// widenedAmount is archiveSchema before its amount widened from long to
// double (metadata.CheckBackwardCompatible allows it), and rows of it whose
// amounts are nanosecond-sized longs, one of them NULL.
func widenedAmount() (*metadata.Schema, []record.Record) {
	before := archiveSchema()
	before.Fields[2].Type = metadata.TypeLong
	before.Fields[2].Nullable = true
	rows := orderRows(4)
	for i, r := range rows {
		r["amount"] = int64(1_700_000_000_000_000_000) + int64(i)*1_000_003
	}
	delete(rows[2], "amount")
	return before, rows
}

// TestWidenedColumnDecodesAsDouble: a part written while amount was a long
// reads, under the schema that widened it to double, as the doubles those
// longs are — not as their bits, and not as an error; a stored type that
// is neither the field's nor a long under a double is an error naming both.
func TestWidenedColumnDecodesAsDouble(t *testing.T) {
	before, rows := widenedAmount()
	data := encodeRows(t, before, rows)
	after := archiveSchema()
	after.Fields[2].Nullable = true
	if err := metadata.CheckBackwardCompatible(before, after); err != nil {
		t.Fatal(err)
	}
	n, cols, err := decodeAll(after, data)
	if err != nil || n != len(rows) {
		t.Fatalf("decode under the widened schema = %d, %v", n, err)
	}
	if cols[2].Type != metadata.TypeDouble {
		t.Fatalf("amount decoded as %s, want double", cols[2].Type)
	}
	for i, r := range rows {
		var want any
		if x, ok := r["amount"].(int64); ok {
			want = float64(x)
		}
		if got := cols[2].Box(i); got != want {
			t.Errorf("row %d amount = %#v, want %#v", i, got, want)
		}
	}

	narrowed := archiveSchema()
	narrowed.Fields[2].Type = metadata.TypeString
	if _, _, err := decodeAll(narrowed, data); err == nil || !strings.Contains(err.Error(), "stored as long, not string") {
		t.Errorf("a long read as a string: %v, want an error naming both types", err)
	}
}

func TestColumnarProperty(t *testing.T) {
	// Property: longs survive columnar round-trip in order.
	s := &metadata.Schema{
		Name:    "p",
		Version: 1,
		Fields:  []metadata.Field{{Name: "v", Type: metadata.TypeLong}},
	}
	f := func(vals []int64) bool {
		data, err := EncodeColumnar(s, []record.Vector{{Type: metadata.TypeLong, Ints: vals}})
		if err != nil {
			return false
		}
		n, got, err := decodeAll(s, data)
		return err == nil && n == len(vals) && slices.Equal(got[0].Ints, vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// corruptPart assembles a part header by hand: nRows, nCols, then one column
// entry per (name length, name, type byte, column bytes) the caller appends.
func corruptPart(nRows, nCols uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(nil, nRows), nCols)
}

// TestCorruptPartIsAnError: bytes from the deep store that claim more than
// they hold must come back as errors. Each of these crashed the reader
// before it compared lengths as uint64 and bounded what it sizes by the
// bytes that remain: a column-name length of 2^63+15 went negative through
// int() and sliced out of range, a dictionary of 2^62 entries was a
// makeslice panic, and 2^33 rows were allocated before a column was read.
func TestCorruptPartIsAnError(t *testing.T) {
	s := archiveSchema()
	hugeName := binary.AppendUvarint(corruptPart(1, 1), 1<<63+15)
	hugeDict := append(binary.AppendUvarint(corruptPart(1, 1), 4), "city"...)
	hugeDict = append(hugeDict, byte(metadata.TypeString))
	dictCol := binary.AppendUvarint([]byte{1}, 1<<62) // bitmap, then the dictionary size
	hugeDict = append(binary.AppendUvarint(hugeDict, uint64(len(dictCol))), dictCol...)
	hugeRows := append(binary.AppendUvarint(corruptPart(1<<33, 1), 2), "id"...)
	hugeCol := append(binary.AppendUvarint(corruptPart(1, 1), 2), "id"...)
	hugeCol = append(hugeCol, byte(metadata.TypeLong))
	hugeCol = binary.AppendUvarint(hugeCol, 1<<63+1)
	for name, data := range map[string][]byte{
		"column-name length 2^63+15": hugeName,
		"dictionary of 2^62 entries": hugeDict,
		"header of 2^33 rows":        hugeRows,
		"column length 2^63+1":       hugeCol,
	} {
		cols := make([]record.Vector, 2)
		if n, err := DecodeColumns(s, data, []string{"id", "city"}, cols); err == nil {
			t.Errorf("%s: DecodeColumns returned %d rows, want an error", name, n)
		}
	}

	codec, err := record.NewCodec(s)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"raw batch of 2^40 records":    binary.AppendUvarint(nil, 1<<40),
		"raw record of length 2^63+15": binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1<<63+15),
	} {
		if n, err := decodeRawBatch(codec, data, columnsOf(s, nil)); err == nil {
			t.Errorf("%s: decodeRawBatch returned %d records, want an error", name, n)
		}
	}
}

// TestDecodeColumnsProjection: only the named columns are decoded, in the
// order asked; a name the part or the schema lacks is NULL in every row; a
// column nobody asked for is stepped over unparsed — its values may be
// garbage — and the columns' backing arrays are reused.
func TestDecodeColumnsProjection(t *testing.T) {
	s := archiveSchema()
	rows := orderRows(50)
	data := encodeRows(t, s, rows)
	names := []string{"amount", "note", "nosuch", "city", "amount"}
	cols := make([]record.Vector, len(names))
	n, err := DecodeColumns(s, data, names, cols)
	if err != nil || n != len(rows) {
		t.Fatalf("DecodeColumns = %d, %v; want %d rows", n, err, len(rows))
	}
	for i, r := range rows {
		for c, name := range names {
			if got, want := cols[c].Box(i), r[name]; !reflect.DeepEqual(got, want) {
				t.Fatalf("row %d column %s = %#v, want %#v", i, name, got, want)
			}
		}
	}

	// An older part without "note", read under the full schema.
	older := s.Clone()
	older.Fields = older.Fields[:len(older.Fields)-1]
	oldData := encodeRows(t, older, rows[:7])
	backing := &cols[1].Strs[0]
	if n, err = DecodeColumns(s, oldData, names, cols); err != nil || n != 7 {
		t.Fatalf("older part: %d, %v", n, err)
	}
	if &cols[1].Strs[0] != backing {
		t.Error("a column's backing array was not reused")
	}
	for i := 0; i < n; i++ {
		if cols[1].Box(i) != nil || cols[3].Box(i) != rows[i]["city"] {
			t.Fatalf("older part row %d: note %#v city %#v", i, cols[1].Box(i), cols[3].Box(i))
		}
	}

	// Overwrite the values of "city" (after its one-byte-per-8-rows bitmap)
	// with dictionary garbage: a scan that does not ask for it never notices.
	at := bytes.Index(data, []byte("\x04city")) + 5
	_, w := binary.Uvarint(data[at:])
	garbled := append([]byte(nil), data...)
	for i := at + w + (len(rows)+7)/8; i < at+w+(len(rows)+7)/8+4; i++ {
		garbled[i] = 0xff
	}
	if _, err := DecodeColumns(s, garbled, []string{"city"}, make([]record.Vector, 1)); err == nil {
		t.Fatal("the garbled column decoded; the test corrupts the wrong bytes")
	}
	if n, err := DecodeColumns(s, garbled, []string{"id", "amount"}, make([]record.Vector, 2)); err != nil || n != len(rows) {
		t.Errorf("scan of other columns over a garbled one = %d, %v; want it skipped", n, err)
	}
}

// TestDecodeColumnsAllocatesPerDictionaryEntry: decoding a string column
// allocates one string per dictionary entry, whatever the row count; its
// rows share them, and no row is assembled anywhere.
func TestDecodeColumnsAllocatesPerDictionaryEntry(t *testing.T) {
	s := &metadata.Schema{Name: "d", Version: 1, Fields: []metadata.Field{
		{Name: "city", Type: metadata.TypeString},
		{Name: "order_id", Type: metadata.TypeString},
	}}
	allocs := func(n int) float64 {
		rows := make([]record.Record, n)
		for i := range rows {
			rows[i] = record.Record{"city": fmt.Sprintf("city_%02d", i%16), "order_id": fmt.Sprintf("o%07d", i)}
		}
		data := encodeRows(t, s, rows)
		names, cols := []string{"city"}, make([]record.Vector, 1)
		return testing.AllocsPerRun(10, func() {
			if got, err := DecodeColumns(s, data, names, cols); err != nil || got != n {
				t.Fatalf("DecodeColumns = %d, %v", got, err)
			}
		})
	}
	small, large := allocs(1500), allocs(15000)
	if small != large || large > 40 {
		t.Errorf("decoding a 16-value column allocates %v times for 1 500 rows and %v for 15 000; want the same, about two per dictionary entry", small, large)
	}
}
