package objstore

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/metadata"
	"repro/internal/record"
)

// This file implements the archival pipeline of §4.4: raw logs land in the
// object store as row-oriented batches (the stand-in for Avro), and a
// compaction process merges them into column-oriented archive files (the
// stand-in for Parquet) that the batch/SQL layers read.
//
// Key layout:
//
//	rawlogs/<dataset>/<seq>      row batches, append order
//	archive/<dataset>/<part>    columnar parts produced by compaction

// RawLogWriter appends row batches for one dataset to the store. Batches are
// sequenced so compaction can consume them in arrival order. It is safe for
// concurrent use.
type RawLogWriter struct {
	store   Store
	dataset string
	codec   *record.Codec
	schema  *metadata.Schema // the codec's

	mu  sync.Mutex
	seq int64
}

// NewRawLogWriter creates a writer for dataset using the schema-bound codec.
func NewRawLogWriter(store Store, dataset string, codec *record.Codec) *RawLogWriter {
	return &RawLogWriter{store: store, dataset: dataset, codec: codec, schema: codec.Schema()}
}

// AppendRows writes n rows as one raw-log batch, row i being row(i), each
// bound to the codec's schema as a topic sink binds its rows
// (record.Binding).
func (w *RawLogWriter) AppendRows(n int, row func(i int) record.Row) error {
	var bound *metadata.Schema
	var bind *record.Binding
	return w.write(n, func(i int, cells []record.Value) error {
		r := row(i)
		if r.Schema != bound {
			bound, bind = r.Schema, record.Bind(r.Schema, w.schema)
		}
		return bind.Conform(r.Vals, cells)
	})
}

// Append is AppendRows for records, each conformed to the codec's schema
// (record.Conform).
func (w *RawLogWriter) Append(records []record.Record) error {
	return w.write(len(records), func(i int, cells []record.Value) error {
		return record.Conform(w.schema, records[i], cells)
	})
}

// write puts n rows as one raw-log object — the count, then each row's
// payload length-prefixed — once fill has conformed row i into cells.
func (w *RawLogWriter) write(n int, fill func(i int, cells []record.Value) error) error {
	if n == 0 {
		return nil
	}
	cells := make([]record.Value, len(w.schema.Fields))
	buf := binary.AppendUvarint(nil, uint64(n))
	var payload []byte
	for i := range n {
		if err := fill(i, cells); err != nil {
			return err
		}
		payload = w.codec.EncodeValues(payload[:0], cells)
		buf = binary.AppendUvarint(buf, uint64(len(payload)))
		buf = append(buf, payload...)
	}
	w.mu.Lock()
	seq := w.seq
	w.seq++
	w.mu.Unlock()
	return w.store.Put(rawLogKey(w.dataset, seq), buf)
}

func rawLogKey(dataset string, seq int64) string {
	return fmt.Sprintf("rawlogs/%s/%012d", dataset, seq)
}

// decodeRawBatch appends the rows of one raw-log object to cols, one typed
// column per schema field (record.Codec.DecodeValues), and returns their
// count. A string is copied out of the payload; a blob stays a view of data,
// the stored object Get lent, read only until EncodeColumnar copies it.
func decodeRawBatch(codec *record.Codec, data []byte, cols []record.Vector) (int, error) {
	count, n := binary.Uvarint(data)
	// A record is at least its length byte.
	if n <= 0 || count > uint64(len(data)-n) {
		return 0, fmt.Errorf("objstore: corrupt raw batch header")
	}
	data = data[n:]
	vals := make([]record.Value, len(cols))
	for i := uint64(0); i < count; i++ {
		payload, rest, ok := cutPrefixed(data)
		if !ok {
			return 0, fmt.Errorf("objstore: corrupt raw batch record %d", i)
		}
		if err := codec.DecodeValues(payload, vals); err != nil {
			return 0, err
		}
		for c, v := range vals {
			col := &cols[c]
			switch {
			case v.Null:
				col.AppendNulls(1)
			case col.Type == metadata.TypeDouble:
				col.Floats = append(col.Floats, v.F)
			case col.Type == metadata.TypeString:
				col.Strs = append(col.Strs, string(v.B))
			case col.Type == metadata.TypeBytes:
				col.Bytes = append(col.Bytes, v.B)
			default:
				col.Ints = append(col.Ints, v.I)
			}
		}
		data = rest
	}
	return int(count), nil
}

// Compactor merges raw-log batches into columnar archive parts. One
// Compact() call consumes all raw batches written since the previous call
// and produces at most one new part — mirroring the periodic merge job the
// paper describes.
type Compactor struct {
	store   Store
	dataset string
	codec   *record.Codec
	schema  *metadata.Schema // the codec's

	mu       sync.Mutex
	nextPart int64
	consumed map[string]bool
}

// NewCompactor creates a compactor for one dataset.
func NewCompactor(store Store, dataset string, codec *record.Codec) *Compactor {
	return &Compactor{store: store, dataset: dataset, codec: codec, schema: codec.Schema(), consumed: make(map[string]bool)}
}

// Compact reads unconsumed raw batches into typed columns, writes one
// columnar part from them, and deletes the consumed raw objects. It returns
// the number of rows compacted (0 when there is nothing new).
func (c *Compactor) Compact() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys, err := c.store.List("rawlogs/" + c.dataset + "/")
	if err != nil {
		return 0, err
	}
	cols := make([]record.Vector, len(c.schema.Fields))
	for i, f := range c.schema.Fields {
		cols[i].Reset(f.Type)
	}
	rows := 0
	var toDelete []string
	for _, k := range keys {
		if c.consumed[k] {
			continue
		}
		data, err := c.store.Get(k)
		if err != nil {
			return 0, err
		}
		n, err := decodeRawBatch(c.codec, data, cols)
		if err != nil {
			return 0, fmt.Errorf("objstore: compacting %s: %w", k, err)
		}
		rows += n
		toDelete = append(toDelete, k)
	}
	if rows == 0 {
		return 0, nil
	}
	part, err := EncodeColumnar(c.schema, cols)
	if err != nil {
		return 0, err
	}
	partKey := fmt.Sprintf("archive/%s/%06d", c.dataset, c.nextPart)
	if err := c.store.Put(partKey, part); err != nil {
		return 0, err
	}
	c.nextPart++
	for _, k := range toDelete {
		c.consumed[k] = true
		if err := c.store.Delete(k); err != nil {
			return 0, err
		}
	}
	return rows, nil
}

// ArchiveReader reads the columnar parts of a dataset — the batch-side
// source of Kappa+ backfill (§7) and the archival SQL connector.
type ArchiveReader struct {
	store   Store
	dataset string
	schema  *metadata.Schema
}

// NewArchiveReader creates a reader over dataset's archive parts.
func NewArchiveReader(store Store, dataset string, schema *metadata.Schema) *ArchiveReader {
	return &ArchiveReader{store: store, dataset: dataset, schema: schema.Clone()}
}

// Parts lists the archive part keys in part order.
func (a *ArchiveReader) Parts() ([]string, error) {
	return a.store.List("archive/" + a.dataset + "/")
}

// ReadColumns decodes the named columns of one archive part into cols and
// returns its row count; see DecodeColumns.
func (a *ArchiveReader) ReadColumns(key string, names []string, cols []record.Vector) (int, error) {
	return a.ReadCoded(key, names, cols, nil, nil)
}

// ReadCoded is ReadColumns that also reads the string columns named by
// codedNames as they are stored: coded[i] receives codedNames[i]'s
// dictionary and each row's code (Coded), so a caller that groups by them
// can work per dictionary entry rather than per row. A coded name must be a
// string field of the schema or absent from it; a column the part lacks, or
// the schema, reads as NULL codes.
func (a *ArchiveReader) ReadCoded(key string, names []string, cols []record.Vector, codedNames []string, coded []Coded) (int, error) {
	data, err := a.store.Get(key)
	if err != nil {
		return 0, err
	}
	return decodePart(a.schema, data, names, cols, codedNames, coded)
}

// Coded is a string column of a part as it is stored: its dictionary, in
// code order, and each row's code, -1 for NULL. The dictionary's strings
// are views of the part's bytes, which the store lends and never writes; a
// caller that keeps one past the part copies it (strings.Clone). Both
// slices are reused from part to part.
type Coded struct {
	Dict  []string
	Codes []int32
}

// decode parses one string column's stored form — its dictionary, then the
// code of each row the presence bitmap marks present — into c.
func (c *Coded) decode(name string, bitmap, col []byte, rows int) error {
	dictSize, n := binary.Uvarint(col)
	// An entry is at least its length byte: a dictionary cannot have more
	// entries than the column has bytes left, nor more than a code numbers.
	if n <= 0 || dictSize > uint64(len(col)-n) || dictSize > math.MaxInt32 {
		return fmt.Errorf("objstore: truncated dictionary for %q", name)
	}
	col = col[n:]
	c.Dict = slices.Grow(c.Dict[:0], int(dictSize))
	for range dictSize {
		s, rest, ok := cutPrefixed(col)
		if !ok {
			return fmt.Errorf("objstore: truncated dictionary entry for %q", name)
		}
		c.Dict = append(c.Dict, unsafe.String(unsafe.SliceData(s), len(s)))
		col = rest
	}
	c.Codes = slices.Grow(c.Codes[:0], rows)
	for i := 0; i < rows; i++ {
		if !present(bitmap, i) {
			c.Codes = append(c.Codes, -1)
			continue
		}
		code, n := binary.Uvarint(col)
		if n <= 0 || code >= dictSize {
			return fmt.Errorf("objstore: bad dictionary code for %q", name)
		}
		c.Codes = append(c.Codes, int32(code))
		col = col[n:]
	}
	return nil
}

// codedScratch is the string branch's working Coded when a column is read
// as values: its arrays are reused from column to column.
var codedScratch = sync.Pool{New: func() any { return new(Coded) }}

// EncodeColumnar serializes a part column-major from its columns — cols[c]
// holds schema field c, typed by it, the form DecodeColumns fills — with
// per-column dictionary encoding for strings and varint packing for longs:
// the compact long-term format standing in for Parquet. Each stored column
// is its name, its type (one byte), then a presence bitmap so nullable
// columns round-trip, then its values. The stored type lets a part written
// before a long → double widening decode under the widened schema.
func EncodeColumnar(schema *metadata.Schema, cols []record.Vector) ([]byte, error) {
	if len(cols) != len(schema.Fields) {
		return nil, fmt.Errorf("objstore: %d columns for %d schema fields", len(cols), len(schema.Fields))
	}
	rows := 0
	if len(cols) > 0 {
		rows = cols[0].Len()
	}
	buf := binary.AppendUvarint(nil, uint64(rows))
	buf = binary.AppendUvarint(buf, uint64(len(schema.Fields)))
	var col []byte
	for c, f := range schema.Fields {
		if cols[c].Type != f.Type || cols[c].Len() != rows {
			return nil, fmt.Errorf("objstore: column %q holds %d rows of %s, want %d of %s", f.Name, cols[c].Len(), cols[c].Type, rows, f.Type)
		}
		col = encodeColumn(col[:0], &cols[c], rows)
		buf = binary.AppendUvarint(buf, uint64(len(f.Name)))
		buf = append(buf, f.Name...)
		buf = append(buf, byte(f.Type))
		buf = binary.AppendUvarint(buf, uint64(len(col)))
		buf = append(buf, col...)
	}
	return buf, nil
}

// encodeColumn appends one column's stored form to buf: its presence
// bitmap, then each non-NULL row's value.
func encodeColumn(buf []byte, v *record.Vector, rows int) []byte {
	bitmapAt := len(buf)
	buf = append(buf, make([]byte, (rows+7)/8)...)
	for i := range rows {
		if !v.IsNull(i) {
			buf[bitmapAt+i/8] |= 1 << (i % 8)
		}
	}
	present := func(yield func(int) bool) {
		for i := range rows {
			if !v.IsNull(i) && !yield(i) {
				return
			}
		}
	}
	switch v.Type {
	case metadata.TypeDouble:
		for i := range present {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Floats[i]))
		}
	case metadata.TypeBool:
		for i := range present {
			b := byte(0)
			if v.Ints[i] != 0 {
				b = 1
			}
			buf = append(buf, b)
		}
	case metadata.TypeString:
		// Dictionary encode: sorted unique values, then per-row codes.
		dict := make(map[string]int)
		for i := range present {
			dict[v.Strs[i]] = 0
		}
		values := slices.Sorted(maps.Keys(dict))
		buf = binary.AppendUvarint(buf, uint64(len(values)))
		for code, s := range values {
			dict[s] = code
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
		for i := range present {
			buf = binary.AppendUvarint(buf, uint64(dict[v.Strs[i]]))
		}
	case metadata.TypeBytes:
		for i := range present {
			buf = binary.AppendUvarint(buf, uint64(len(v.Bytes[i])))
			buf = append(buf, v.Bytes[i]...)
		}
	default: // long, timestamp
		for i := range present {
			buf = binary.AppendVarint(buf, v.Ints[i])
		}
	}
	return buf
}

// cutPrefixed splits one uvarint-length-prefixed field off the front of data.
// The length is compared as a uint64 against the bytes that remain, so a
// corrupt length can neither wrap negative nor reach past the buffer.
func cutPrefixed(data []byte) (field, rest []byte, ok bool) {
	l, n := binary.Uvarint(data)
	if n <= 0 || l > uint64(len(data)-n) {
		return nil, nil, false
	}
	end := n + int(l)
	return data[n:end], data[end:], true
}

// DecodeColumns is the one parser of a columnar part: it decodes the named
// columns column by column into cols, typed by the schema — cols[c] holds
// names[c], one row per part row — and returns the row count. cols must be
// as long as names; the vectors are the caller's, and their backing arrays
// are reused. A stored column nobody asked for is stepped over by its length
// without parsing a value. A dictionary string is one string per dictionary
// entry, shared by its rows; bytes values are copies, never views of data. A
// schema column an older part lacks reads as NULL in every row, and so does a
// name the schema lacks, as an untyped column (record.Vector). A long column
// stored before its field widened to double decodes as doubles; any other
// stored type that is not the field's is an error naming both.
func DecodeColumns(schema *metadata.Schema, data []byte, names []string, cols []record.Vector) (int, error) {
	return decodePart(schema, data, names, cols, nil, nil)
}

// decodePart is DecodeColumns that reads the string columns named by
// codedNames into coded as well (ArchiveReader.ReadCoded).
func decodePart(schema *metadata.Schema, data []byte, names []string, cols []record.Vector, codedNames []string, coded []Coded) (int, error) {
	nRows, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, fmt.Errorf("objstore: corrupt columnar header")
	}
	data = data[n:]
	nCols, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, fmt.Errorf("objstore: corrupt columnar header")
	}
	data = data[n:]
	// Every stored column opens with a presence bitmap of one bit per row,
	// so a part holds at most eight rows per byte; a header claiming more is
	// rejected before anything is sized by it.
	if nRows > 8*uint64(len(data)) {
		return 0, fmt.Errorf("objstore: columnar header claims %d rows in %d bytes", nRows, len(data))
	}
	rows := int(nRows)
	for c, name := range names {
		f, _ := schema.Field(name) // TypeInvalid, an untyped column, when absent
		cols[c].Reset(f.Type)
	}
	for i, name := range codedNames {
		if f, ok := schema.Field(name); ok && f.Type != metadata.TypeString {
			return 0, fmt.Errorf("objstore: column %q is %s, not a coded string column", name, f.Type)
		}
		coded[i].Dict, coded[i].Codes = coded[i].Dict[:0], coded[i].Codes[:0]
	}
	for c := uint64(0); c < nCols; c++ {
		name, rest, ok := cutPrefixed(data)
		if !ok || len(rest) == 0 {
			return 0, fmt.Errorf("objstore: corrupt column name")
		}
		stored := metadata.FieldType(rest[0])
		col, rest, ok := cutPrefixed(rest[1:])
		if !ok {
			return 0, fmt.Errorf("objstore: corrupt column %q", name)
		}
		data = rest
		for i, want := range names {
			if want != string(name) {
				continue
			}
			f, ok := schema.Field(want)
			if !ok {
				continue // column dropped from schema; stays NULL
			}
			if err := decodeColumn(f, stored, col, rows, &cols[i], nil); err != nil {
				return 0, err
			}
		}
		for i, want := range codedNames {
			if want != string(name) {
				continue
			}
			if f, ok := schema.Field(want); ok {
				if err := decodeColumn(f, stored, col, rows, nil, &coded[i]); err != nil {
					return 0, err
				}
			}
		}
	}
	for c := range cols {
		if short := rows - cols[c].Len(); short > 0 {
			cols[c].AppendNulls(short)
		}
	}
	for i := range coded {
		for len(coded[i].Codes) < rows {
			coded[i].Codes = append(coded[i].Codes, -1)
		}
	}
	return rows, nil
}

// present reports row i's bit of a column's presence bitmap.
func present(bitmap []byte, i int) bool { return bitmap[i/8]&(1<<(i%8)) != 0 }

// decodeColumn decodes one column stored as type stored into out as field
// f, or, for a string column, into coded when it is set; rows the presence
// bitmap marks absent are NULL. Stored longs widen to a double field's
// doubles once decoded. A string column is always parsed as it is stored,
// dictionary and codes (Coded.decode); read as values, each dictionary
// entry is then copied out of the part once and shared by its rows.
func decodeColumn(f metadata.Field, stored metadata.FieldType, col []byte, rows int, out *record.Vector, coded *Coded) error {
	widen := stored == metadata.TypeLong && f.Type == metadata.TypeDouble
	if stored != f.Type && !widen {
		return fmt.Errorf("objstore: column %q is stored as %s, not %s", f.Name, stored, f.Type)
	}
	bitmapLen := (rows + 7) / 8
	if len(col) < bitmapLen {
		return fmt.Errorf("objstore: corrupt bitmap for column %q", f.Name)
	}
	bitmap := col[:bitmapLen]
	col = col[bitmapLen:]
	if coded != nil {
		return coded.decode(f.Name, bitmap, col, rows)
	}
	out.Reset(stored)
	out.Grow(rows)
	switch stored {
	case metadata.TypeLong, metadata.TypeTimestamp:
		for i := 0; i < rows; i++ {
			if !present(bitmap, i) {
				out.Ints = append(out.Ints, 0)
				out.SetNull(i)
				continue
			}
			v, n := binary.Varint(col)
			if n <= 0 {
				return fmt.Errorf("objstore: truncated long column %q", f.Name)
			}
			out.Ints = append(out.Ints, v)
			col = col[n:]
		}
	case metadata.TypeDouble:
		for i := 0; i < rows; i++ {
			if !present(bitmap, i) {
				out.Floats = append(out.Floats, 0)
				out.SetNull(i)
				continue
			}
			if len(col) < 8 {
				return fmt.Errorf("objstore: truncated double column %q", f.Name)
			}
			out.Floats = append(out.Floats, math.Float64frombits(binary.LittleEndian.Uint64(col)))
			col = col[8:]
		}
	case metadata.TypeBool:
		for i := 0; i < rows; i++ {
			if !present(bitmap, i) {
				out.Ints = append(out.Ints, 0)
				out.SetNull(i)
				continue
			}
			if len(col) < 1 {
				return fmt.Errorf("objstore: truncated bool column %q", f.Name)
			}
			var b int64
			if col[0] != 0 {
				b = 1
			}
			out.Ints = append(out.Ints, b)
			col = col[1:]
		}
	case metadata.TypeString:
		c := codedScratch.Get().(*Coded)
		err := c.decode(f.Name, bitmap, col, rows)
		if err == nil {
			for d, s := range c.Dict {
				c.Dict[d] = strings.Clone(s)
			}
			for i, code := range c.Codes {
				if code < 0 {
					out.Strs = append(out.Strs, "")
					out.SetNull(i)
					continue
				}
				out.Strs = append(out.Strs, c.Dict[code])
			}
		}
		clear(c.Dict[:cap(c.Dict)])
		codedScratch.Put(c)
		if err != nil {
			return err
		}
	case metadata.TypeBytes:
		for i := 0; i < rows; i++ {
			if !present(bitmap, i) {
				out.Bytes = append(out.Bytes, nil)
				out.SetNull(i)
				continue
			}
			b, rest, ok := cutPrefixed(col)
			if !ok {
				return fmt.Errorf("objstore: truncated bytes column %q", f.Name)
			}
			out.Bytes = append(out.Bytes, append([]byte{}, b...))
			col = rest
		}
	}
	if widen {
		out.Type = metadata.TypeDouble
		out.Floats = slices.Grow(out.Floats, rows)
		for _, x := range out.Ints {
			out.Floats = append(out.Floats, float64(x))
		}
		out.Ints = out.Ints[:0]
	}
	return nil
}
