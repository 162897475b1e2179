package objstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"

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

	mu  sync.Mutex
	seq int64
}

// NewRawLogWriter creates a writer for dataset using the schema-bound codec.
func NewRawLogWriter(store Store, dataset string, codec *record.Codec) *RawLogWriter {
	return &RawLogWriter{store: store, dataset: dataset, codec: codec}
}

// Append encodes the records as one raw-log batch object.
func (w *RawLogWriter) Append(records []record.Record) error {
	if len(records) == 0 {
		return nil
	}
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(records)))
	for _, r := range records {
		payload, err := w.codec.Encode(r)
		if err != nil {
			return err
		}
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

// decodeRawBatch parses one raw-log object back into records.
func decodeRawBatch(codec *record.Codec, data []byte) ([]record.Record, error) {
	count, n := binary.Uvarint(data)
	// A record is at least its length byte.
	if n <= 0 || count > uint64(len(data)-n) {
		return nil, fmt.Errorf("objstore: corrupt raw batch header")
	}
	data = data[n:]
	out := make([]record.Record, 0, count)
	for i := uint64(0); i < count; i++ {
		payload, rest, ok := cutPrefixed(data)
		if !ok {
			return nil, fmt.Errorf("objstore: corrupt raw batch record %d", i)
		}
		r, err := codec.Decode(payload)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		data = rest
	}
	return out, nil
}

// Compactor merges raw-log batches into columnar archive parts. One
// Compact() call consumes all raw batches written since the previous call
// and produces at most one new part — mirroring the periodic merge job the
// paper describes.
type Compactor struct {
	store   Store
	dataset string
	codec   *record.Codec

	mu       sync.Mutex
	nextPart int64
	consumed map[string]bool
}

// NewCompactor creates a compactor for one dataset.
func NewCompactor(store Store, dataset string, codec *record.Codec) *Compactor {
	return &Compactor{store: store, dataset: dataset, codec: codec, consumed: make(map[string]bool)}
}

// Compact reads unconsumed raw batches, writes one columnar part containing
// their rows, and deletes the consumed raw objects. It returns the number of
// rows compacted (0 when there is nothing new).
func (c *Compactor) Compact() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys, err := c.store.List("rawlogs/" + c.dataset + "/")
	if err != nil {
		return 0, err
	}
	var rows []record.Record
	var toDelete []string
	for _, k := range keys {
		if c.consumed[k] {
			continue
		}
		data, err := c.store.Get(k)
		if err != nil {
			return 0, err
		}
		batch, err := decodeRawBatch(c.codec, data)
		if err != nil {
			return 0, fmt.Errorf("objstore: compacting %s: %w", k, err)
		}
		rows = append(rows, batch...)
		toDelete = append(toDelete, k)
	}
	if len(rows) == 0 {
		return 0, nil
	}
	part, err := EncodeColumnar(c.codec.Schema(), rows)
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
	return len(rows), nil
}

// ArchiveReader reads back all columnar parts of a dataset — the batch-side
// source used by Kappa+ backfill (§7) and the archival SQL connector.
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
	data, err := a.store.Get(key)
	if err != nil {
		return 0, err
	}
	return DecodeColumns(a.schema, data, names, cols)
}

// ReadPart decodes one archive part into rows.
func (a *ArchiveReader) ReadPart(key string) ([]record.Record, error) {
	data, err := a.store.Get(key)
	if err != nil {
		return nil, err
	}
	return DecodeColumnar(a.schema, data)
}

// ReadAll decodes every part, in part order.
func (a *ArchiveReader) ReadAll() ([]record.Record, error) {
	parts, err := a.Parts()
	if err != nil {
		return nil, err
	}
	var rows []record.Record
	for _, p := range parts {
		batch, err := a.ReadPart(p)
		if err != nil {
			return nil, err
		}
		rows = append(rows, batch...)
	}
	return rows, nil
}

// EncodeColumnar serializes rows column-major with per-column dictionary
// encoding for strings and varint packing for longs — the compact long-term
// format standing in for Parquet. The presence of each value is tracked in a
// per-column bitmap so nullable columns round-trip.
func EncodeColumnar(schema *metadata.Schema, rows []record.Record) ([]byte, error) {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	buf = binary.AppendUvarint(buf, uint64(len(schema.Fields)))
	for _, f := range schema.Fields {
		col, err := encodeColumn(f, rows)
		if err != nil {
			return nil, err
		}
		buf = binary.AppendUvarint(buf, uint64(len(f.Name)))
		buf = append(buf, f.Name...)
		buf = binary.AppendUvarint(buf, uint64(len(col)))
		buf = append(buf, col...)
	}
	return buf, nil
}

func encodeColumn(f metadata.Field, rows []record.Record) ([]byte, error) {
	var buf []byte
	bitmap := make([]byte, (len(rows)+7)/8)
	for i, r := range rows {
		if v, ok := r[f.Name]; ok && v != nil {
			bitmap[i/8] |= 1 << (i % 8)
		}
	}
	buf = append(buf, bitmap...)
	switch f.Type {
	case metadata.TypeLong, metadata.TypeTimestamp:
		for _, r := range rows {
			if v, ok := r[f.Name]; ok && v != nil {
				buf = binary.AppendVarint(buf, v.(int64))
			}
		}
	case metadata.TypeDouble:
		for _, r := range rows {
			if v, ok := r[f.Name]; ok && v != nil {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.(float64)))
			}
		}
	case metadata.TypeBool:
		for _, r := range rows {
			if v, ok := r[f.Name]; ok && v != nil {
				if v.(bool) {
					buf = append(buf, 1)
				} else {
					buf = append(buf, 0)
				}
			}
		}
	case metadata.TypeString:
		// Dictionary encode: sorted unique values, then per-row codes.
		dict := make(map[string]int)
		for _, r := range rows {
			if v, ok := r[f.Name]; ok && v != nil {
				dict[v.(string)] = 0
			}
		}
		values := make([]string, 0, len(dict))
		for s := range dict {
			values = append(values, s)
		}
		sort.Strings(values)
		for i, s := range values {
			dict[s] = i
		}
		buf = binary.AppendUvarint(buf, uint64(len(values)))
		for _, s := range values {
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
		for _, r := range rows {
			if v, ok := r[f.Name]; ok && v != nil {
				buf = binary.AppendUvarint(buf, uint64(dict[v.(string)]))
			}
		}
	case metadata.TypeBytes:
		for _, r := range rows {
			if v, ok := r[f.Name]; ok && v != nil {
				b := v.([]byte)
				buf = binary.AppendUvarint(buf, uint64(len(b)))
				buf = append(buf, b...)
			}
		}
	default:
		return nil, fmt.Errorf("objstore: unsupported column type %s", f.Type)
	}
	return buf, nil
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
// name the schema lacks, as a boxed column of nils (record.Vector).
func DecodeColumns(schema *metadata.Schema, data []byte, names []string, cols []record.Vector) (int, error) {
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
		f, _ := schema.Field(name) // TypeInvalid, a boxed column, when absent
		cols[c].Reset(f.Type)
	}
	for c := uint64(0); c < nCols; c++ {
		name, rest, ok := cutPrefixed(data)
		if !ok {
			return 0, fmt.Errorf("objstore: corrupt column name")
		}
		col, rest, ok := cutPrefixed(rest)
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
			cols[i].Reset(f.Type)
			cols[i].Grow(rows)
			if err := decodeColumn(f, col, rows, &cols[i]); err != nil {
				return 0, err
			}
		}
	}
	for c := range cols {
		if short := rows - cols[c].Len(); short > 0 {
			cols[c].AppendNulls(short)
		}
	}
	return rows, nil
}

// DecodeColumnar parses a columnar part produced by EncodeColumnar into
// rows: DecodeColumns over every schema column, boxed row by row. NULLs are
// absent keys.
func DecodeColumnar(schema *metadata.Schema, data []byte) ([]record.Record, error) {
	names := schema.FieldNames()
	cols := make([]record.Vector, len(names))
	n, err := DecodeColumns(schema, data, names, cols)
	if err != nil {
		return nil, err
	}
	rows := make([]record.Record, n)
	for i := range rows {
		r := make(record.Record, len(names))
		for c, name := range names {
			if v := cols[c].Box(i); v != nil {
				r[name] = v
			}
		}
		rows[i] = r
	}
	return rows, nil
}

// present reports row i's bit of a column's presence bitmap.
func present(bitmap []byte, i int) bool { return bitmap[i/8]&(1<<(i%8)) != 0 }

// decodeColumn appends one stored column's rows to out, a vector of the
// field's type; rows the presence bitmap marks absent are NULL.
func decodeColumn(f metadata.Field, col []byte, rows int, out *record.Vector) error {
	bitmapLen := (rows + 7) / 8
	if len(col) < bitmapLen {
		return fmt.Errorf("objstore: corrupt bitmap for column %q", f.Name)
	}
	bitmap := col[:bitmapLen]
	col = col[bitmapLen:]
	switch f.Type {
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
		dictSize, n := binary.Uvarint(col)
		// An entry is at least its length byte: a dictionary cannot have
		// more entries than the column has bytes left.
		if n <= 0 || dictSize > uint64(len(col)-n) {
			return fmt.Errorf("objstore: truncated dictionary for %q", f.Name)
		}
		col = col[n:]
		dict := make([]string, dictSize)
		for d := range dict {
			s, rest, ok := cutPrefixed(col)
			if !ok {
				return fmt.Errorf("objstore: truncated dictionary entry for %q", f.Name)
			}
			dict[d] = string(s)
			col = rest
		}
		for i := 0; i < rows; i++ {
			if !present(bitmap, i) {
				out.Strs = append(out.Strs, "")
				out.SetNull(i)
				continue
			}
			code, n := binary.Uvarint(col)
			if n <= 0 || code >= dictSize {
				return fmt.Errorf("objstore: bad dictionary code for %q", f.Name)
			}
			out.Strs = append(out.Strs, dict[code])
			col = col[n:]
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
	return nil
}
