package olap

import (
	"bytes"
	"fmt"

	"repro/internal/metadata"
	"repro/internal/record"
)

// TableConfig declares one OLAP table.
type TableConfig struct {
	// Name is the table name.
	Name string
	// Schema describes the columns; TimeField drives segment time bounds
	// and PrimaryKey (with Upsert) the upsert key.
	Schema *metadata.Schema
	// Indexes configure segment index structures.
	Indexes IndexConfig
	// SegmentRows is the consuming-segment seal threshold. Default 1000.
	SegmentRows int
	// Upsert enables exactly-once-by-key semantics (§4.3.1); requires
	// Schema.PrimaryKey and a partitioned input keyed by it.
	Upsert bool
	// Replicas is the number of servers holding each sealed segment.
	// Default 1.
	Replicas int
	// PartitionColumn, with Partitions, declares the input partition
	// function: every record must be ingested on partition
	// PartitionFor(record[PartitionColumn], Partitions) — Ingest enforces
	// it. Declaring the function lets the partition-aware router prune
	// servers for queries with equality filters on the column (§4.3).
	// Optional; leave empty for tables partitioned by external logic.
	PartitionColumn string
	// Partitions is the input partition count; required (> 0) when
	// PartitionColumn is set.
	Partitions int
}

func (c TableConfig) withDefaults() (TableConfig, error) {
	if c.Name == "" {
		return c, fmt.Errorf("olap: table has no name")
	}
	if c.Schema == nil {
		return c, fmt.Errorf("olap: table %q has no schema", c.Name)
	}
	if err := c.Schema.Validate(); err != nil {
		return c, err
	}
	if c.Upsert && c.Schema.PrimaryKey == "" {
		return c, fmt.Errorf("olap: upsert table %q needs a primary key", c.Name)
	}
	if c.Upsert && c.Indexes.SortedColumn != "" {
		// Sorting a segment at build time reorders doc IDs, which would
		// break the upsert location map (same restriction as Pinot).
		return c, fmt.Errorf("olap: upsert table %q cannot use a sorted column", c.Name)
	}
	if err := c.Indexes.checkSorted(c.Schema); err != nil {
		return c, err
	}
	if c.PartitionColumn != "" {
		if _, ok := c.Schema.Field(c.PartitionColumn); !ok {
			return c, fmt.Errorf("olap: table %q partition column %q is not a schema field", c.Name, c.PartitionColumn)
		}
		if c.Partitions <= 0 {
			return c, fmt.Errorf("olap: table %q declares partition column %q without a partition count", c.Name, c.PartitionColumn)
		}
	}
	if c.SegmentRows <= 0 {
		c.SegmentRows = 1000
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	return c, nil
}

// mutableSegment is the consuming (in-flight) segment of one partition: an
// append-only column store. Every queryable schema field has one typed
// vector — raw int64 for long, timestamp and bool (0/1), raw float64 for
// double, and for strings a dense uint32 code per row into an
// insertion-ordered dictionary — so a query scans it with the same kernels
// that scan sealed segments, and sealing sorts dictionaries and remaps
// codes instead of re-reading rows. It keeps no record.Record.
//
// Readers need no lock. appendRow only ever writes vector index >= n or a
// reallocated array, so a snapshot — n and the slice headers, captured
// under the owner's lock — stays a consistent view of rows [0, n) while the
// writer carries on: what a reader holds is never written again. The one
// structure that is rewritten in place, the hash table of a string
// dictionary, belongs to the writer alone; readers resolve literals by
// scanning the snapshotted dictionary entries, strings carved from the
// dictionary's arena, whose bytes are never written again either. The
// upsert-invalid set is mutated under the owner's lock and handed to
// readers as a bitmap built there.
type mutableSegment struct {
	name   string
	schema *metadata.Schema
	n      int
	cols   []mutableColumn // queryable (non-blob) schema fields, in schema order
	// colOf maps a schema field to its index in cols, -1 for a blob.
	colOf []int
	// timeField is the schema index of the time field, or -1.
	timeField int
	// minTime/maxTime bound the time column over rows [0, n); a NULL time
	// counts as 0, as in a sealed segment's bounds.
	minTime, maxTime int64
	invalid          map[int]bool   // docID -> superseded (upsert)
	row              []record.Value // add's scratch, one cell per schema field
	// placing claims a frozen store for the one seal building and backing
	// it up (Deployment.placeSealing); guarded by the owner's lock.
	placing bool
}

// mutableColumn is one append-only column. Which vector is in use follows
// from layout.
type mutableColumn struct {
	field  metadata.Field
	layout colLayout

	ints   []int64   // layoutInts
	floats []float64 // layoutFloats
	// present[i] reports row i non-NULL (raw layouts). It stays nil until
	// the column sees its first NULL.
	present []bool

	codes []uint32 // layoutDense: code per row, 0 for NULL
	// dict numbers a string column's values by code, NULL first as code 0.
	// A new value is carved from its arena; dict.Texts() is the dictionary
	// by code that readers snapshot, its entry 0 the NULL slot, and its
	// hash table is the writer's alone.
	dict record.KeyIndex
}

// dictSize is one string column's dictionary size: its values and their
// bytes, the NULL slot apart.
type dictSize struct{ values, bytes int }

// dictSizes is the size of each column's dictionary, zero for a raw column.
func (m *mutableSegment) dictSizes() []dictSize {
	out := make([]dictSize, len(m.cols))
	for ci := range m.cols {
		if c := &m.cols[ci]; c.layout == layoutDense {
			out[ci] = dictSize{c.dict.Len() - 1, c.dict.ArenaBytes()}
		}
	}
	return out
}

// newMutableSegment creates an empty store for the schema, with room for
// rowsHint rows. dicts, when not nil, is what the partition's last store's
// dictionaries came to (dictSizes): each string column's table, arena and
// dictionary are sized for that plus a sixteenth, so a steady partition's
// stores grow none of them.
func newMutableSegment(name string, schema *metadata.Schema, rowsHint int, dicts []dictSize) *mutableSegment {
	m := &mutableSegment{name: name, schema: schema, timeField: -1, invalid: make(map[int]bool)}
	for fi, f := range schema.Fields {
		if f.Name == schema.TimeField {
			m.timeField = fi
		}
		c := mutableColumn{field: f}
		switch f.Type {
		case metadata.TypeBytes:
			m.colOf = append(m.colOf, -1) // blobs are not queryable; no layout encodes them
			continue
		case metadata.TypeString:
			c.layout = layoutDense
			c.codes = make([]uint32, 0, rowsHint)
			var last dictSize
			if len(m.cols) < len(dicts) {
				last = dicts[len(m.cols)]
			}
			c.dict.ReserveTexts(1+last.values+last.values/16, last.bytes+last.bytes/16)
			c.dict.AddKey(false, 0, nil, false) // NULL is code 0
		case metadata.TypeDouble:
			c.layout = layoutFloats
			c.floats = make([]float64, 0, rowsHint)
		default:
			c.layout = layoutInts
			c.ints = make([]int64, 0, rowsHint)
		}
		m.colOf = append(m.colOf, len(m.cols))
		m.cols = append(m.cols, c)
	}
	m.row = make([]record.Value, len(schema.Fields))
	return m
}

// add appends one record as a row and returns its doc id: a missing or nil
// field is NULL, any other value is coerced by record.Coerce. A NULL in a
// required time field is an error, as ingest has it: unitFilters drops a
// time range holding a segment's bounds only because no row there lacks a
// time. The row is validated whole before any vector grows, so a rejected
// row leaves the store untouched. BuildSegment is its one caller.
func (m *mutableSegment) add(r record.Record) (int, error) {
	for fi, f := range m.schema.Fields {
		v, err := record.Coerce(r[f.Name], f.Type)
		if v == nil && err == nil && fi == m.timeField {
			_, err = record.ConformValue(nil, f, m.schema.Name)
		}
		if err != nil {
			return 0, fmt.Errorf("olap: column %q row %d: %w", f.Name, m.n, err)
		}
		m.row[fi] = record.ValueOf(v)
	}
	return m.appendRow(m.row), nil
}

// appendRow appends one row of cells, one per schema field and each of its
// column's type, and returns its doc id. It is the store's one way in. A
// string cell may alias a payload: the store keeps a copy (intern).
func (m *mutableSegment) appendRow(row []record.Value) int {
	for fi, ci := range m.colOf {
		if ci >= 0 {
			m.cols[ci].push(row[fi], m.n)
		}
	}
	if m.timeField >= 0 {
		t := row[m.timeField].I // a validated schema's time field is a long or a timestamp
		if m.n == 0 || t < m.minTime {
			m.minTime = t
		}
		if m.n == 0 || t > m.maxTime {
			m.maxTime = t
		}
	}
	m.n++
	return m.n - 1
}

// push appends one cell as row n of the column.
func (c *mutableColumn) push(v record.Value, n int) {
	switch c.layout {
	case layoutDense:
		c.codes = append(c.codes, c.intern(v))
		return
	case layoutFloats:
		c.floats = append(c.floats, v.F)
	default:
		c.ints = append(c.ints, v.I)
	}
	c.markPresent(n, !v.Null)
}

// intern returns the code of a string cell, adding the value to the
// dictionary on first sight. The lookup converts nothing; only a new value
// is copied, carved from the dictionary's arena, so the dictionary never
// holds the cell's bytes and a value costs no allocation of its own.
func (c *mutableColumn) intern(v record.Value) uint32 {
	if v.Null {
		return 0
	}
	code, _ := c.dict.AddKey(false, 0, v.B, true)
	return uint32(code)
}

// str is string column fi's value at row doc: the dictionary's own copy.
func (m *mutableSegment) str(fi, doc int) string {
	c := &m.cols[m.colOf[fi]]
	return c.dict.Texts()[c.codes[doc]]
}

// hookRow copies row doc, appended from row, out of the caller's block as
// the row a mutation hook receives: string cells alias the dictionary
// (which is never written), blobs — which the store does not keep — are
// copied.
func (m *mutableSegment) hookRow(doc int, row []record.Value) record.Row {
	vals := make([]record.Value, len(row))
	for fi, f := range m.schema.Fields {
		switch v := row[fi]; {
		case v.Null:
			vals[fi] = record.Value{Null: true}
		case f.Type == metadata.TypeString:
			vals[fi] = record.ValueOf(m.str(fi, doc))
		case f.Type == metadata.TypeBytes:
			vals[fi] = record.Value{B: bytes.Clone(v.B)}
		default:
			vals[fi] = v
		}
	}
	return record.Row{Schema: m.schema, Vals: vals}
}

// num returns row i of a raw column as a float64; a NULL row reads 0.
func (c *mutableColumn) num(i int) float64 {
	if c.layout == layoutFloats {
		return c.floats[i]
	}
	return float64(c.ints[i])
}

// markPresent records the presence of row n of a raw column. The vector
// materializes at the first NULL, into a fresh array: a reader holding the
// nil header keeps reading "all present", which is true of the prefix it may
// look at.
func (c *mutableColumn) markPresent(n int, present bool) {
	if c.present == nil {
		if present {
			return
		}
		c.present = make([]bool, n, n+1)
		for i := range c.present {
			c.present[i] = true
		}
	}
	c.present = append(c.present, present)
}

// snapshot captures the store's current rows as a scan set: O(columns)
// slice headers, no row is copied. The caller holds the lock that
// serializes appendRow; the scan then runs outside it.
func (m *mutableSegment) snapshot() *scanSet {
	sc := &scanSet{
		n:       m.n,
		schema:  m.schema,
		cols:    make([]colView, len(m.cols)),
		minTime: m.minTime,
		maxTime: m.maxTime,
	}
	for ci := range m.cols {
		c := &m.cols[ci]
		sc.cols[ci] = colView{
			name:    c.field.Name,
			typ:     c.field.Type,
			layout:  c.layout,
			dense:   c.codes,
			strs:    c.dict.Texts(),
			ints:    c.ints,
			floats:  c.floats,
			present: c.present,
		}
	}
	return sc
}

// validSnapshot renders the upsert-invalid set as the validity bitmap a
// scan masks with, or nil when every row is valid. Same locking as
// snapshot.
func (m *mutableSegment) validSnapshot() *Bitmap {
	if len(m.invalid) == 0 {
		return nil
	}
	valid := NewBitmap(m.n)
	valid.Fill()
	for doc := range m.invalid {
		valid.Clear(doc)
	}
	return valid
}
