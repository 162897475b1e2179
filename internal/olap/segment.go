package olap

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/metadata"
	"repro/internal/record"
)

// dictionary holds the sorted distinct values of one column. Codes are
// positions in sorted order, so range predicates become code ranges — the
// property the range "index" exploits. Integer columns keep their values
// exactly; every comparison reads a number as the float64 record.Compare
// does, which is ascending in code for either numeric form.
type dictionary struct {
	Typ  metadata.FieldType
	Strs []string  // sorted, for string columns
	Ints []int64   // sorted, for long, timestamp and bool (0 or 1) columns
	Nums []float64 // sorted, for double columns
}

func (d *dictionary) size() int {
	switch d.Typ {
	case metadata.TypeString:
		return len(d.Strs)
	case metadata.TypeDouble:
		return len(d.Nums)
	}
	return len(d.Ints)
}

// holds reports that the dictionary's values sit in its type's slice alone,
// in ascending order.
func (d *dictionary) holds() bool {
	switch d.Typ {
	case metadata.TypeString:
		return len(d.Ints) == 0 && len(d.Nums) == 0 && slices.IsSorted(d.Strs)
	case metadata.TypeDouble:
		return len(d.Strs) == 0 && len(d.Ints) == 0 && slices.IsSorted(d.Nums)
	}
	return len(d.Strs) == 0 && len(d.Nums) == 0 && slices.IsSorted(d.Ints)
}

// tieFree reports that no two codes are one value: a string dictionary, a
// double one with at most one NaN (-0 and 0 are one entry), a long one
// within ±2^53.
func (d *dictionary) tieFree() bool {
	switch d.Typ {
	case metadata.TypeString:
		return true
	case metadata.TypeDouble:
		return len(d.Nums) < 2 || d.Nums[1] == d.Nums[1]
	}
	return len(d.Ints) == 0 || d.Ints[0] >= -1<<53 && d.Ints[len(d.Ints)-1] <= 1<<53
}

// num is a numeric code's value as the float64 comparisons and aggregations
// work in.
func (d *dictionary) num(code int) float64 {
	if d.Typ == metadata.TypeDouble {
		return d.Nums[code]
	}
	return float64(d.Ints[code])
}

// search returns the first numeric code whose value is at least x, or, with
// after, greater than x.
func (d *dictionary) search(x float64, after bool) int {
	return sort.Search(d.size(), func(i int) bool {
		if after {
			return d.num(i) > x
		}
		return d.num(i) >= x
	})
}

// span returns the codes [lo, hi) of the values equal to v: none or one for a
// string or a double, and for an integer column every long whose float64 is
// v — a long above 2^53 compares as its float64, as record.Compare has it.
func (d *dictionary) span(v any) (int, int) {
	if d.Typ == metadata.TypeString {
		s, ok := v.(string)
		if !ok {
			return 0, 0
		}
		i := sort.SearchStrings(d.Strs, s)
		if i < len(d.Strs) && d.Strs[i] == s {
			return i, i + 1
		}
		return i, i
	}
	f, ok := toF64(v)
	if !ok {
		return 0, 0
	}
	return d.search(f, false), d.search(f, true)
}

// codeRange returns the half-open code interval [lo, hi) of values in
// [min, max] (inclusive bounds; nil bound = open side).
func (d *dictionary) codeRange(min, max any) (int, int) {
	lo, hi := 0, d.size()
	if d.Typ == metadata.TypeString {
		if min != nil {
			if s, ok := min.(string); ok {
				lo = sort.SearchStrings(d.Strs, s)
			}
		}
		if max != nil {
			if s, ok := max.(string); ok {
				hi = sort.Search(len(d.Strs), func(i int) bool { return d.Strs[i] > s })
			}
		}
		return lo, hi
	}
	if min != nil {
		if f, ok := toF64(min); ok {
			lo = d.search(f, false)
		}
	}
	if max != nil {
		if f, ok := toF64(max); ok {
			hi = d.search(f, true)
			if math.IsNaN(f) {
				hi = 0 // no value is at most NaN, as compileNumPred has it
			}
		}
	}
	return lo, hi
}

func (d *dictionary) memBytes() int64 {
	var n int64 = 48
	for _, s := range d.Strs {
		n += int64(len(s)) + 16
	}
	n += int64(len(d.Nums)*8 + len(d.Ints)*8)
	return n
}

func toF64(v any) (float64, bool) { return record.ToFloat64(v) }

// packedInts stores n small non-negative ints bit-packed at the minimal
// width — Pinot's "bit compressed forward indices" that the paper credits
// for its smaller footprint vs Druid (§4.3).
type packedInts struct {
	Bits uint
	N    int
	Data []uint64
}

func newPackedInts(values []int, maxValue int) packedInts {
	p := makePackedInts(len(values), maxValue)
	for i, v := range values {
		p.set(i, uint64(v))
	}
	return p
}

// makePackedInts returns n zeroed slots wide enough for maxValue; the
// caller sets each slot once.
func makePackedInts(n, maxValue int) packedInts {
	bits := packedWidth(maxValue)
	return packedInts{Bits: bits, N: n, Data: make([]uint64, (n*int(bits)+63)/64)}
}

// packedWidth is the fewest bits, at least one, that hold maxValue.
func packedWidth(maxValue int) uint {
	bits := uint(1)
	for (1 << bits) <= maxValue {
		bits++
	}
	return bits
}

func (p *packedInts) set(i int, v uint64) {
	bitPos := i * int(p.Bits)
	word, off := bitPos/64, uint(bitPos%64)
	p.Data[word] |= v << off
	if off+p.Bits > 64 {
		p.Data[word+1] |= v >> (64 - off)
	}
}

// Get returns the i-th packed value.
func (p *packedInts) Get(i int) int {
	bitPos := i * int(p.Bits)
	word, off := bitPos/64, uint(bitPos%64)
	v := p.Data[word] >> off
	if off+p.Bits > 64 {
		v |= p.Data[word+1] << (64 - off)
	}
	return int(v & ((1 << p.Bits) - 1))
}

// getEach sets dst[j] to Get(off+sel[j]) for each j: Get with the width,
// the mask and the words read once per call, not once per row.
func (p *packedInts) getEach(dst []uint32, off int, sel []int32) {
	b := p.Bits
	mask := uint64(1)<<b - 1
	data := p.Data
	dst = dst[:len(sel)]
	for j, i := range sel {
		bitPos := uint(off+int(i)) * b
		w, o := bitPos/64, bitPos%64
		v := data[w] >> o
		if o+b > 64 {
			v |= data[w+1] << (64 - o)
		}
		dst[j] = uint32(v & mask)
	}
}

// unpack fills dst with values start, start+1, … — Get's answers — reading
// each 64-bit word once: the bits not yet handed out wait in a buffer, and
// a word is loaded only when the next value reaches into it (block-wise
// bit-unpacking, Lemire & Boytsov). start+len(dst) must not pass N.
func (p *packedInts) unpack(dst []uint32, start int) {
	if len(dst) == 0 {
		return
	}
	b := p.Bits
	mask := uint64(1)<<b - 1
	bitPos := start * int(b)
	w := bitPos / 64
	data := p.Data[w:]
	acc := data[0] >> uint(bitPos%64) // bits not yet handed out
	have := 64 - uint(bitPos%64)      // how many acc holds
	data = data[1:]
	for k := range dst {
		if have >= b {
			dst[k] = uint32(acc & mask)
			acc >>= b
			have -= b
			continue
		}
		// The value's low have bits are in acc, the rest open the next word.
		next := data[0]
		data = data[1:]
		dst[k] = uint32((acc | next<<have) & mask)
		acc = next >> (b - have)
		have += 64 - b
	}
}

// eachBlock hands fn every value in order, unpacked by the block into buf:
// fn(start, vals) gets values start, start+1, … .
func (p *packedInts) eachBlock(buf []uint32, fn func(start int, vals []uint32)) {
	for start := 0; start < p.N; start += len(buf) {
		vals := buf[:min(len(buf), p.N-start)]
		p.unpack(vals, start)
		fn(start, vals)
	}
}

func (p *packedInts) memBytes() int64 { return int64(len(p.Data)*8) + 24 }

// column is one dictionary-encoded column with optional secondary indexes.
// A row's code is its value's position in the dictionary, or the dictionary
// size for NULL: the codes alone say which rows hold a value.
type column struct {
	Field    metadata.Field
	Dict     dictionary
	Codes    packedInts
	Inverted []*Bitmap // code -> row bitmap; nil when the index is disabled
	Sorted   bool      // rows are sorted by this column (codes non-decreasing)
}

func (c *column) memBytes() int64 {
	n := c.Dict.memBytes() + c.Codes.memBytes()
	for _, bm := range c.Inverted {
		if bm != nil {
			n += bm.MemBytes()
		}
	}
	return n
}

// IndexConfig selects the per-table index structures — the knobs the
// Druid-comparison experiment (E4) ablates.
type IndexConfig struct {
	// InvertedColumns get a code→bitmap inverted index.
	InvertedColumns []string
	// SortedColumn, when set, sorts segment rows by this column at build
	// time, enabling binary-search run lookup.
	SortedColumn string
	// StarTree enables the star-tree pre-aggregation index.
	StarTree *StarTreeConfig
}

// checkSorted rejects a sorted column whose rows cannot be laid out in code
// order. column.Sorted promises non-decreasing dictionary codes and
// predBitmap binary-searches on that promise; a NULL row has no code and
// bool columns are not ordered at seal, so either would answer range and
// equality filters wrongly.
func (ic IndexConfig) checkSorted(schema *metadata.Schema) error {
	if ic.SortedColumn == "" {
		return nil
	}
	f, ok := schema.Field(ic.SortedColumn)
	switch {
	case !ok:
		return fmt.Errorf("olap: sorted column %q not in schema", ic.SortedColumn)
	case f.Nullable:
		return fmt.Errorf("olap: sorted column %q is nullable: NULL rows have no position in code order", ic.SortedColumn)
	case f.Type == metadata.TypeBool:
		return fmt.Errorf("olap: sorted column %q is a bool: bool columns are not ordered at seal", ic.SortedColumn)
	}
	return nil
}

func (ic IndexConfig) inverted(col string) bool {
	for _, c := range ic.InvertedColumns {
		if c == col {
			return true
		}
	}
	return false
}

// Segment is an immutable columnar chunk of a table — the unit of storage,
// replication, backup and query fan-out.
type Segment struct {
	Name    string
	Schema  *metadata.Schema
	NumRows int
	Columns map[string]*column
	Tree    *StarTree // nil unless configured
	MinTime int64
	MaxTime int64
	// Partition is the upsert partition this segment belongs to (-1 when
	// the table is not upsert-enabled).
	Partition int
}

// BuildSegment constructs an immutable segment from records over a schema
// that passes Schema.Validate, as NewDeployment requires: every record goes
// into a mutable column store (mutableSegment.add: a missing or nil field is
// NULL, any other value is coerced by record.Coerce), which is then sealed
// as ingestion and compaction seal theirs. It is the package's one map entry
// point to a Segment, and nothing inside the deployment calls it: tests and
// internal/experiments build segments with it. Rows are dictionary-encoded
// per column; secondary indexes follow cfg.
func BuildSegment(name string, schema *metadata.Schema, rows []record.Record, cfg IndexConfig, partition int) (*Segment, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	m := newMutableSegment(name, schema, len(rows), nil)
	for _, r := range rows {
		if _, err := m.add(r); err != nil {
			return nil, err
		}
	}
	return m.seal(cfg, partition)
}

// seal freezes the store's rows into an immutable segment: string
// dictionaries are sorted and the codes remapped, numeric vectors are
// dictionary-encoded, codes are bit-packed, and inverted indexes, time
// bounds and the star-tree are built. With a sorted column the rows are
// first put in that column's order (stably), so doc ids change; otherwise
// row i becomes doc i. seal only reads the store.
func (m *mutableSegment) seal(cfg IndexConfig, partition int) (*Segment, error) {
	if m.n == 0 {
		return nil, fmt.Errorf("olap: segment %q has no rows", m.name)
	}
	if err := cfg.checkSorted(m.schema); err != nil {
		return nil, err
	}
	var perm []int32 // perm[doc] = store row; nil is the identity
	if cfg.SortedColumn != "" {
		for ci := range m.cols {
			if m.cols[ci].field.Name == cfg.SortedColumn {
				perm = m.cols[ci].sortedOrder(m.n)
			}
		}
	}
	seg := &Segment{
		Name:      m.name,
		Schema:    m.schema.Clone(),
		NumRows:   m.n,
		Columns:   make(map[string]*column, len(m.cols)),
		Partition: partition,
	}
	for ci := range m.cols {
		c := &m.cols[ci]
		seg.Columns[c.field.Name] = c.seal(m.n, perm, cfg)
	}
	if m.schema.TimeField != "" {
		seg.MinTime, seg.MaxTime = m.minTime, m.maxTime
	}
	if cfg.StarTree != nil {
		tree, err := buildStarTree(seg, *cfg.StarTree)
		if err != nil {
			return nil, err
		}
		seg.Tree = tree
	}
	return seg, nil
}

// sortedOrder returns the store rows in the column's value order, ties in
// row order (segment-local clustering). checkSorted has ruled out NULLs and
// bools.
func (c *mutableColumn) sortedOrder(n int) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	switch strs := c.dict.Texts(); {
	case c.layout == layoutDense:
		sort.SliceStable(perm, func(a, b int) bool {
			return strs[c.codes[perm[a]]] < strs[c.codes[perm[b]]]
		})
	case c.layout == layoutInts:
		sort.SliceStable(perm, func(a, b int) bool { return c.ints[perm[a]] < c.ints[perm[b]] })
	default:
		sort.SliceStable(perm, func(a, b int) bool { return c.floats[perm[a]] < c.floats[perm[b]] })
	}
	return perm
}

// seal encodes rows [0, n) of the column, in perm order, as a sealed
// column: a sorted dictionary, codes that are positions in it (the
// dictionary size standing for NULL) and, when configured, the inverted
// index.
func (c *mutableColumn) seal(n int, perm []int32, cfg IndexConfig) *column {
	// rank maps what a store row holds — a dense code, or for numerics a
	// first-seen id, 0 being NULL either way — to the value's position in
	// the sorted dictionary.
	dict := dictionary{Typ: c.field.Type}
	var rank []int
	ids := c.codes
	switch c.layout {
	case layoutDense:
		dict.Strs, rank = sortedRanks(c.dict.Texts()[1:])
	case layoutInts:
		var distinct []int64
		ids, distinct = firstSeen(c.ints[:n], c.present)
		dict.Ints, rank = sortedRanks(distinct)
	default:
		var distinct []float64
		ids, distinct = firstSeen(c.floats[:n], c.present)
		dict.Nums, rank = sortedRanks(distinct)
	}
	null := dict.size()
	col := &column{
		Field:  c.field,
		Dict:   dict,
		Codes:  makePackedInts(n, null),
		Sorted: cfg.SortedColumn == c.field.Name,
	}
	if cfg.inverted(c.field.Name) {
		col.Inverted = make([]*Bitmap, null)
	}
	for doc := 0; doc < n; doc++ {
		row := doc
		if perm != nil {
			row = int(perm[doc])
		}
		code := rank[ids[row]]
		col.Codes.set(doc, uint64(code))
		if code != null && col.Inverted != nil {
			if col.Inverted[code] == nil {
				col.Inverted[code] = NewBitmap(n)
			}
			col.Inverted[code].Set(doc)
		}
	}
	return col
}

// firstSeen numbers the distinct values of a raw column in first-seen order
// from 1, 0 being NULL (present[i] false; nil present means none is), and
// returns each row's number and the distinct values.
func firstSeen[T comparable](vals []T, present []bool) ([]uint32, []T) {
	ids := make([]uint32, len(vals))
	seen := make(map[T]uint32)
	distinct := []T{}
	for i, x := range vals {
		if present != nil && !present[i] {
			continue
		}
		id, ok := seen[x]
		if !ok {
			distinct = append(distinct, x)
			id = uint32(len(distinct))
			seen[x] = id
		}
		ids[i] = id
	}
	return ids, distinct
}

// sortedRanks sorts dictionary values and returns them with rank[1+i] the
// sorted position of vals[i]; rank[0], the NULL id, is the dictionary size.
func sortedRanks[T cmp.Ordered](vals []T) ([]T, []int) {
	order := make([]int32, len(vals))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(vals[a], vals[b]) })
	sorted, rank := make([]T, len(vals)), make([]int, len(vals)+1)
	rank[0] = len(vals)
	for pos, i := range order {
		sorted[pos], rank[i+1] = vals[i], pos
	}
	return sorted, rank
}

// MemBytes approximates the segment's in-memory footprint.
func (s *Segment) MemBytes() int64 {
	var n int64 = 128
	for _, c := range s.Columns {
		n += c.memBytes()
	}
	if s.Tree != nil {
		n += s.Tree.memBytes()
	}
	return n
}

// check verifies what the query path assumes of a sealed segment: a valid
// schema with one column per non-blob field, of that field, and at least one
// such column, whose codes are what back the row count; codes and inverted
// bitmaps covering NumRows; each dictionary in its type's slice and
// ascending; codes packed at the width seal gives them, each a dictionary
// position or the NULL code and, on the sorted column, non-decreasing (read
// by the block). A star-tree is not checked: a decoded one is rebuilt from
// the checked columns.
func (s *Segment) check() error {
	if s.Schema == nil || s.Schema.Validate() != nil || s.NumRows < 0 {
		return fmt.Errorf("invalid schema or row count")
	}
	covers := func(b *Bitmap) bool { return b != nil && b.N == s.NumRows && len(b.Words) == (s.NumRows+63)/64 }
	scratch := getScratch()
	defer scratch.put()
	block := &scratch.block
	fields := 0
	for _, f := range s.Schema.Fields {
		if f.Type < metadata.TypeLong || f.Type > metadata.TypeTimestamp {
			return fmt.Errorf("field %q has invalid type %d", f.Name, f.Type)
		}
		if f.Type == metadata.TypeBytes {
			continue
		}
		fields++
		c := s.Columns[f.Name]
		if c == nil || c.Field != f || c.Dict.Typ != f.Type || !c.Dict.holds() || c.Codes.N != s.NumRows ||
			c.Codes.Bits != packedWidth(c.Dict.size()) || len(c.Codes.Data) != (s.NumRows*int(c.Codes.Bits)+63)/64 {
			return fmt.Errorf("column %q is missing or does not match its field and %d rows", f.Name, s.NumRows)
		}
		null := uint32(c.Dict.size())
		bad, prev := -1, uint32(0)
		c.Codes.eachBlock(block[:], func(start int, codes []uint32) {
			for j, code := range codes {
				if (code > null || c.Sorted && code < prev) && bad < 0 {
					bad = start + j
				}
				prev = code
			}
		})
		if bad >= 0 {
			return fmt.Errorf("column %q row %d has code %d, out of a %d-entry dictionary or of sorted order", f.Name, bad, c.Codes.Get(bad), null)
		}
		if c.Inverted != nil && len(c.Inverted) != int(null) {
			return fmt.Errorf("column %q has %d posting lists for %d codes", f.Name, len(c.Inverted), null)
		}
		for _, bm := range c.Inverted {
			if bm != nil && !covers(bm) {
				return fmt.Errorf("column %q has a posting list not over %d rows", f.Name, s.NumRows)
			}
		}
	}
	if fields == 0 || len(s.Columns) != fields {
		return fmt.Errorf("%d columns for %d non-blob fields", len(s.Columns), fields)
	}
	return nil
}
