package olap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/metadata"
)

// A sealed segment's deep-store form is one flat byte layout, little-endian
// throughout; a count or a length is a uint32 unless said otherwise, a
// 64-bit value 8 bytes and a string its length and its bytes:
//
//	magic "OSEG", version byte
//	name, partition, row count, min time, max time
//	schema: name, version, field count, then per field its name, its type
//	  byte and a flags byte (1 nullable, 2 dimension); time field, primary key
//	star-tree: 0 for none, or 1, the dimensions and the metrics (a count and
//	  that many strings each) and MaxLeafRecords
//	per non-blob field, in schema order, its column:
//	  flags byte (1 sorted, 2 inverted index)
//	  dictionary: its size, then the values — 8 bytes each for a long,
//	    timestamp, bool (int64) or double (float64 bits) column; for a string
//	    column each value's length as a uvarint (its shortest form) and then
//	    all the values' bytes
//	  codes: the packed width byte, the word count, the words
//	  posting lists (inverted only): one per dictionary code, each
//	    ⌈rows/64⌉ words
//
// The star-tree itself is not stored: DecodeSegment rebuilds it from the
// decoded columns, so it cannot disagree with them.
const (
	segmentMagic   = "OSEG"
	segmentVersion = 2
)

// Flag bits of a field and of a column.
const (
	fieldNullable = 1 << iota
	fieldDimension
)

const (
	columnSorted = 1 << iota
	columnInverted
)

var le = binary.LittleEndian

// Encode serializes the segment for the segment store / deep archival in the
// layout above: a first walk sums its exact size, a second writes it into one
// buffer of that size. Columns follow the schema, so one segment always
// encodes to the same bytes. E3 measures this form against the document
// store's.
func (s *Segment) Encode() ([]byte, error) {
	var w segmentWriter
	s.encode(&w)
	if w.err != nil {
		return nil, fmt.Errorf("olap: encoding segment %q: %w", s.Name, w.err)
	}
	w.buf, w.n = make([]byte, w.n), 0
	s.encode(&w)
	return w.buf, nil
}

func (s *Segment) encode(w *segmentWriter) {
	w.raw(segmentMagic)
	w.u8(segmentVersion)
	w.str(s.Name)
	w.u64(uint64(s.Partition))
	w.u32(s.NumRows)
	w.u64(uint64(s.MinTime))
	w.u64(uint64(s.MaxTime))
	sc := s.Schema
	w.str(sc.Name)
	w.u64(uint64(sc.Version))
	w.u32(len(sc.Fields))
	for _, f := range sc.Fields {
		flags := byte(0)
		if f.Nullable {
			flags |= fieldNullable
		}
		if f.Dimension {
			flags |= fieldDimension
		}
		w.str(f.Name)
		w.u8(byte(f.Type))
		w.u8(flags)
	}
	w.str(sc.TimeField)
	w.str(sc.PrimaryKey)
	if s.Tree == nil {
		w.u8(0)
	} else {
		w.u8(1)
		w.strs(s.Tree.Cfg.Dimensions)
		w.strs(s.Tree.Cfg.Metrics)
		w.u32(s.Tree.Cfg.MaxLeafRecords)
	}
	for _, f := range sc.Fields {
		if f.Type == metadata.TypeBytes {
			continue
		}
		c := s.Columns[f.Name]
		if c == nil {
			w.fail(fmt.Errorf("no column for field %q", f.Name))
			return
		}
		c.encode(w, s.NumRows)
	}
}

func (c *column) encode(w *segmentWriter, rows int) {
	flags := byte(0)
	if c.Sorted {
		flags |= columnSorted
	}
	if c.Inverted != nil {
		flags |= columnInverted
	}
	w.u8(flags)
	switch d := &c.Dict; d.Typ {
	case metadata.TypeString:
		w.u32(len(d.Strs))
		for _, v := range d.Strs {
			w.uvarint(uint64(len(v)))
		}
		for _, v := range d.Strs {
			w.raw(v)
		}
	case metadata.TypeDouble:
		w.u32(len(d.Nums))
		for _, v := range d.Nums {
			w.u64(math.Float64bits(v))
		}
	default:
		w.u32(len(d.Ints))
		for _, v := range d.Ints {
			w.u64(uint64(v))
		}
	}
	w.u8(byte(c.Codes.Bits))
	w.u32(len(c.Codes.Data))
	w.words(c.Codes.Data)
	if c.Inverted == nil {
		return
	}
	for _, bm := range c.Inverted {
		if bm == nil { // a code no row holds: zero words, as the buffer is made
			w.n += 8 * ((rows + 63) / 64)
			continue
		}
		w.words(bm.Words)
	}
}

// segmentWriter walks a segment in Encode's layout: without a buffer it only
// counts the bytes, with one it writes them.
type segmentWriter struct {
	buf []byte
	n   int
	err error
}

func (w *segmentWriter) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

func (w *segmentWriter) u8(v byte) {
	if w.buf != nil {
		w.buf[w.n] = v
	}
	w.n++
}

// u32 writes a count or a length, which must fit.
func (w *segmentWriter) u32(v int) {
	if v < 0 || v > math.MaxUint32 {
		w.fail(fmt.Errorf("%d does not fit a 32-bit count", v))
	}
	if w.buf != nil {
		le.PutUint32(w.buf[w.n:], uint32(v))
	}
	w.n += 4
}

func (w *segmentWriter) u64(v uint64) {
	if w.buf != nil {
		le.PutUint64(w.buf[w.n:], v)
	}
	w.n += 8
}

func (w *segmentWriter) uvarint(v uint64) {
	if w.buf != nil {
		binary.PutUvarint(w.buf[w.n:], v)
	}
	w.n += uvarintLen(v)
}

// uvarintLen is the length of v's shortest uvarint form, the one the writer
// writes and the reader accepts.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

func (w *segmentWriter) raw(s string) {
	if w.buf != nil {
		copy(w.buf[w.n:], s)
	}
	w.n += len(s)
}

func (w *segmentWriter) str(s string) {
	w.u32(len(s))
	w.raw(s)
}

func (w *segmentWriter) strs(ss []string) {
	w.u32(len(ss))
	for _, s := range ss {
		w.str(s)
	}
}

func (w *segmentWriter) words(ws []uint64) {
	if w.buf != nil {
		for i, v := range ws {
			le.PutUint64(w.buf[w.n+8*i:], v)
		}
	}
	w.n += 8 * len(ws)
}

// errSegmentShort is a read past the end of the bytes, or a count more than
// the bytes left can hold.
var errSegmentShort = errors.New("bytes end before what they claim")

// segmentReader reads Encode's layout front to back. The first read that
// fails sets err, and every read after it returns a zero value.
type segmentReader struct {
	data []byte
	err  error
}

// fail marks the bytes short: every read from here on returns a zero value.
func (r *segmentReader) fail() {
	if r.err == nil {
		r.err = errSegmentShort
	}
	r.data = nil
}

func (r *segmentReader) take(n int) []byte {
	if n < 0 || n > len(r.data) {
		r.fail()
		return nil
	}
	b := r.data[:n:n]
	r.data = r.data[n:]
	return b
}

func (r *segmentReader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *segmentReader) u32() int {
	if b := r.take(4); b != nil {
		return int(le.Uint32(b))
	}
	return 0
}

func (r *segmentReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return le.Uint64(b)
	}
	return 0
}

// uvarint reads a uvarint in its shortest form; a longer spelling of the
// same value would not re-encode to the bytes it was read from.
func (r *segmentReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.data)
	if n <= 0 || n != uvarintLen(v) {
		r.fail()
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *segmentReader) str() string { return string(r.take(r.u32())) }

// count reads a count of items that take at least size bytes each, or 0
// when the bytes left cannot hold that many.
func (r *segmentReader) count(size int) int {
	n := r.u32()
	if n > len(r.data)/size {
		r.fail()
		return 0
	}
	return n
}

// strs reads a count and that many strings, nil for none.
func (r *segmentReader) strs() []string {
	n := r.count(4)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.str()
	}
	return ss
}

// words copies n words into one new slice.
func (r *segmentReader) words(n int) []uint64 {
	if n < 0 || n > len(r.data)/8 {
		r.fail()
		return nil
	}
	b := r.take(8 * n)
	ws := make([]uint64, n)
	for i := range ws {
		ws[i] = le.Uint64(b[8*i:])
	}
	return ws
}

// DecodeSegment parses a segment serialized by Encode. The bytes come from
// the deep store, which lends them: the decoder copies what it keeps and
// writes nothing into them, and a segment a query could crash on is an
// error. Every count is held to the bytes left before anything is allocated
// for it; a column's code words, its posting lists' words and its string
// dictionary's bytes are one allocation each. The decoded segment must pass check, and a star-tree
// is then rebuilt from its columns.
func DecodeSegment(data []byte) (*Segment, error) {
	s, cfg, err := decodeSegment(data)
	if err == nil {
		err = s.check()
	}
	if err == nil && cfg != nil {
		s.Tree, err = buildStarTree(s, *cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("olap: decoding segment: %w", err)
	}
	return s, nil
}

// decodeSegment reads the layout into a segment and its star-tree
// configuration, nil when it has none.
func decodeSegment(data []byte) (*Segment, *StarTreeConfig, error) {
	r := segmentReader{data: data}
	if string(r.take(len(segmentMagic))) != segmentMagic {
		return nil, nil, errors.New("not a segment")
	}
	if v := r.u8(); v != segmentVersion {
		return nil, nil, fmt.Errorf("format version %d, not %d", v, segmentVersion)
	}
	s := &Segment{Name: r.str()}
	s.Partition = int(r.u64())
	s.NumRows = r.u32()
	s.MinTime = int64(r.u64())
	s.MaxTime = int64(r.u64())
	sc := &metadata.Schema{Name: r.str()}
	sc.Version = int(r.u64())
	sc.Fields = make([]metadata.Field, r.count(6)) // a length, a type and flags
	columns := 0
	for i := range sc.Fields {
		f := &sc.Fields[i]
		f.Name = r.str()
		f.Type = metadata.FieldType(r.u8())
		flags := r.u8()
		if flags&^(fieldNullable|fieldDimension) != 0 {
			return nil, nil, fmt.Errorf("field %q has flags %#x", f.Name, flags)
		}
		f.Nullable, f.Dimension = flags&fieldNullable != 0, flags&fieldDimension != 0
		if f.Type != metadata.TypeBytes {
			columns++
		}
	}
	sc.TimeField = r.str()
	sc.PrimaryKey = r.str()
	s.Schema = sc
	var cfg *StarTreeConfig
	switch tree := r.u8(); tree {
	case 0:
	case 1:
		cfg = &StarTreeConfig{Dimensions: r.strs(), Metrics: r.strs(), MaxLeafRecords: r.u32()}
		if cfg.MaxLeafRecords == 0 && r.err == nil {
			return nil, nil, errors.New("star-tree leaves of no rows")
		}
	default:
		return nil, nil, fmt.Errorf("star-tree marker %d", tree)
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	cols := make([]column, columns)
	s.Columns = make(map[string]*column, columns)
	for _, f := range sc.Fields {
		if f.Type == metadata.TypeBytes {
			continue
		}
		c := &cols[0]
		cols = cols[1:]
		if err := c.decode(&r, f, s.NumRows); err != nil {
			return nil, nil, fmt.Errorf("column %q: %w", f.Name, err)
		}
		s.Columns[f.Name] = c
	}
	if r.err == nil && len(r.data) > 0 {
		return nil, nil, fmt.Errorf("%d bytes past the last column", len(r.data))
	}
	return s, cfg, r.err
}

// decode reads the column of field f over rows rows.
func (c *column) decode(r *segmentReader, f metadata.Field, rows int) error {
	flags := r.u8()
	if flags&^(columnSorted|columnInverted) != 0 {
		return fmt.Errorf("flags %#x", flags)
	}
	c.Field, c.Sorted = f, flags&columnSorted != 0
	c.Dict.Typ = f.Type
	switch f.Type {
	case metadata.TypeString:
		// The lengths are summed against the bytes left before the values
		// are cut: a length is at least one byte, and no sum passes the end.
		n := r.count(1)
		lens, size := r.data, 0
		for range n {
			l := r.uvarint()
			if l > uint64(len(r.data)) || size > len(r.data)-int(l) {
				r.fail()
				break
			}
			size += int(l)
		}
		lens = lens[:len(lens)-len(r.data)]
		// One string holds every value; each value is a substring of it.
		blob := string(r.take(size))
		if r.err != nil {
			return r.err
		}
		c.Dict.Strs = make([]string, n)
		start := 0
		for i := range c.Dict.Strs {
			l, k := binary.Uvarint(lens)
			lens = lens[k:]
			c.Dict.Strs[i], start = blob[start:start+int(l)], start+int(l)
		}
	case metadata.TypeDouble:
		c.Dict.Nums = make([]float64, r.count(8))
		for i := range c.Dict.Nums {
			c.Dict.Nums[i] = math.Float64frombits(r.u64())
		}
	default:
		c.Dict.Ints = make([]int64, r.count(8))
		for i := range c.Dict.Ints {
			c.Dict.Ints[i] = int64(r.u64())
		}
	}
	c.Codes = packedInts{Bits: uint(r.u8()), N: rows}
	c.Codes.Data = r.words(r.u32())
	if flags&columnInverted != 0 {
		// One array holds every posting list's words; each list is a
		// window of it whose capacity ends where the list does.
		codes, per := c.Dict.size(), (rows+63)/64
		words := r.words(codes * per)
		if r.err != nil {
			return r.err
		}
		lists := make([]Bitmap, codes)
		c.Inverted = make([]*Bitmap, codes)
		for i := range lists {
			lists[i] = Bitmap{Words: words[i*per : (i+1)*per : (i+1)*per], N: rows}
			c.Inverted[i] = &lists[i]
		}
	}
	return r.err
}
