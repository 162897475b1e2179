package olap

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/metadata"
	"repro/internal/record"
)

// Vectorized scan kernels: instead of materializing one bitmap of every
// matching row and walking it row-at-a-time, a scan runs in windows of
// BatchRows rows. Filter kernels evaluate on dictionary *codes* where a
// column has them (an equality is one int compare, a range over a sorted
// dictionary is a code interval — no value decoding at all) and on the raw
// numeric vector where it does not, and a selection vector of surviving row
// ids flows from the filter kernels into the aggregate/gather kernels.
// A filter on a sealed column that carries an inverted index or the
// sorted-column property compiles like any other and, unless it is a !=
// (which keeps most rows and runs as a kernel), is then resolved through the
// index (predBitmap) into a base bitmap once up front, so the kernels never
// regress the E4 index wins.
//
// The same pipeline scans sealed segments and consuming ones. The kernels
// see a column only through a colView, which names one of three physical
// layouts; every layout switch sits outside a row loop.
//
// A code layout reaches the filter kernel, the grouper, the folds and the
// gather as a code block: colView.codes returns the selected rows' codes as
// one []uint32 — a contiguous run of a bit-packed column unpacked by the
// block, each 64-bit word read once; a dense column's own slice; a sparse
// selection read row by row — into the scan's pooled [BatchRows]uint32
// (scanScratch.block). A code is also the row's NULL flag: NULL is the
// column's null code, the dictionary size on a sealed column. Over a coded
// measure the fold runs one loop per aggregate kind (foldCodes) and writes
// only what that kind's answer reads.
// Compaction's gather reads through the same block, and the star-tree build
// and Segment.check unpack a whole column by it (packedInts.eachBlock).

// BatchRows is the scan window width: selection vectors and streamed row
// batches hold at most this many rows. Large enough to amortize per-batch
// overhead, small enough that a batch of any realistic row width stays in
// cache and the engine's resident set stays O(BatchRows), not O(table).
const BatchRows = 4096

// colLayout names the physical layout behind a colView.
type colLayout uint8

const (
	// layoutPacked is a sealed column of any type: bit-packed codes into a
	// sorted dictionary, NULL coded as the dictionary size.
	layoutPacked colLayout = iota
	// layoutDense is a consuming string column: one uint32 code per row into
	// an insertion-ordered dictionary, NULL coded as 0.
	layoutDense
	// layoutInts is a consuming long, timestamp or bool (0/1) column: the
	// raw values, with an optional presence vector.
	layoutInts
	// layoutFloats is a consuming double column.
	layoutFloats
)

// colView is the read-only face of one column that the kernels scan
// through. A view of a consuming column is a prefix snapshot: slice headers
// captured under the deployment lock, read outside it (see mutableSegment).
type colView struct {
	name   string
	typ    metadata.FieldType
	layout colLayout

	// Code layouts. null is the code standing for NULL.
	packed *packedInts
	dict   *dictionary // layoutPacked
	dense  []uint32
	strs   []string // layoutDense dictionary by code; strs[0] is the NULL slot
	null   int

	// Raw layouts. present[i] reports row i non-NULL; nil means every row is.
	ints    []int64
	floats  []float64
	present []bool

	// indexed is the sealed column when it has an inverted index or is the
	// sorted column: its compiled filters resolve through predBitmap, not a
	// kernel.
	indexed *column
}

// coded reports whether rows carry dictionary codes.
func (v *colView) coded() bool { return v.layout <= layoutDense }

// numCodes is the size of the code space, the NULL code included.
func (v *colView) numCodes() int {
	if v.layout == layoutPacked {
		return v.null + 1
	}
	return len(v.strs)
}

// code returns row i's dictionary code (code layouts only).
func (v *colView) code(i int) int {
	if v.layout == layoutPacked {
		return v.packed.Get(i)
	}
	return int(v.dense[i])
}

// codes returns the code of row off+sel[j] at position j, for every j of a
// selection vector (strictly increasing ids). A contiguous selection —
// every row of a window, before a filter removed any — is unpacked by the
// block into buf, or on a dense column is its own code slice, no copy; a
// sparse one is read row by row into buf (packedInts.getEach). The result
// is valid until buf is written again.
func (v *colView) codes(off int, sel []int32, buf []uint32) []uint32 {
	n := len(sel)
	if n == 0 {
		return nil
	}
	start := off + int(sel[0])
	contiguous := int(sel[n-1]-sel[0]) == n-1
	out := buf[:n]
	switch {
	case v.layout == layoutDense && contiguous:
		return v.dense[start : start+n]
	case contiguous:
		v.packed.unpack(out, start)
	case v.layout == layoutDense:
		dense := v.dense[off:]
		for j, i := range sel {
			out[j] = dense[i]
		}
	default:
		v.packed.getEach(out, off, sel)
	}
	return out
}

// scanScratch is one scan's working memory, recycled through scratchPool: a
// scan takes one with its selection stream and hands it back when it ends,
// so a scan allocates none of it. Every kernel of the scan reads its codes
// through block in turn (colView.codes); sel is the selection vector; the
// grouper keeps its slots, id → slot table or key index, accumulators,
// first rows and touched ids here. Between scans table and accs are all zero
// and index is empty: release clears only what the scan wrote, so its cost
// follows the groups touched, not the code space. Compaction, Segment.check
// and the star-tree build read whole columns through block alone.
type scanScratch struct {
	block [BatchRows]uint32
	sel   [BatchRows]int32
	slots [BatchRows]int32
	table []int32         // the code-space grouper's id → slot table
	index record.KeyIndex // the keyed grouper's groups, emptied with its tables kept
	accs  []aggState      // the grouper's accumulators; len is the prefix in use
	first []int32         // first[slot] is the group's first row
	ids   []int32         // ids[slot] is the table entry the group took
	keys  []record.Vector // the groups' keys, until partial copies out the rows kept
	rows  []int32         // the groups' positions, for the trim and the key order
	rank  [1]rankTerm     // the trim's ranking of them
}

var scratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// getScratch takes a scratch from the pool; put hands it back.
func getScratch() *scanScratch { return scratchPool.Get().(*scanScratch) }

// release clears what the last scan wrote: the table entries its groups
// took or the key index, the accumulator prefix they used, DISTINCTCOUNT
// sets included, and the strings of its keys, so nothing a partial holds
// stays reachable from the pool.
func (s *scanScratch) release() {
	for _, id := range s.ids {
		s.table[id] = 0
	}
	s.index.Reset()
	clear(s.accs)
	for i := range s.keys {
		clear(s.keys[i].Strs)
		s.keys[i].Reset(metadata.TypeInvalid)
	}
	s.accs, s.first, s.ids, s.keys = s.accs[:0], s.first[:0], s.ids[:0], s.keys[:0]
}

// put releases the scratch and returns it to the pool.
func (s *scanScratch) put() {
	s.release()
	scratchPool.Put(s)
}

// codeStr is a string column's value for a non-NULL code.
func (v *colView) codeStr(code int) string {
	if v.layout == layoutPacked {
		return v.dict.Strs[code]
	}
	return v.strs[code]
}

// appendCode appends the value of one dictionary code to out, typed as
// gather types it: the NULL code appends a NULL.
func (v *colView) appendCode(out *record.Vector, code int) {
	switch {
	case code == v.null:
		out.AppendNulls(1)
	case v.typ == metadata.TypeString:
		out.Strs = append(out.Strs, v.codeStr(code))
	case v.dict.Typ == metadata.TypeDouble:
		out.Floats = append(out.Floats, v.dict.Nums[code])
	default:
		out.Ints = append(out.Ints, v.dict.Ints[code])
	}
}

// cellKey is row i's group key as a number: its code in a code layout,
// which within one segment stands for one value, its record.CanonBits in a
// raw one. ok is false for NULL.
func (v *colView) cellKey(i int) (num uint64, ok bool) {
	switch {
	case v.coded():
		code := v.code(i)
		return uint64(code), code != v.null
	case v.present != nil && !v.present[i]:
		return 0, false
	}
	return record.CanonBits(v.num(i)), true
}

// isNull reports row i of a raw column NULL.
func (v *colView) isNull(i int) bool { return v.present != nil && !v.present[i] }

// num returns row i of a raw numeric column as the float64 every numeric
// comparison and aggregation works in (sealed dictionaries hold the same).
func (v *colView) num(i int) float64 {
	if v.layout == layoutFloats {
		return v.floats[i]
	}
	return float64(v.ints[i])
}

// gather appends the selected rows to out, after the rows it holds, typed by
// the column: codes become their dictionary's strings or numbers, raw
// vectors are copied, and an empty out takes the column's type. sel holds
// strictly increasing row ids, as many as it likes: a code layout reads
// their codes through buf (colView.codes) up to len(buf) rows at a time.
// The layout switch is outside the row loops.
func (v *colView) gather(out *record.Vector, sel []int32, buf []uint32) {
	at := out.Len()
	if at == 0 {
		out.Reset(v.typ)
	}
	out.Grow(len(sel))
	switch {
	case v.layout == layoutDense:
		out.Strs = gatherCodes(v, out, at, out.Strs, v.strs, sel, buf)
	case v.layout == layoutFloats:
		out.Floats = gatherRaw(out, at, out.Floats, v.floats, v.present, sel)
	case v.layout == layoutInts:
		out.Ints = gatherRaw(out, at, out.Ints, v.ints, v.present, sel)
	case v.dict.Typ == metadata.TypeString:
		out.Strs = gatherCodes(v, out, at, out.Strs, v.dict.Strs, sel, buf)
	case v.dict.Typ == metadata.TypeDouble:
		out.Floats = gatherCodes(v, out, at, out.Floats, v.dict.Nums, sel, buf)
	default:
		out.Ints = gatherCodes(v, out, at, out.Ints, v.dict.Ints, sel, buf)
	}
}

// gatherCodes appends the dictionary value of each selected row's code to
// dst, the zero value for the NULL code; out's row at+j is sel[j].
func gatherCodes[T any](v *colView, out *record.Vector, at int, dst, dict []T, sel []int32, buf []uint32) []T {
	var zero T
	null := uint32(v.null)
	for len(sel) > 0 {
		n := min(len(sel), len(buf))
		for j, code := range v.codes(0, sel[:n], buf) {
			if code != null {
				dst = append(dst, dict[code])
			} else {
				dst = append(dst, zero)
				out.SetNull(at + j)
			}
		}
		sel, at = sel[n:], at+n
	}
	return dst
}

// gatherRaw appends each selected row of a raw vector to dst; a row present
// marks absent holds the zero value the store wrote for it. out's row at+j
// is sel[j].
func gatherRaw[T any](out *record.Vector, at int, dst, vals []T, present []bool, sel []int32) []T {
	for _, i := range sel {
		dst = append(dst, vals[i])
	}
	if present != nil {
		for j, i := range sel {
			if !present[i] {
				out.SetNull(at + j)
			}
		}
	}
	return dst
}

// scanSet is the unit every kernel scans: n rows of named column views plus
// the time bounds that let a time range holding them be skipped
// (unitFilters). A sealed Segment
// and the prefix snapshot of a consuming segment both present as one.
type scanSet struct {
	n                int
	schema           *metadata.Schema
	cols             []colView // queryable (non-blob) schema fields, in schema order
	minTime, maxTime int64
}

func (sc *scanSet) col(name string) *colView {
	for i := range sc.cols {
		if sc.cols[i].name == name {
			return &sc.cols[i]
		}
	}
	return nil
}

// selectable lists the columns SELECT * expands to: every schema field but
// the blobs, which no layout encodes.
func selectable(schema *metadata.Schema) []string {
	names := make([]string, 0, len(schema.Fields))
	for _, f := range schema.Fields {
		if f.Type != metadata.TypeBytes {
			names = append(names, f.Name)
		}
	}
	return names
}

// UnknownColumnError reports a query naming a column the table cannot
// serve in that role: not in the schema, or a TypeBytes blob, which is
// stored nowhere queryable. The same error whether the rows are consuming
// or sealed.
type UnknownColumnError struct {
	Role   string // "filter", "group-by", "aggregation" or "select"
	Column string
}

func (e *UnknownColumnError) Error() string {
	return fmt.Sprintf("olap: unknown %s column %q", e.Role, e.Column)
}

// predKind enumerates compiled predicate shapes.
type predKind uint8

const (
	// predNever matches nothing (literal not in the dictionary, empty range).
	predNever predKind = iota
	// predEq keeps rows whose code equals eq.
	predEq
	// predNe keeps rows whose code (value) differs from eq and is not null.
	predNe
	// predRange keeps rows whose code lies in [lo, hi) — or, on a raw
	// numeric vector, whose value lies in [lo, hi], both ends included.
	predRange
	// predIn keeps rows whose code is set in the in table (whose value is
	// in the list).
	predIn
)

// codePred is one filter compiled against a column's dictionary: the
// predicate the kernel evaluates per row is a comparison on the code, never
// on the decoded value.
type codePred struct {
	kind   predKind
	lo, hi int    // predRange bounds, half-open
	eq     int    // predEq / predNe target code (-1: value absent, predNe only)
	null   int    // the column's null code
	in     []bool // predIn membership, indexed by code (null entry false)
}

// numPred is one filter over a raw numeric vector: a direct compare.
type numPred struct {
	kind   predKind
	lo, hi float64   // predRange bounds, inclusive; predNe target in lo
	in     []float64 // predIn list
}

// kernelFilter pairs a compiled predicate with the column it reads.
type kernelFilter struct {
	col  *colView
	code codePred // code layouts
	num  numPred  // raw layouts
}

// rangeCodeBounds resolves a range filter to the half-open dictionary code
// interval [lo, hi) it matches, including the strict-bound adjustments for
// OpLt/OpGt: a strict bound drops the codes equal to it.
func rangeCodeBounds(d *dictionary, f Filter) (int, int) {
	var min, max any
	switch f.Op {
	case OpLt, OpLe:
		max = normalizeFilterValue(d.Typ, f.Value)
	case OpGt, OpGe:
		min = normalizeFilterValue(d.Typ, f.Value)
	case OpBetween:
		min = normalizeFilterValue(d.Typ, f.Value)
		max = normalizeFilterValue(d.Typ, f.Value2)
	}
	lo, hi := d.codeRange(min, max)
	if f.Op == OpLt {
		if eqLo, eqHi := d.span(max); eqLo < eqHi && eqHi == hi {
			hi = eqLo
		}
	}
	if f.Op == OpGt {
		if eqLo, eqHi := d.span(min); eqLo < eqHi && eqLo == lo {
			lo = eqHi
		}
	}
	return lo, hi
}

// compileCodePred compiles one filter against a sorted dictionary — the one
// place a literal meets a sealed dictionary, whether the predicate then runs
// as a kernel or is resolved through the column's index. A literal equals a
// span of codes (dictionary.span): one code, or on an integer column several
// longs that are one float64. The null code (dictionary size) can never
// satisfy predEq/predRange/predIn because codes of real values are < size and
// range bounds stop at size; predNe excludes it explicitly (SQL semantics:
// NULL matches neither = nor !=).
func compileCodePred(d *dictionary, f Filter) (codePred, error) {
	null := d.size()
	switch f.Op {
	case OpEq:
		lo, hi := d.span(normalizeFilterValue(d.Typ, f.Value))
		switch {
		case lo == hi:
			return codePred{kind: predNever}, nil
		case hi == lo+1:
			return codePred{kind: predEq, eq: lo}, nil
		}
		return codePred{kind: predRange, lo: lo, hi: hi}, nil
	case OpNe:
		lo, hi := d.span(normalizeFilterValue(d.Typ, f.Value))
		switch {
		case lo == hi:
			return codePred{kind: predNe, eq: -1, null: null}, nil
		case hi == lo+1:
			return codePred{kind: predNe, eq: lo, null: null}, nil
		}
		in := make([]bool, null+1)
		for code := range null {
			in[code] = code < lo || code >= hi
		}
		return codePred{kind: predIn, in: in}, nil
	case OpIn:
		in := make([]bool, null+1)
		matched := false
		for _, v := range f.Values {
			lo, hi := d.span(normalizeFilterValue(d.Typ, v))
			for code := lo; code < hi; code++ {
				in[code] = true
				matched = true
			}
		}
		if !matched {
			return codePred{kind: predNever}, nil
		}
		return codePred{kind: predIn, in: in}, nil
	case OpLt, OpLe, OpGt, OpGe, OpBetween:
		lo, hi := rangeCodeBounds(d, f)
		if lo >= hi {
			return codePred{kind: predNever}, nil
		}
		return codePred{kind: predRange, lo: lo, hi: hi}, nil
	default:
		return codePred{}, fmt.Errorf("olap: unsupported filter op %d", f.Op)
	}
}

// compileDictPred compiles one filter against an insertion-ordered string
// dictionary. Codes carry no order there, so anything but an equality
// becomes a membership table: the predicate is evaluated once per
// dictionary entry, never per row. Literals normalize exactly as on a
// sealed string column. Readers never touch the writer's hash table;
// an equality finds its code by scanning the snapshotted entries.
func compileDictPred(strs []string, f Filter) (codePred, error) {
	lit := func(v any) string { return normalizeFilterValue(metadata.TypeString, v).(string) }
	var match func(s string) bool
	switch f.Op {
	case OpEq, OpNe:
		want, code := lit(f.Value), -1
		for c := 1; c < len(strs); c++ {
			if strs[c] == want {
				code = c
				break
			}
		}
		if f.Op == OpNe {
			return codePred{kind: predNe, eq: code}, nil
		}
		if code < 0 {
			return codePred{kind: predNever}, nil
		}
		return codePred{kind: predEq, eq: code}, nil
	case OpIn:
		wants := make([]string, len(f.Values))
		for i, v := range f.Values {
			wants[i] = lit(v)
		}
		match = func(s string) bool {
			for _, w := range wants {
				if s == w {
					return true
				}
			}
			return false
		}
	case OpLt:
		max := lit(f.Value)
		match = func(s string) bool { return s < max }
	case OpLe:
		max := lit(f.Value)
		match = func(s string) bool { return s <= max }
	case OpGt:
		min := lit(f.Value)
		match = func(s string) bool { return s > min }
	case OpGe:
		min := lit(f.Value)
		match = func(s string) bool { return s >= min }
	case OpBetween:
		min, max := lit(f.Value), lit(f.Value2)
		match = func(s string) bool { return s >= min && s <= max }
	default:
		return codePred{}, fmt.Errorf("olap: unsupported filter op %d", f.Op)
	}
	in := make([]bool, len(strs))
	matched := false
	for c := 1; c < len(strs); c++ {
		if match(strs[c]) {
			in[c] = true
			matched = true
		}
	}
	if !matched {
		return codePred{kind: predNever}, nil
	}
	return codePred{kind: predIn, in: in}, nil
}

// compileNumPred compiles one filter for a raw numeric vector. It mirrors
// what the sorted numeric dictionary does with the same literal: values
// compare as float64, a literal that is not a number can equal nothing and
// bounds nothing (that side of the range stays open).
func compileNumPred(f Filter) (numPred, error) {
	lo, hi := math.Inf(-1), math.Inf(1)
	x, isNum := toF64(f.Value)
	switch f.Op {
	case OpEq:
		if !isNum {
			return numPred{kind: predNever}, nil
		}
		lo, hi = x, x
	case OpNe:
		if isNum {
			return numPred{kind: predNe, lo: x}, nil
		}
	case OpIn:
		var in []float64
		for _, v := range f.Values {
			if x, ok := toF64(v); ok {
				in = append(in, x)
			}
		}
		if len(in) == 0 {
			return numPred{kind: predNever}, nil
		}
		return numPred{kind: predIn, in: in}, nil
	case OpLt, OpLe:
		if isNum {
			hi = x
			if f.Op == OpLt {
				hi = math.Nextafter(x, math.Inf(-1))
			}
		}
	case OpGt, OpGe, OpBetween:
		if isNum {
			lo = x
			if f.Op == OpGt {
				lo = math.Nextafter(x, math.Inf(1))
			}
		}
		if y, ok := toF64(f.Value2); ok && f.Op == OpBetween {
			hi = y
		}
	default:
		return numPred{}, fmt.Errorf("olap: unsupported filter op %d", f.Op)
	}
	if lo > hi {
		return numPred{kind: predNever}, nil
	}
	return numPred{kind: predRange, lo: lo, hi: hi}, nil
}

// compileFilter compiles one filter for the column's layout. never reports
// a predicate that can match no row.
func compileFilter(c *colView, f Filter) (k kernelFilter, never bool, err error) {
	k.col = c
	switch c.layout {
	case layoutPacked:
		k.code, err = compileCodePred(c.dict, f)
		never = k.code.kind == predNever
	case layoutDense:
		k.code, err = compileDictPred(c.strs, f)
		never = k.code.kind == predNever
	default:
		k.num, err = compileNumPred(f)
		never = k.num.kind == predNever
	}
	return k, never, err
}

// filterSel refines a selection vector in place through one predicate. sel
// holds row ids relative to off; a code layout's kernel reads the selected
// rows' codes through buf (colView.codes). The kernels compact by storing
// every candidate and advancing past the ones that match: at a dashboard
// filter's selectivity (one row in two to one in twenty) the unconditional
// store is cheaper than a branch the predictor keeps missing.
func (k *kernelFilter) filterSel(off int, sel []int32, buf []uint32) []int32 {
	if !k.col.coded() {
		return filterNum(k.col, k.num, off, sel)
	}
	return filterCodes(k.col.codes(off, sel, buf), k.code, sel)
}

// filterCodes keeps the rows of sel whose code, codes[j] for row sel[j],
// satisfies pr. One kernel serves both code layouts: NULL is pr.null on a
// sealed column and 0 on a dense one, and the compiler emits predRange for
// sorted dictionaries only.
func filterCodes(codes []uint32, pr codePred, sel []int32) []int32 {
	codes = codes[:len(sel)]
	k := 0
	switch pr.kind {
	case predEq:
		eq := uint32(pr.eq)
		for j, i := range sel {
			sel[k] = i
			if codes[j] == eq {
				k++
			}
		}
	case predNe:
		eq, null := uint32(pr.eq), uint32(pr.null)
		for j, i := range sel {
			sel[k] = i
			if c := codes[j]; c != eq && c != null {
				k++
			}
		}
	case predRange:
		lo, width := uint32(pr.lo), uint32(pr.hi-pr.lo)
		for j, i := range sel {
			sel[k] = i
			if codes[j]-lo < width {
				k++
			}
		}
	case predIn:
		for j, i := range sel {
			sel[k] = i
			if pr.in[codes[j]] {
				k++
			}
		}
	}
	return sel[:k]
}

// filterNum is the direct compare kernel over a raw numeric vector.
func filterNum(c *colView, pr numPred, off int, sel []int32) []int32 {
	if c.present != nil {
		k := 0
		for _, i := range sel {
			sel[k] = i
			if c.present[off+int(i)] {
				k++
			}
		}
		sel = sel[:k]
	}
	k := 0
	switch pr.kind {
	case predRange:
		if c.layout == layoutFloats {
			for _, i := range sel {
				sel[k] = i
				if x := c.floats[off+int(i)]; x >= pr.lo && x <= pr.hi {
					k++
				}
			}
			break
		}
		for _, i := range sel {
			sel[k] = i
			if x := float64(c.ints[off+int(i)]); x >= pr.lo && x <= pr.hi {
				k++
			}
		}
	case predNe:
		for _, i := range sel {
			sel[k] = i
			if c.num(off+int(i)) != pr.lo {
				k++
			}
		}
	case predIn:
		for _, i := range sel {
			sel[k] = i
			x := c.num(off + int(i))
			for _, want := range pr.in {
				if x == want {
					k++
					break
				}
			}
		}
	}
	return sel[:k]
}

// appendSetBits appends the positions of set bits in [lo, hi) to sel,
// word-at-a-time.
func appendSetBits(sel []int32, b *Bitmap, lo, hi int) []int32 {
	if lo >= hi {
		return sel
	}
	for w := lo / 64; w <= (hi-1)/64 && w < len(b.Words); w++ {
		word := b.Words[w]
		if word == 0 {
			continue
		}
		base := w * 64
		if base < lo {
			word &= ^uint64(0) << (lo - base)
		}
		if base+64 > hi {
			word &= (uint64(1) << (hi - base)) - 1
		}
		for word != 0 {
			sel = append(sel, int32(base+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return sel
}

// identitySel is the selection vector of a whole window, relative to the
// window start: the kernels' first input is a copy of it rather than a
// filled loop.
var identitySel = func() (s [BatchRows]int32) {
	for i := range s {
		s[i] = int32(i)
	}
	return s
}()

// selStream drives one scan as a sequence of selection vectors. Indexed
// filters (inverted / sorted columns) but != are folded into one base bitmap
// up front; every other filter becomes a kernel applied per window; the upsert
// validity bitmap masks last, so dropped counts exactly the rows that
// matched the filters and were superseded. The scan's scratch rides along:
// the filter kernels read codes through its block, and so do the grouper
// and the folds of each batch next returns.
type selStream struct {
	n       int
	base    *Bitmap // nil: every row is a candidate
	kernels []kernelFilter
	valid   *Bitmap
	dead    bool // a predicate can never match; the stream is empty
	s       *scanScratch

	pos     int
	sel     []int32
	kept    int64 // rows surviving filters and the valid mask
	dropped int64 // rows the valid mask removed
}

// newSelStream compiles the filters against this scan set. An indexed
// filter's bitmap may be a posting list of the index itself, which the
// stream only reads: the base is copied only when a second indexed filter
// is intersected into it. The caller ends the stream with release.
func (sc *scanSet) newSelStream(filters []Filter, valid *Bitmap) (*selStream, error) {
	ss := &selStream{n: sc.n, valid: valid}
	shared := false // base is a posting list
	for _, f := range filters {
		c := sc.col(f.Column)
		if c == nil {
			return nil, &UnknownColumnError{Role: "filter", Column: f.Column}
		}
		k, never, err := compileFilter(c, f)
		if err != nil {
			return nil, err
		}
		switch {
		case never:
			ss.dead = true
		case c.indexed == nil || k.code.kind == predNe:
			ss.kernels = append(ss.kernels, k)
		case ss.base == nil:
			ss.base, shared = c.indexed.predBitmap(sc.n, k.code)
		default:
			bm, bmShared := c.indexed.predBitmap(sc.n, k.code)
			switch {
			case !shared:
			case !bmShared:
				ss.base, bm = bm, ss.base
			default:
				ss.base = ss.base.Clone()
			}
			ss.base.And(bm)
			shared = false
		}
	}
	ss.s = getScratch()
	ss.sel = ss.s.sel[:0]
	return ss, nil
}

// release hands the stream's scratch back; the stream is done.
func (ss *selStream) release() {
	ss.s.put()
	ss.s, ss.sel = nil, nil
}

// next returns the next non-empty selection vector, or nil at end of scan.
// The returned slice is reused by the following next call — the caller
// must consume it first.
func (ss *selStream) next() []int32 {
	if ss.dead {
		ss.pos = ss.n
		return nil
	}
	for ss.pos < ss.n {
		end := ss.pos + BatchRows
		if end > ss.n {
			end = ss.n
		}
		// Kernels work on ids relative to off; only survivors are rebased.
		off := 0
		var sel []int32
		if ss.base != nil {
			sel = appendSetBits(ss.sel[:0], ss.base, ss.pos, end)
		} else {
			off = ss.pos
			sel = ss.sel[:end-off]
			copy(sel, identitySel[:])
		}
		for i := range ss.kernels {
			if len(sel) == 0 {
				break
			}
			sel = ss.kernels[i].filterSel(off, sel, ss.s.block[:])
		}
		if off != 0 {
			for j := range sel {
				sel[j] += int32(off)
			}
		}
		if ss.valid != nil && len(sel) > 0 {
			kept := sel[:0]
			for _, i := range sel {
				if ss.valid.Get(int(i)) {
					kept = append(kept, i)
				}
			}
			ss.dropped += int64(len(sel) - len(kept))
			sel = kept
		}
		ss.pos = end
		if len(sel) > 0 {
			ss.kept += int64(len(sel))
			return sel
		}
	}
	return nil
}

// aggCursor pre-resolves one aggregation's column so the fold kernels touch
// no maps per row.
type aggCursor struct {
	kind      AggKind
	countStar bool
	col       *colView
}

// fold folds one batch into aggregation ai of each selected row's group:
// slots[j] is the accumulator slot of row sel[j], and slot s's aggregations
// are accs[s*naggs : (s+1)*naggs]. Rows of one group fold in row order, so
// float sums come out the same whatever the batch boundaries. A coded
// measure's codes are read through buf (colView.codes).
func (ac *aggCursor) fold(accs []aggState, naggs, ai int, slots, sel []int32, buf []uint32) {
	c := ac.col
	accs = accs[ai:]
	switch {
	case ac.countStar:
		for _, s := range slots {
			accs[int(s)*naggs].Count++
		}
	case c.coded():
		ac.foldCodes(accs, naggs, slots, c.codes(0, sel, buf))
	case ac.kind == AggCount:
		for j, i := range sel {
			if !c.isNull(int(i)) {
				accs[int(slots[j])*naggs].Count++
			}
		}
	case ac.kind == AggDistinctCount:
		for j, i := range sel {
			if !c.isNull(int(i)) {
				accs[int(slots[j])*naggs].addNum(c.num(int(i)))
			}
		}
	case c.present == nil:
		for j, i := range sel {
			accs[int(slots[j])*naggs].Add(c.num(int(i)))
		}
	default:
		for j, i := range sel {
			if c.present[i] {
				accs[int(slots[j])*naggs].Add(c.num(int(i)))
			}
		}
	}
}

// foldCodes is fold over a coded measure, codes[j] being row sel[j]'s. It
// runs one loop per aggregation kind and writes only what that kind's
// answer reads (record.Agg.Final): COUNT the count, SUM and AVG the count
// and the sum, MIN or MAX the count and its one bound. A partial's states
// are only ever read, merged and cached under their own kinds, so the
// fields a kind leaves unset are never seen.
func (ac *aggCursor) foldCodes(accs []aggState, naggs int, slots []int32, codes []uint32) {
	c := ac.col
	null := uint32(c.null)
	switch {
	case ac.kind == AggCount:
		for j, code := range codes {
			if code != null {
				accs[int(slots[j])*naggs].Count++
			}
		}
	case ac.kind == AggDistinctCount && c.typ == metadata.TypeString:
		for j, code := range codes {
			if code != null {
				accs[int(slots[j])*naggs].addStr(c.codeStr(int(code)))
			}
		}
	case ac.kind == AggDistinctCount:
		for j, code := range codes {
			if code != null {
				accs[int(slots[j])*naggs].addNum(c.dict.num(int(code)))
			}
		}
	case c.dict.Typ == metadata.TypeDouble:
		foldNums(ac.kind, accs, naggs, slots, codes, null, c.dict.Nums)
	default:
		foldNums(ac.kind, accs, naggs, slots, codes, null, c.dict.Ints)
	}
}

// foldNums folds SUM, AVG, MIN or MAX over codes into a numeric
// dictionary, skipping the NULL code.
func foldNums[T float64 | int64](kind AggKind, accs []aggState, naggs int, slots []int32, codes []uint32, null uint32, dict []T) {
	slots = slots[:len(codes)]
	switch kind {
	case AggMin:
		for j, code := range codes {
			if code != null {
				a, v := &accs[int(slots[j])*naggs], float64(dict[code])
				if a.Count == 0 || v < a.Min {
					a.Min = v
				}
				a.Count++
			}
		}
	case AggMax:
		for j, code := range codes {
			if code != null {
				a, v := &accs[int(slots[j])*naggs], float64(dict[code])
				if a.Count == 0 || v > a.Max {
					a.Max = v
				}
				a.Count++
			}
		}
	default: // AggSum, AggAvg
		for j, code := range codes {
			if code != null {
				a := &accs[int(slots[j])*naggs]
				a.Count++
				a.Sum += float64(dict[code])
			}
		}
	}
}

// maxCodeSpace bounds the id table of a group-by over dictionary codes: the
// product of the columns' code counts may reach this many ids, or one per
// scanned row if that is more (which a single column never exceeds). Past
// it the grouper hashes.
const maxCodeSpace = 1 << 16

// grouper assigns every selected row the accumulator slot of its group and
// keeps groups as slots — an index into one flat accumulator array — until
// the scan is over: then each group's key is gathered, typed, from its first
// row, the top-K trim runs over the typed table, and the groups leave in key
// order (partial). Slots are
// handed out in first-row order, so the array holds exactly the groups that
// have a row. A row finds its slot in one of three ways, chosen once per
// scan:
//
//   - no group-by: one slot;
//   - every group-by column carries dictionary codes and their code space
//     is within maxCodeSpace: the group's id is its code — for several
//     columns the mixed-radix composite of their codes, the NULL code a
//     digit like any other — and a table maps id to slot. No per-row key or
//     hashing: the columnar execution style that gives Pinot its latency
//     edge;
//   - otherwise (a raw numeric column, or a larger code space): a
//     record.KeyIndex numbers the groups — one column by its cell
//     (colView.cellKey), a tuple by its cells spelled by
//     record.AppendCellKey.
//
// Its arrays — slots, table or index, accs, first, ids — belong to the
// scan's scratch and live as long as the scan: partial copies out the rows
// the Partial keeps, and the scratch's release clears the rest.
type grouper struct {
	s     *scanScratch
	cols  []*colView
	naggs int
	n     int // slots in use; slot s's aggregations are s.accs[s*naggs : (s+1)*naggs]

	// Code-space grouping. table[id] is the slot of group id plus one, 0
	// until the group has a row; radix[ci] is the number of codes of column
	// ci.
	table []int32
	radix []int
}

// newGrouper picks the grouping form for the columns of a scan of n rows
// and takes its arrays from the scan's scratch. In the code-space form they
// are sized once: a scan of n rows has at most min(space, n) groups.
func newGrouper(s *scanScratch, cols []*colView, naggs, n int) *grouper {
	g := &grouper{s: s, cols: cols, naggs: naggs}
	if len(cols) == 0 {
		// One group: every row's slot is 0.
		clear(s.slots[:])
		return g
	}
	limit := max(maxCodeSpace, n+1)
	space := 1
	g.radix = make([]int, len(cols))
	for ci, c := range cols {
		if !c.coded() || space > limit {
			space = limit + 1
			break
		}
		g.radix[ci] = c.numCodes()
		space *= g.radix[ci]
	}
	if space <= limit {
		if cap(s.table) < space {
			s.table = make([]int32, space)
		}
		g.table = s.table[:space]
		groups := min(space, n)
		if cap(s.accs) < groups*naggs {
			s.accs = make([]aggState, 0, groups*naggs)
		}
		if min(cap(s.first), cap(s.ids)) < groups {
			s.first, s.ids = make([]int32, 0, groups), make([]int32, 0, groups)
		}
	}
	return g
}

// addSlot appends a zeroed accumulator slot for the group of row i, whose
// id in the code-space table is id. Only the keyed and global forms grow
// the array, by doubling; the code-space form sized it up front.
func (g *grouper) addSlot(i, id int32) int32 {
	s := g.s
	need := (g.n + 1) * g.naggs
	if need > cap(s.accs) {
		grown := make([]aggState, len(s.accs), max(2*cap(s.accs), 64*g.naggs))
		copy(grown, s.accs)
		s.accs = grown
	}
	s.accs = s.accs[:need]
	s.first = append(s.first, i)
	if g.table != nil {
		s.ids = append(s.ids, id)
	}
	g.n++
	return int32(g.n - 1)
}

// assign returns the slot of each selected row, valid until the next call.
// Coded columns' codes are read through buf (colView.codes).
func (g *grouper) assign(sel []int32, buf []uint32) []int32 {
	slots := g.s.slots[:len(sel)]
	switch {
	case len(g.cols) == 0:
		// One group: newGrouper zeroed the slots, and nothing writes them.
		if g.n == 0 {
			g.addSlot(sel[0], 0)
		}
		return slots
	case g.table == nil:
		// A row's tuple is spelled into buf, on the stack; a tuple that
		// outgrows it moves to the heap once per batch, not per row.
		var buf [128]byte
		key := buf[:0]
		for j, i := range sel {
			slots[j], key = g.keyed(i, key[:0])
		}
		return slots
	}
	// Ids first, a column at a time, then ids to slots through the table.
	clear(slots)
	for ci, c := range g.cols {
		radix := int32(g.radix[ci])
		for j, code := range c.codes(0, sel, buf) {
			slots[j] = slots[j]*radix + int32(code)
		}
	}
	for j, id := range slots {
		slot := g.table[id]
		if slot == 0 {
			slot = g.addSlot(sel[j], id) + 1
			g.table[id] = slot
		}
		slots[j] = slot - 1
	}
	return slots
}

// keyed finds or creates the slot of row i's group in the key index: one
// column by its cell, several by their cells spelled into key, which it
// returns for the next row.
func (g *grouper) keyed(i int32, key []byte) (int32, []byte) {
	var k int
	var found bool
	if len(g.cols) == 1 {
		num, ok := g.cols[0].cellKey(int(i))
		k, found = g.s.index.AddKey(true, num, nil, ok)
	} else {
		for _, c := range g.cols {
			num, ok := c.cellKey(int(i))
			key = record.AppendCellKey(key, true, num, "", ok)
		}
		k, found = g.s.index.AddKey(false, 0, key, true)
	}
	if !found {
		g.addSlot(i, 0)
	}
	return int32(k), key
}

// codeOrder reports that the code-space ids list the groups in key order
// once each column's NULL code is taken first: every column is sealed, and
// no two codes of a column but the last are one value (two codes of one
// value in a leading column could put a later column's keys out of order
// between them).
func (g *grouper) codeOrder() bool {
	for ci, c := range g.cols {
		if c.layout != layoutPacked || ci < len(g.cols)-1 && !c.dict.tieFree() {
			return false
		}
	}
	return true
}

// partial hands the scan's groups over as the segment's mergeable partial:
// each group's key is gathered, typed, from its first row — no value is
// boxed, and the codes are read through buf — and under a top-K plan the
// table is trimmed by the plan's leading ORDER BY term. The table is built
// in the scratch; the partial is a pooled copy (keep) of the rows it keeps
// — every row when no trim applies — in key order (a walk of the id table
// when codeOrder holds, else sortRows). When two ids can be one group — two
// codes of one value in a sealed dictionary (tieFree) — the copy folds them
// first and the trim cuts it after, so the group ranks whole.
func (g *grouper) partial(tp *topKPlan, buf []uint32) *Partial {
	s := g.s
	s.keys = slices.Grow(s.keys, len(g.cols))[:len(g.cols)]
	all := &Partial{agg: true, naggs: g.naggs, n: g.n, accs: s.accs, keys: s.keys}
	for gi, c := range g.cols {
		c.gather(&all.keys[gi], s.first, buf)
	}
	s.rows = all.positions(s.rows)
	rows, ties := s.rows, g.table != nil && slices.ContainsFunc(g.cols, func(c *colView) bool {
		return c.layout == layoutPacked && !c.dict.tieFree()
	})
	if !ties {
		rows = all.trimRows(tp, rows, s.rank[:])
	}
	if g.table != nil && 16*len(rows) >= len(g.table) && g.codeOrder() {
		// The ids are the codes, column by column, in value order but for
		// NULL, each column's last code: a walk of the id table taking each
		// column's NULL first lists the groups in key order. A kept group's
		// entry is marked first.
		for _, r := range rows {
			g.table[s.ids[r]] = -(r + 1)
		}
		rows = rows[:0]
		var walk func(ci, id int)
		walk = func(ci, id int) {
			if ci == len(g.cols) {
				if slot := g.table[id]; slot < 0 {
					rows = append(rows, -slot-1)
				}
				return
			}
			radix := g.radix[ci]
			walk(ci+1, id*radix+radix-1)
			for code := range radix - 1 {
				walk(ci+1, id*radix+code)
			}
		}
		walk(0, 0)
	} else {
		all.sortRows(rows)
	}
	p := all.keep(rows)
	p.stats.GroupsTrimmed = int64(g.n - len(rows))
	if ties {
		p.trimTopK(nil, tp)
	}
	return p
}
