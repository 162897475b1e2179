package olap

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/metadata"
	"repro/internal/record"
)

// FilterOp enumerates filter predicates.
type FilterOp int

const (
	// OpEq matches column == value.
	OpEq FilterOp = iota
	// OpNe matches column != value.
	OpNe
	// OpLt matches column < value.
	OpLt
	// OpLe matches column <= value.
	OpLe
	// OpGt matches column > value.
	OpGt
	// OpGe matches column >= value.
	OpGe
	// OpIn matches column ∈ Values.
	OpIn
	// OpBetween matches Value <= column <= Value2.
	OpBetween
)

// Filter is one predicate over a column.
type Filter struct {
	Column string
	Op     FilterOp
	Value  any
	Value2 any   // OpBetween upper bound
	Values []any // OpIn set
}

// AggKind enumerates aggregation functions: record's, the one list every
// engine shares.
type AggKind = record.AggKind

// The aggregation functions; see record.AggKind.
const (
	AggCount         = record.AggCount
	AggSum           = record.AggSum
	AggMin           = record.AggMin
	AggMax           = record.AggMax
	AggAvg           = record.AggAvg
	AggDistinctCount = record.AggDistinctCount
)

// AggSpec is one requested aggregation.
type AggSpec struct {
	Kind   AggKind
	Column string // empty for count(*)
	As     string // output name; default kind(column)
}

func (a AggSpec) outName() string {
	if a.As != "" {
		return a.As
	}
	if a.Column == "" {
		return "count"
	}
	return fmt.Sprintf("%s_%s", a.Kind, a.Column)
}

// OrderSpec is one ORDER BY term over an output column.
type OrderSpec struct {
	Column string
	Desc   bool
}

// Query is the structured query the OLAP layer executes — the "limited SQL
// capability" of the Fig 2 OLAP abstraction: filter, aggregate, group-by,
// order-by, limit. Joins and subqueries belong to the SQL layer above
// (fedsql).
type Query struct {
	Table   string
	Filters []Filter
	// GroupBy columns; requires Aggs.
	GroupBy []string
	// Aggs to compute; empty means a selection query returning Select
	// columns.
	Aggs []AggSpec
	// Select columns for selection queries.
	Select  []string
	OrderBy []OrderSpec
	Limit   int
	// Offset skips that many rows after ORDER BY, before Limit applies.
	// Bounded top-K execution keeps Limit+Offset candidates so pagination
	// stays exact.
	Offset int
}

// ExecStats counts work done during execution.
type ExecStats struct {
	// SegmentsScanned counts sealed segments a scan ran on (consuming
	// segments are not counted).
	SegmentsScanned int
	// RowsScanned counts the rows that survived the query's filters and
	// the upsert validity mask — the rows the aggregate and
	// gather kernels then touched — summed over sealed and consuming scans
	// alike. It is not the number of rows examined: a consuming scan's
	// examined count is the rows_in attribute of its trace span. Star-tree
	// answers contribute nothing (no row is scanned).
	RowsScanned    int64
	StarTreeServed int // segments answered from the star-tree
	// SegmentsCached counts sealed segments answered from the broker
	// cache's per-segment partials: no scan ran, so they add nothing to
	// SegmentsScanned or RowsScanned.
	SegmentsCached int
	// ServersContacted is the broker-level fan-out: distinct servers that
	// received a subquery (sealed-segment scans plus consuming-segment
	// scans). Replica-group and partition routing exist to keep it below
	// the server count.
	ServersContacted int
	// PartitionsPruned counts input partitions the router excluded via an
	// equality filter on the table's declared partition column — those
	// partitions' servers were never contacted.
	PartitionsPruned int
	// UpsertFiltered counts rows that matched the filters but were dropped
	// by the upsert validity mask (superseded by a later record of the same
	// key), in sealed and consuming scans alike.
	UpsertFiltered int64
	// SegmentsPruned counts sealed segments skipped (never scanned, never
	// reloaded from the deep store) because their time bounds lie outside
	// the interval the query's filters on the time column keep (timeBounds).
	SegmentsPruned int
	// SegmentsReloaded counts offloaded segments pulled back from the
	// deep store to answer this query.
	SegmentsReloaded int
	// GroupsTrimmed counts candidate groups dropped by per-segment and
	// server-level top-K trims (always 0 under TrimExact).
	GroupsTrimmed int64
	// RowsHeapKept counts the rows an ordered selection's per-segment top-K
	// cut kept instead of materializing every match.
	RowsHeapKept int64
	// GroupsShipped / RowsShipped count what actually crossed the
	// server→broker boundary after any trim — the fan-out cost the top-K
	// path exists to bound (E19).
	GroupsShipped int64
	RowsShipped   int64
	// CacheHit is 1 when this response was served from the broker result
	// cache (no scatter, no scan — every scan counter above is then the
	// cached execution's).
	CacheHit int64
	// Coalesced is 1 when this response was shared from a concurrent
	// identical in-flight execution (singleflight follower).
	Coalesced int64
	// Queued is 1 when this execution waited in the broker's bounded
	// admission queue before running.
	Queued int64
	// Shed is the broker's cumulative count of queries rejected with
	// ErrOverloaded, sampled when this response was produced — a gauge,
	// not a per-query counter (shed queries return errors, not stats).
	Shed int64
	// CacheMemBytes is the broker result cache's resident size when this
	// response was produced — a gauge bounded by BrokerOptions.CacheMaxBytes.
	CacheMemBytes int64
	// ViewHit is 1 when this response was served from a registered
	// materialized view (no scatter, no scan; see internal/olap/matview).
	ViewHit int64
	// ViewStalenessMs is how far behind the table a view-served answer may
	// be, in milliseconds: 0 means the view was exact at serve time; a
	// positive value means the view was re-materializing after a
	// non-incremental mutation and the last consistent snapshot was served
	// within the registry's staleness bound.
	ViewStalenessMs int64
}

// Add accumulates another stats block into this one. The broker assigns
// (rather than sums) ServersContacted and PartitionsPruned after merging,
// since those are per-query routing facts, not per-scan counters; summing
// here is still correct because scan-level partials carry zeroes for them.
func (s *ExecStats) Add(o ExecStats) {
	s.SegmentsScanned += o.SegmentsScanned
	s.RowsScanned += o.RowsScanned
	s.StarTreeServed += o.StarTreeServed
	s.SegmentsCached += o.SegmentsCached
	s.ServersContacted += o.ServersContacted
	s.PartitionsPruned += o.PartitionsPruned
	s.UpsertFiltered += o.UpsertFiltered
	s.SegmentsPruned += o.SegmentsPruned
	s.SegmentsReloaded += o.SegmentsReloaded
	s.GroupsTrimmed += o.GroupsTrimmed
	s.RowsHeapKept += o.RowsHeapKept
	s.GroupsShipped += o.GroupsShipped
	s.RowsShipped += o.RowsShipped
	s.CacheHit += o.CacheHit
	s.Coalesced += o.Coalesced
	s.Queued += o.Queued
	s.ViewHit += o.ViewHit
	// Gauges, not counters: across merged scans (federated joins) keep the
	// largest observation instead of summing snapshots of the same broker.
	if o.Shed > s.Shed {
		s.Shed = o.Shed
	}
	if o.CacheMemBytes > s.CacheMemBytes {
		s.CacheMemBytes = o.CacheMemBytes
	}
	if o.ViewStalenessMs > s.ViewStalenessMs {
		s.ViewStalenessMs = o.ViewStalenessMs
	}
}

// normalizeFilterValue coerces a filter literal to the domain of a column
// of the given type (e.g. int → float64 for numeric dictionaries).
func normalizeFilterValue(typ metadata.FieldType, v any) any {
	if typ == metadata.TypeString {
		if s, ok := v.(string); ok {
			return s
		}
		return fmt.Sprintf("%v", v)
	}
	if f, ok := toF64(v); ok {
		return f
	}
	return v
}

// timeBounds is an interval of the time column, compared as float64 the way
// the filter kernels compare (compileNumPred): every row a query's filters
// keep has lo <= float64(time) <= hi. A NaN bound, or lo > hi, keeps nothing.
type timeBounds struct{ lo, hi float64 }

// queryTimeBounds derives the bounds of filters over the schema's time
// column: each Eq, Lt/Le, Gt/Ge and Between bounds it as the raw-vector
// kernel compiles it (rangeOf); any other filter bounds nothing. The broker
// derives them once per request and servers prune sealed segments on them.
func queryTimeBounds(filters []Filter, timeField string) timeBounds {
	b := timeBounds{math.Inf(-1), math.Inf(1)}
	if timeField == "" {
		return b
	}
	for _, f := range filters {
		if lo, hi, ok := rangeOf(f); ok && f.Column == timeField {
			b.lo, b.hi = max(b.lo, lo), min(b.hi, hi) // max and min keep a NaN
		}
	}
	return b
}

// overlaps reports whether rows whose times lie in [minTime, maxTime] can
// hold a row inside the bounds.
func (b timeBounds) overlaps(minTime, maxTime int64) bool {
	return float64(maxTime) >= b.lo && float64(minTime) <= b.hi
}

// rangeOf returns the interval a range filter keeps on a numeric column,
// as compileNumPred compiles it; a filter that can keep no row gives an
// empty interval, and ok is false for an operator that keeps no interval.
func rangeOf(f Filter) (lo, hi float64, ok bool) {
	switch f.Op {
	case OpEq, OpLt, OpLe, OpGt, OpGe, OpBetween:
		p, _ := compileNumPred(f) // it compiles every one of these operators
		if p.kind != predRange {
			return 1, 0, true // predNever
		}
		return p.lo, p.hi, true
	}
	return 0, 0, false
}

// unitFilters returns the filters a scan of rows whose times lie in
// [minTime, maxTime] applies: filters less every range filter on a required
// time column whose interval holds all those times, since it keeps every
// row. The kernels, the star-tree's eligibility and the per-segment cache
// key all read a unit's filters through it. A nullable time column keeps
// every filter: a NULL time lies in no interval.
func unitFilters(filters []Filter, schema *metadata.Schema, minTime, maxTime int64) []Filter {
	tf, ok := schema.Field(schema.TimeField)
	if !ok || tf.Nullable {
		return filters
	}
	var out []Filter // nil until a filter is dropped
	for i, f := range filters {
		if lo, hi, ok := rangeOf(f); ok && f.Column == tf.Name && lo <= float64(minTime) && float64(maxTime) <= hi {
			if out == nil {
				out = append(make([]Filter, 0, len(filters)-1), filters[:i]...)
			}
			continue
		}
		if out != nil {
			out = append(out, f)
		}
	}
	if out == nil {
		return filters
	}
	return out
}

// predBitmap resolves a compiled predicate on an indexed sealed column (n
// rows) to the bitmap of matching rows: an equality is one code's rows, a
// range its code interval's, an IN the union over its member codes. A !=
// never comes here: it runs as a kernel (newSelStream). shared reports bm
// one of the column's own posting lists, which the caller reads and never
// writes.
func (c *column) predBitmap(n int, pr codePred) (bm *Bitmap, shared bool) {
	switch pr.kind {
	case predEq:
		return c.codeRows(n, pr.eq, pr.eq+1)
	case predRange:
		return c.codeRows(n, pr.lo, pr.hi)
	}
	bm = NewBitmap(n)
	for code, in := range pr.in {
		if in {
			c.orCodeRows(bm, code, code+1)
		}
	}
	return bm, false
}

// codeRows returns the rows whose dict code lies in [lo, hi): on an inverted
// column one code's posting list itself (shared), or the union of the
// interval's (the "range index": dictionary order makes ranges cheap); on
// the sorted column, whose codes are non-decreasing, the run between two
// binary searches.
func (c *column) codeRows(n, lo, hi int) (bm *Bitmap, shared bool) {
	if c.Inverted != nil && hi == lo+1 && c.Inverted[lo] != nil {
		return c.Inverted[lo], true
	}
	bm = NewBitmap(n)
	c.orCodeRows(bm, lo, hi)
	return bm, false
}

// orCodeRows adds the rows whose dict code lies in [lo, hi) to bm, as
// codeRows finds them. No code in [lo, hi) is the NULL code, so every row
// of a sorted run holds a value.
func (c *column) orCodeRows(bm *Bitmap, lo, hi int) {
	if c.Inverted != nil {
		for code := lo; code < hi; code++ {
			if sub := c.Inverted[code]; sub != nil {
				bm.Or(sub)
			}
		}
		return
	}
	n := bm.N
	start := sort.Search(n, func(i int) bool { return c.Codes.Get(i) >= lo })
	end := sort.Search(n, func(i int) bool { return c.Codes.Get(i) >= hi })
	for i := start; i < end; i++ {
		bm.Set(i)
	}
}

// scan presents the sealed segment to the kernels.
func (s *Segment) scan() *scanSet {
	sc := &scanSet{
		n:       s.NumRows,
		schema:  s.Schema,
		cols:    make([]colView, 0, len(s.Columns)),
		minTime: s.MinTime,
		maxTime: s.MaxTime,
	}
	for _, f := range s.Schema.Fields {
		c, ok := s.Columns[f.Name]
		if !ok {
			continue // blobs are never encoded
		}
		v := colView{
			name:   f.Name,
			typ:    c.Field.Type,
			layout: layoutPacked,
			packed: &c.Codes,
			dict:   &c.Dict,
			null:   c.Dict.size(),
		}
		if c.Inverted != nil || c.Sorted {
			v.indexed = c
		}
		sc.cols = append(sc.cols, v)
	}
	return sc
}

// Execute runs a query against this single segment and finalizes the
// result. valid optionally restricts rows to the still-valid set (upsert);
// nil means all rows count.
func (s *Segment) Execute(q *Query, valid *Bitmap) (*QueryResponse, error) {
	p, err := s.ExecutePartial(q, valid)
	if err != nil {
		return nil, err
	}
	return p.Finalize(q)
}

// ExecutePartial runs a query against this single segment and returns the
// mergeable partial state — the scatter half of scatter-gather-merge.
// Aggregations stay as running states (AVG as SUM+COUNT, DISTINCTCOUNT as a
// value set) so partials from many segments merge exactly at any level.
// Direct callers get exact (untrimmed) execution; the distributed path
// (the fold sink) threads a top-K trim plan via executePartialTrim.
func (s *Segment) ExecutePartial(q *Query, valid *Bitmap) (*Partial, error) {
	return s.executePartialTrim(q, valid, nil)
}

// executePartialTrim is ExecutePartial with an optional bounded top-K plan:
// ordered selections keep their best Limit+Offset rows, grouped
// aggregations trim to the plan's group budget before the partial leaves the
// segment.
func (s *Segment) executePartialTrim(q *Query, valid *Bitmap, tp *topKPlan) (*Partial, error) {
	if s.Tree != nil {
		if filters := unitFilters(q.Filters, s.Schema, s.MinTime, s.MaxTime); s.treeEligible(q, filters, valid) {
			if p := s.Tree.query(s, q, filters); p != nil {
				p.trimTopK(q, tp)
				p.stats.SegmentsScanned = 1
				p.stats.StarTreeServed = 1
				return p, nil
			}
		}
	}
	p, err := s.scan().executePartial(q, valid, tp)
	if err != nil {
		return nil, err
	}
	p.stats.SegmentsScanned = 1
	return p, nil
}

// treeEligible reports whether the star-tree may answer q on this segment,
// whose scan applies filters (unitFilters): only when no upsert filtering
// applies, the tree can answer every filter — a time range that holds the
// whole segment is no longer among them — and the scan would take every
// aggregation's column type (aggTypeError): the tree's rollup of a string
// metric is zeros, and the scan refuses the query.
func (s *Segment) treeEligible(q *Query, filters []Filter, valid *Bitmap) bool {
	for _, a := range q.Aggs {
		if f, ok := s.Schema.Field(a.Column); ok && aggTypeError(a.Kind, a.Column, f.Type) != nil {
			return false
		}
	}
	return s.Tree != nil && valid == nil && s.Tree.Eligible(q, filters)
}

// executePartial scans the set through the kernel pipeline — compile the
// filters, stream selection vectors, fold or gather the survivors — and
// returns the mergeable partial. It is the one evaluator: sealed segments,
// consuming segments and matview delta batches all answer through it.
func (sc *scanSet) executePartial(q *Query, valid *Bitmap, tp *topKPlan) (*Partial, error) {
	ss, err := sc.newSelStream(unitFilters(q.Filters, sc.schema, sc.minTime, sc.maxTime), valid)
	if err != nil {
		return nil, err
	}
	var p *Partial
	if len(q.Aggs) > 0 {
		p, err = sc.executeAgg(q, ss, tp)
	} else {
		p, err = sc.executeSelect(q, ss, tp)
	}
	ss.release()
	if err != nil {
		return nil, err
	}
	p.stats.RowsScanned = ss.kept
	p.stats.UpsertFiltered = ss.dropped
	return p, nil
}

func (sc *scanSet) executeAgg(q *Query, ss *selStream, tp *topKPlan) (*Partial, error) {
	gcols := make([]*colView, len(q.GroupBy))
	for gi, name := range q.GroupBy {
		if gcols[gi] = sc.col(name); gcols[gi] == nil {
			return nil, &UnknownColumnError{Role: "group-by", Column: name}
		}
	}
	cur := make([]aggCursor, len(q.Aggs))
	for ai, a := range q.Aggs {
		cur[ai].kind = a.Kind
		if a.Column == "" {
			if a.Kind != AggCount {
				return nil, fmt.Errorf("olap: %s requires a column", a.Kind)
			}
			cur[ai].countStar = true
			continue
		}
		c := sc.col(a.Column)
		if c == nil {
			return nil, &UnknownColumnError{Role: "aggregation", Column: a.Column}
		}
		if err := aggTypeError(a.Kind, a.Column, c.typ); err != nil {
			return nil, err
		}
		cur[ai].col = c
	}
	g := newGrouper(ss.s, gcols, len(q.Aggs), sc.n)
	buf := ss.s.block[:]
	for sel := ss.next(); sel != nil; sel = ss.next() {
		slots := g.assign(sel, buf)
		for ai := range cur {
			cur[ai].fold(ss.s.accs, g.naggs, ai, slots, sel, buf)
		}
	}
	return g.partial(tp, buf), nil
}

// result is the state as record.Agg.Final reads it: a DISTINCTCOUNT's Count
// is its set's size.
func (a *aggState) result(kind AggKind) record.Agg {
	if kind == AggDistinctCount {
		return record.Agg{Count: int64(a.distinctCount())}
	}
	return a.Agg
}

// final is the state's final value as a float64 — the number record.Compare
// sees of the result cell — or null (record.Agg.Final).
func (a *aggState) final(kind AggKind) (f float64, null bool) {
	r := a.result(kind)
	return r.Final(kind)
}

// aggTypeError rejects aggregations that are undefined over a column type:
// SUM/AVG/MIN/MAX over string columns used to silently accumulate 0.0
// (string dictionaries have no numeric values). COUNT and DISTINCTCOUNT
// remain valid over any type; lexicographic MIN/MAX is deliberately not
// offered — callers get a clear error instead of a silent zero.
func aggTypeError(kind AggKind, col string, typ metadata.FieldType) error {
	switch kind {
	case AggSum, AggAvg, AggMin, AggMax:
		if typ == metadata.TypeString {
			return fmt.Errorf("olap: %s(%s) over a string column is not supported; use count or distinctcount", kind, col)
		}
	}
	return nil
}

// executeSelect gathers the survivors straight into the partial's column
// vectors. An ordered LIMIT under a trim plan keeps the best k =
// Limit+Offset rows, cutting the table to them whenever it holds 2k and once
// more at the end; an unordered LIMIT stops once it has any k rows;
// everything else keeps every match.
func (sc *scanSet) executeSelect(q *Query, ss *selStream, tp *topKPlan) (*Partial, error) {
	cols, scols, err := sc.selectColumns(q)
	if err != nil {
		return nil, err
	}
	p := &Partial{cols: cols, keys: make([]record.Vector, len(scols))}
	k, budget := 0, -1
	if tp != nil {
		k = tp.rowK
	} else if q.Limit > 0 && len(q.OrderBy) == 0 {
		budget = q.Limit + q.Offset
	}
	for sel := ss.next(); sel != nil; sel = ss.next() {
		if budget >= 0 {
			sel = sel[:min(len(sel), budget-p.n)]
		}
		for ci, c := range scols {
			c.gather(&p.keys[ci], sel, ss.s.block[:])
		}
		if p.n += len(sel); p.n == budget {
			break
		}
		if k > 0 && p.n >= 2*k {
			p.trimTopK(q, tp)
		}
	}
	if k > 0 {
		p.trimTopK(q, tp)
		p.stats.RowsHeapKept = int64(p.n)
	}
	return p, nil
}

// selectColumns resolves the query's select list (every queryable column
// for SELECT *) to column handles, erroring on unknown names.
func (sc *scanSet) selectColumns(q *Query) ([]string, []*colView, error) {
	if len(q.Select) == 0 {
		cols := make([]string, len(sc.cols))
		scols := make([]*colView, len(sc.cols))
		for ci := range sc.cols {
			cols[ci], scols[ci] = sc.cols[ci].name, &sc.cols[ci]
		}
		return cols, scols, nil
	}
	scols := make([]*colView, len(q.Select))
	for ci, name := range q.Select {
		if scols[ci] = sc.col(name); scols[ci] == nil {
			return nil, nil, &UnknownColumnError{Role: "select", Column: name}
		}
	}
	return append([]string(nil), q.Select...), scols, nil
}
