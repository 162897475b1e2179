package olap

import (
	"math/bits"
	"slices"

	"repro/internal/record"
)

// This file implements the bounded top-K execution path for ORDER BY/LIMIT
// queries — Pinot's answer to the dashboard query shape
// (GROUP BY d ORDER BY agg DESC LIMIT 10). Instead of materializing every
// matching row and shipping every candidate group to the broker, an ordered
// selection keeps its best Limit+Offset rows per segment, grouped
// aggregations trim to the top max(Limit*5, TrimSize) groups by the leading
// ORDER BY term (Pinot's minSegmentGroupTrimSize rule), and servers apply
// the same bound to the merged partial before it crosses the wire. Broker
// memory for the gather phase is then O(K · servers), not O(groups). Every
// cut ranks row positions over the typed table (Partial.less) and boxes
// nothing.
//
// Group trimming is deliberately inexact under pathological skew — a group
// trimmed on one server may survive on another, leaving its aggregate
// partial — exactly like Pinot's server-side trim. A selection cut is exact:
// per-segment top-K rows are independent, so their union contains the
// global top K, and it ranks by every ORDER BY term and then by every
// selected column, so ties at the cut keep the rows the full sort returns.
// QueryRequest.TrimExact disables all trimming.

// DefaultGroupTrimSize is the minimum number of groups a trimmed grouped
// aggregation keeps per segment and per server — the stand-in for Pinot's
// minSegmentGroupTrimSize. Queries keep max(5·(Limit+Offset), trim size)
// groups so low limits retain a healthy accuracy margin.
const DefaultGroupTrimSize = 1000

// GroupTrimK returns the group budget a trimmed top-K aggregation keeps at
// each segment and server: max(limit*5, trimSize), with trimSize <= 0
// meaning DefaultGroupTrimSize.
func GroupTrimK(limit, trimSize int) int {
	if trimSize <= 0 {
		trimSize = DefaultGroupTrimSize
	}
	if k := limit * 5; k > trimSize {
		return k
	}
	return trimSize
}

// topKPlan is the execution-time shape of a bounded ORDER BY/LIMIT query,
// derived once by planTopK and threaded from the broker through the fold
// sink down to segment scans. nil means exact (untrimmed)
// execution.
type topKPlan struct {
	// rowK bounds an ordered selection: the best Limit+Offset rows.
	rowK int
	// groupK bounds grouped aggregations: max(Limit*5, trim size) groups.
	groupK int
	// The leading ORDER BY term resolves to either a group-by value index
	// (valIdx >= 0) or an aggregation index (aggIdx >= 0); trimming ranks
	// groups by that term only, like Pinot's segment trim.
	valIdx  int
	aggIdx  int
	aggKind AggKind
	desc    bool
}

// planTopK derives the trim plan for a query, or nil when the query has no
// ORDER BY + LIMIT or its leading ORDER BY term does not resolve to an
// output column (Finalize will reject such queries anyway).
func planTopK(q *Query, trimSize int) *topKPlan {
	if q.Limit <= 0 || len(q.OrderBy) == 0 {
		return nil
	}
	tp := &topKPlan{rowK: q.Limit + q.Offset, valIdx: -1, aggIdx: -1, desc: q.OrderBy[0].Desc}
	if len(q.Aggs) == 0 {
		return tp
	}
	tp.groupK = GroupTrimK(q.Limit+q.Offset, trimSize)
	lead := q.OrderBy[0].Column
	for gi, g := range q.GroupBy {
		if g == lead {
			tp.valIdx = gi
		}
	}
	// Aggregation names override group columns on collision, matching the
	// last-match-wins column lookup of Finalize.
	for ai, a := range q.Aggs {
		if a.outName() == lead {
			tp.valIdx, tp.aggIdx, tp.aggKind = -1, ai, a.Kind
		}
	}
	if tp.valIdx < 0 && tp.aggIdx < 0 {
		return nil
	}
	return tp
}

// rankTerm is one ORDER BY term over a table's rows, typed once: a key
// column — group-by or selected — compared in place, or an aggregation's
// final value as the float64 record.Compare would see of its result cell
// (null: NULL, for MIN/MAX/AVG of no input). Ranking never boxes a value.
// The order is record.Compare's — NULL first, numbers by value (a NaN ties
// with everything), strings by content — reversed for DESC.
type rankTerm struct {
	desc bool
	key  *record.Vector
	null []bool
	num  []float64
}

// rank sets t to rank the table's rows by group-by column valIdx, or, when
// it is negative, by aggregation aggIdx of the given kind, whose values it
// writes into t's memory when it has room.
func (t *rankTerm) rank(p *Partial, valIdx, aggIdx int, kind AggKind, desc bool) {
	t.desc, t.key = desc, nil
	if valIdx >= 0 {
		t.key = &p.keys[valIdx]
		return
	}
	t.null, t.num = slices.Grow(t.null[:0], p.n)[:p.n], slices.Grow(t.num[:0], p.n)[:p.n]
	for r := range p.n {
		t.num[r], t.null[r] = p.accs[r*p.naggs+aggIdx].final(kind)
	}
}

// compare orders rows a and b: negative when a ranks before b.
func (t *rankTerm) compare(a, b int32) int {
	var c int
	switch {
	case t.key != nil:
		c = t.key.Compare(int(a), int(b))
	case t.null[a] || t.null[b]:
		if !t.null[b] {
			c = -1
		} else if !t.null[a] {
			c = 1
		}
	case t.num[a] < t.num[b]:
		c = -1
	case t.num[a] > t.num[b]:
		c = 1
	}
	if t.desc {
		return -c
	}
	return c
}

// less orders the table's rows by the terms and breaks their ties by
// ascending key value — the group or the selected row — column by column,
// then by row: the one tie rule of the segment trim, the server trim and
// Finalize, so a trimmed top-K keeps the groups or rows an exact one returns
// when the ORDER BY terms tie at the cut.
func (p *Partial) less(terms []rankTerm) func(a, b int32) bool {
	return func(a, b int32) bool {
		for i := range terms {
			if c := terms[i].compare(a, b); c != 0 {
				return c < 0
			}
		}
		for c := range p.keys {
			if x := p.keys[c].Compare(int(a), int(b)); x != 0 {
				return x < 0
			}
		}
		return a < b
	}
}

// selectTop reorders idx so that its first k entries are the k that come
// first under less, in no particular order — a quickselect: a trim needs the
// set of survivors, not their order, so it is O(n) rather than a full sort.
func selectTop(idx []int32, k int, less func(a, b int32) bool) {
	lo, hi := 0, len(idx)
	for lo < k && k < hi {
		// Median of three as the pivot, parked at hi-1.
		mid, last := lo+(hi-lo)/2, hi-1
		if less(idx[mid], idx[lo]) {
			idx[mid], idx[lo] = idx[lo], idx[mid]
		}
		if less(idx[last], idx[lo]) {
			idx[last], idx[lo] = idx[lo], idx[last]
		}
		if less(idx[mid], idx[last]) {
			idx[mid], idx[last] = idx[last], idx[mid]
		}
		pivot, p := idx[last], lo
		for i := lo; i < last; i++ {
			if less(idx[i], pivot) {
				idx[i], idx[p] = idx[p], idx[i]
				p++
			}
		}
		idx[p], idx[last] = idx[last], idx[p]
		// idx[lo:p] come before the pivot at p, idx[p+1:hi] do not.
		if k <= p {
			hi = p
		} else {
			lo = p + 1
		}
	}
}

// trimRows cuts rows, positions of the table, to the plan's group budget —
// the groupK rows that rank first by its leading ORDER BY term, ranked in
// the memory of term, a one-term slice, under Partial.less — or returns them
// whole when no trim applies. The trim needs the set of survivors, not their
// order (selectTop).
func (p *Partial) trimRows(tp *topKPlan, rows []int32, term []rankTerm) []int32 {
	if tp == nil || tp.groupK <= 0 || len(rows) <= tp.groupK {
		return rows
	}
	term[0].rank(p, tp.valIdx, tp.aggIdx, tp.aggKind, tp.desc)
	selectTop(rows, tp.groupK, p.less(term))
	return rows[:tp.groupK]
}

// trimTopK cuts a partial its caller owns, in place, to the plan's bound:
// a grouped aggregation to the groupK groups trimRows keeps, counted into
// GroupsTrimmed; an ordered selection to its rowK best rows under q's ORDER
// BY, unless an ORDER BY column is not selected (Finalize reports that).
// Either cut needs the set of survivors, not their order (selectTop); they
// keep their order in the table, so a table in key order stays in it: each
// is marked by its position, and one walk of the marks reads them back in
// that order, with no sort, all in a pooled mergeScratch.
func (p *Partial) trimTopK(q *Query, tp *topKPlan) {
	if tp == nil || !(p.agg && tp.groupK > 0 && p.n > tp.groupK || !p.agg && p.n > tp.rowK) {
		return
	}
	m := mergePool.Get().(*mergeScratch)
	defer m.put()
	m.rows = p.positions(m.rows)
	rows := m.rows
	if p.agg {
		p.stats.GroupsTrimmed += int64(p.n - tp.groupK)
		m.terms = slices.Grow(m.terms[:0], 1)[:1]
		rows = p.trimRows(tp, rows, m.terms)
	} else {
		terms, err := p.order(q, p.cols, m)
		if err != nil {
			return
		}
		selectTop(rows, tp.rowK, p.less(terms))
		rows = rows[:tp.rowK]
	}
	m.marks = append(m.marks[:0], make([]uint64, (p.n+63)/64)...)
	for _, r := range rows {
		m.marks[r/64] |= 1 << (r % 64)
	}
	rows = rows[:0]
	for w, mark := range m.marks {
		for ; mark != 0; mark &= mark - 1 {
			rows = append(rows, int32(64*w+bits.TrailingZeros64(mark)))
		}
	}
	p.take(p, rows)
}
