package olap

import (
	"fmt"
	"maps"
	"slices"
	"unsafe"

	"repro/internal/metadata"
	"repro/internal/record"
)

// This file implements the mergeable partial-aggregate layer of the
// scatter-gather pipeline (§4.3): segment scans produce Partial states that
// merge associatively — first across the segments of one server, then across
// servers at the broker — and are finalized into user-facing values exactly
// once. Keeping every aggregation as a mergeable state (COUNT/SUM/MIN/MAX as
// running numerics, AVG as a SUM+COUNT pair, DISTINCTCOUNT as a value set)
// is what lets the broker merge partial results in any arrival order without
// the query rewrites the serial path needed.

// aggState is the mergeable partial state of one aggregation: the numeric
// running values of record.Agg plus, for DISTINCTCOUNT, the set of observed
// values. States merge associatively and commutatively, so partials can fold
// together in any grouping or order.
type aggState struct {
	record.Agg
	distinct *distinctSet // nil unless the spec is AggDistinctCount
}

// distinctSet is the values a DISTINCTCOUNT observed: numbers by
// record.CanonBits, strings apart — the classes record.KeyIndex tells apart.
type distinctSet struct {
	nums map[uint64]struct{}
	strs map[string]struct{}
}

// set returns the state's distinct set, creating it.
func (a *aggState) set() *distinctSet {
	if a.distinct == nil {
		a.distinct = &distinctSet{nums: map[uint64]struct{}{}, strs: map[string]struct{}{}}
	}
	return a.distinct
}

// addNum records one observed number for DISTINCTCOUNT.
func (a *aggState) addNum(f float64) { a.set().nums[record.CanonBits(f)] = struct{}{} }

// addStr records one observed string for DISTINCTCOUNT.
func (a *aggState) addStr(s string) { a.set().strs[s] = struct{}{} }

// distinctCount is DISTINCTCOUNT's answer: the number of values observed.
func (a *aggState) distinctCount() int {
	if a.distinct == nil {
		return 0
	}
	return len(a.distinct.nums) + len(a.distinct.strs)
}

// mergeState folds another partial state into this one.
func (a *aggState) mergeState(o *aggState) {
	a.Merge(o.Agg)
	if o.distinct != nil {
		set := a.set()
		maps.Copy(set.nums, o.distinct.nums)
		maps.Copy(set.strs, o.distinct.strs)
	}
}

// Partial is the mergeable partial result of a query over a subset of a
// table's segments — the unit the scatter phase ships from segment scans to
// the broker's streaming merge. It is one typed table: row r is row r of the
// key vectors. For an aggregation the keys are the GROUP BY columns, group
// r's aggregations are accs[r*naggs : (r+1)*naggs], and a record.KeyIndex
// numbers the typed keys by row, so a group costs no heap object of its own.
// The index is built where a key is first looked up — Merge into the table,
// or Finalize — so a scan's, a trim's or a cached partial leaves unindexed.
// Building it writes the table: a partial two goroutines can reach (a cached
// segment partial, a view's state) is only ever a Merge argument, or is used
// under its owner's lock. For a selection the keys are the selected columns,
// named by cols, with no states and no index.
type Partial struct {
	agg   bool
	naggs int
	n     int             // groups, or a selection's rows
	keys  []record.Vector // one per GROUP BY or selected column
	accs  []aggState
	index record.KeyIndex // an aggregation's key → row, once built

	cols  []string // a selection's columns
	stats ExecStats
}

// newPartial returns an empty partial for the query shape; an empty table's
// index is built.
func newPartial(q *Query) *Partial {
	if len(q.Aggs) > 0 {
		return &Partial{agg: true, naggs: len(q.Aggs), keys: make([]record.Vector, len(q.GroupBy))}
	}
	return &Partial{}
}

// positions lists the table's rows in order, in buf's memory when it has
// room.
func (p *Partial) positions(buf []int32) []int32 {
	rows := slices.Grow(buf[:0], p.n)[:p.n]
	for r := range rows {
		rows[r] = int32(r)
	}
	return rows
}

// buildIndex indexes an aggregation's table the first time a key is looked
// up in it; the index is built once it numbers every row. Two rows of one
// key — longs above 2^53 that are one float64 — fold into one group as Merge
// folds keys: the table is merged into a fresh one.
func (p *Partial) buildIndex() {
	if !p.agg || p.index.Len() == p.n {
		return
	}
	p.index.Reserve(p.keys, p.n)
	for r := range p.n {
		if _, dup := p.index.Add(p.keys, r); dup {
			folded := &Partial{agg: true, naggs: p.naggs, keys: make([]record.Vector, len(p.keys))}
			folded.Merge(p)
			*p = *folded
			return
		}
	}
}

// add folds a group — row r of key, aggregations accs — into the indexed
// table, appending it, key row copied, when the table lacks it. accs'
// DISTINCTCOUNT sets are copied, so the source stays unchanged.
func (p *Partial) add(key []record.Vector, r int, accs []aggState) {
	row, found := p.index.Add(key, r)
	if !found {
		for c := range key {
			p.keys[c].AppendRows(&key[c], []int32{int32(r)})
		}
		for range p.naggs {
			p.accs = append(p.accs, aggState{})
		}
		p.n++
	}
	mine := p.accs[row*p.naggs : (row+1)*p.naggs]
	for i := range accs {
		mine[i].mergeState(&accs[i])
	}
}

// keep returns an unindexed table of the given rows of p, in that order; it
// takes over their DISTINCTCOUNT sets and p's stats.
func (p *Partial) keep(rows []int32) *Partial {
	out := &Partial{agg: p.agg, naggs: p.naggs, n: len(rows), keys: make([]record.Vector, len(p.keys)), cols: p.cols, stats: p.stats}
	for c := range out.keys {
		out.keys[c].AppendRows(&p.keys[c], rows)
	}
	if p.agg {
		out.accs = make([]aggState, 0, len(rows)*p.naggs)
		for _, r := range rows {
			out.accs = append(out.accs, p.accs[int(r)*p.naggs:(int(r)+1)*p.naggs]...)
		}
	}
	return out
}

// size approximates an aggregate partial's resident footprint for the
// cache's byte accounting: its key vectors (Vector.Size), its states, the
// DISTINCTCOUNT sets' members, and the index and arena once built — a
// segment's partial enters the cache unindexed.
func (p *Partial) size() int64 {
	n := int64(128 + p.index.ArenaBytes() + 48*p.index.Len() + int(unsafe.Sizeof(aggState{}))*len(p.accs))
	for c := range p.keys {
		n += p.keys[c].Size()
	}
	for i := range p.accs {
		if d := p.accs[i].distinct; d != nil {
			n += int64(16*len(d.nums) + 32*len(d.strs))
			for s := range d.strs {
				n += int64(len(s))
			}
		}
	}
	return n
}

// Merge folds another partial into this one, leaving o unchanged. Merging
// is associative and commutative, so the broker can fold partials in
// arrival order — and partials remain reusable after being merged. A group
// new to p, or a selection's row, is appended by value; only a group's
// DISTINCTCOUNT sets are copied.
func (p *Partial) Merge(o *Partial) {
	p.stats.Add(o.stats)
	if p.agg {
		p.buildIndex()
		for r := 0; r < o.n; r++ {
			p.add(o.keys, r, o.accs[r*o.naggs:(r+1)*o.naggs])
		}
		return
	}
	if p.cols == nil {
		p.cols, p.keys = o.cols, make([]record.Vector, len(o.keys))
	}
	if o.n == 0 {
		return
	}
	rows := o.positions(nil)
	for c := range o.keys {
		p.keys[c].AppendRows(&o.keys[c], rows)
	}
	p.n += o.n
}

// Finalize converts the merged partial into a user-facing response: group
// states collapse to final values (AVG = Sum/Count, DISTINCTCOUNT = set
// cardinality) and ORDER BY / OFFSET / LIMIT apply. Rows rank by position
// over the typed table — the ORDER BY terms, then ascending value of each
// key column (Partial.less) — and only the rows returned are boxed, into one
// backing array. A selection without ORDER BY keeps its rows' merge order.
func (p *Partial) Finalize(q *Query) (*QueryResponse, error) {
	p.buildIndex()
	cols := p.cols
	switch {
	case p.agg:
		cols = append([]string(nil), q.GroupBy...)
		for _, a := range q.Aggs {
			cols = append(cols, a.outName())
		}
		if p.n == 0 && len(q.GroupBy) == 0 {
			// SQL semantics: a global aggregate over zero rows still returns
			// one row (count = 0, sum = 0, min/max/avg = NULL), which OFFSET
			// skips as it would any other.
			p = &Partial{agg: true, naggs: p.naggs, n: 1, accs: make([]aggState, p.naggs), stats: p.stats}
		}
	case cols == nil: // a selection no scan answered
		cols = append([]string(nil), q.Select...)
		p = &Partial{keys: make([]record.Vector, len(cols)), stats: p.stats}
	}
	terms, err := p.order(q, cols)
	if err != nil {
		return nil, err
	}
	order := p.positions(nil)
	if p.agg || len(terms) > 0 {
		less := p.less(terms)
		if k := q.Limit + q.Offset; q.Limit > 0 && k < len(order) {
			selectTop(order, k, less)
			order = order[:k]
		}
		slices.SortFunc(order, func(a, b int32) int {
			switch {
			case a == b:
				return 0
			case less(a, b):
				return -1
			}
			return 1
		})
	}
	order = order[min(q.Offset, len(order)):]
	if q.Limit > 0 && len(order) > q.Limit {
		order = order[:q.Limit]
	}
	res := &QueryResponse{Columns: cols, Rows: make([][]any, len(order)), Stats: p.stats}
	cells := make([]any, len(order)*len(cols))
	for j, r := range order {
		row := cells[j*len(cols) : (j+1)*len(cols) : (j+1)*len(cols)]
		for c := range p.keys {
			row[c] = p.keys[c].Box(int(r))
		}
		for ai, spec := range q.Aggs {
			row[len(p.keys)+ai] = aggValue(&p.accs[int(r)*p.naggs+ai], spec.Kind)
		}
		res.Rows[j] = row
	}
	return res, nil
}

// order resolves q's ORDER BY over the result columns cols — the key
// columns, then the aggregations — to rank terms over the table.
func (p *Partial) order(q *Query, cols []string) ([]rankTerm, error) {
	terms := make([]rankTerm, len(q.OrderBy))
	for i, o := range q.OrderBy {
		// The last column of the name wins: an aggregation over a group
		// column it shadows, as in planTopK.
		ci := -1
		for j, c := range cols {
			if c == o.Column {
				ci = j
			}
		}
		switch {
		case ci < 0:
			return nil, fmt.Errorf("olap: order-by column %q not in result", o.Column)
		case ci < len(p.keys):
			terms[i].rank(p, ci, -1, 0, o.Desc)
		default:
			ai := ci - len(p.keys)
			terms[i].rank(p, -1, ai, q.Aggs[ai].Kind, o.Desc)
		}
	}
	return terms, nil
}

// PartialOfRows computes the mergeable partial-aggregate state of a query
// over a batch of rows, each cells of schema (a mutation hook's
// ViewMutation.Row) and all treated as valid — the primitive the matview
// registry uses to fold newly-ingested rows into a standing view's state
// (Merge) without re-executing the query. The batch goes through a
// transient column store and the exact consuming-segment scan, so the
// partial merges and finalizes identically to scatter-gathered partials.
func PartialOfRows(schema *metadata.Schema, rows []record.Row, q *Query) (*Partial, error) {
	m := newMutableSegment("", schema, len(rows))
	for _, r := range rows {
		m.appendRow(r.Vals)
	}
	return m.snapshot().executePartial(q, nil, nil)
}
