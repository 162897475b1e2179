package olap

import (
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/metadata"
	"repro/internal/record"
)

// This file implements the mergeable partial-aggregate layer of the
// scatter-gather pipeline (§4.3): segment scans produce Partial states that
// merge associatively — first across the segments of one server, then across
// servers at the broker — and are finalized into user-facing values exactly
// once. Keeping every aggregation as a mergeable state (COUNT/SUM/MIN/MAX as
// running numerics, AVG as a SUM+COUNT pair, DISTINCTCOUNT as a value set),
// in group-key order, is what lets the broker merge partial results from
// any arrival order in one pass, without the query rewrites the serial path
// needed.

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
// the broker's merge. It is one typed table: row r is row r of the key
// vectors. For an aggregation the keys are the GROUP BY columns, group r's
// aggregations are accs[r*naggs : (r+1)*naggs], and the rows ascend strictly
// by key, column by column under record.Vector.KeyCompare: every emitter — a
// scan's grouper, the star-tree, a trim — writes its groups in that order,
// and a merge is one pass over such runs (merged) that keeps it. So a
// group costs no heap object and no hash, and Finalize without ORDER BY
// returns the rows as they lie. Only a partial's one owner writes it — a
// producer the runs it scanned and the table it merges, trims and ships, the
// broker those tables and its own, a view its state under its lock — and
// its last owner releases an aggregation's table to the pool (release). A
// cached segment partial, MaterializePartial's result and a view's state
// are only read and never released. For a selection the keys are the
// selected columns, named by cols, with no states and no order.
type Partial struct {
	agg   bool
	naggs int
	n     int             // groups, or a selection's rows
	keys  []record.Vector // one per GROUP BY or selected column
	accs  []aggState

	cols  []string // a selection's columns
	stats ExecStats
}

// newPartial returns an empty partial for the query shape.
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

// compareKeys orders row a of p against row b of o by their keys, column by
// column (record.Vector.KeyCompare).
func compareKeys(p *Partial, a int, o *Partial, b int) int {
	for c := range p.keys {
		if x := p.keys[c].KeyCompare(a, &o.keys[c], b); x != 0 {
			return x
		}
	}
	return 0
}

// sortRows sorts rows of the table into key order, rows of one key side by
// side.
func (p *Partial) sortRows(rows []int32) {
	slices.SortFunc(rows, func(a, b int32) int { return compareKeys(p, int(a), p, int(b)) })
}

// foldStates folds states into mine, one to one: zero states take a copy,
// their DISTINCTCOUNT sets copied, so the source stays unchanged.
func foldStates(mine, states []aggState) {
	for i := range states {
		mine[i].mergeState(&states[i])
	}
}

// keep returns a table from the pool holding the given rows of an
// aggregation, in that order, which is key order: a row whose key is the key
// of the row kept before it — two codes of one value, as 2^53 and 2^53+1 are
// in a long dictionary — folds into that row. It takes over the rows'
// states, their DISTINCTCOUNT sets included, and p's stats: p is a table
// about to be let go (a scan's scratch, the star-tree's hits).
func (p *Partial) keep(rows []int32) *Partial {
	kept := rows[:0]
	for _, r := range rows {
		if last := len(kept) - 1; last >= 0 && compareKeys(p, int(kept[last]), p, int(r)) == 0 {
			foldStates(p.states(int(kept[last])), p.states(int(r)))
			continue
		}
		kept = append(kept, r)
	}
	out := newTable(p.naggs, len(p.keys), len(kept))
	out.stats = p.stats
	out.take(p, kept)
	return out
}

// tables holds released aggregation tables by state capacity: tables[c]
// those with room for at least 2^c states, so a table taken for many groups
// never regrows from a small one.
var tables [64]sync.Pool

// newTable returns an empty aggregation table of nkeys key columns from
// tables, with room for groups groups' states.
func newTable(naggs, nkeys, groups int) *Partial {
	c := bits.Len(uint(max(groups*naggs, 1) - 1))
	p, ok := tables[c].Get().(*Partial)
	if !ok {
		p = &Partial{accs: make([]aggState, 0, 1<<c)}
	}
	p.agg, p.naggs = true, naggs
	p.keys = slices.Grow(p.keys[:0], nkeys)[:nkeys]
	return p
}

// release hands an aggregation table its last owner is done with to tables,
// its states cleared, DISTINCTCOUNT sets and all, and its key vectors'
// strings and blobs to capacity, so the pool pins nothing a query read.
func (p *Partial) release() {
	if !p.agg || cap(p.accs) == 0 {
		return
	}
	clear(p.accs[:cap(p.accs)])
	keys := p.keys[:cap(p.keys)]
	for i := range keys {
		clear(keys[i].Strs[:cap(keys[i].Strs)])
		clear(keys[i].Bytes[:cap(keys[i].Bytes)])
		keys[i].Reset(metadata.TypeInvalid)
	}
	*p = Partial{keys: keys[:0], accs: p.accs[:0]}
	tables[bits.Len(uint(cap(p.accs)))-1].Put(p)
}

// states is group r's aggregations.
func (p *Partial) states(r int) []aggState { return p.accs[r*p.naggs : (r+1)*p.naggs] }

// take makes p's rows the given rows of src, in their order, taking over
// their states; the rest of src's states are cleared, letting go of their
// DISTINCTCOUNT sets. src may be p itself when the positions ascend: each
// row is appended to the table truncated to its front, where a row's new
// place is never after its old one, so it is read before it is written over.
func (p *Partial) take(src *Partial, rows []int32) {
	accs := src.accs
	for c := range p.keys {
		v := src.keys[c]
		p.keys[c].Reset(v.Type)
		p.keys[c].AppendRows(&v, rows)
	}
	p.accs = p.accs[:0]
	for _, r := range rows {
		p.accs = append(p.accs, accs[int(r)*p.naggs:(int(r)+1)*p.naggs]...)
	}
	clear(accs[len(p.accs):])
	p.n = len(rows)
}

// size approximates an aggregate partial's resident footprint for the
// cache's byte accounting: the arrays its states and key vectors hold, to
// their capacity — a scan's partial is a pooled table, whose arrays are
// sized by the pool and may hold what an earlier query left room for — and
// the DISTINCTCOUNT sets' members.
func (p *Partial) size() int64 {
	n := int64(128 + int(unsafe.Sizeof(aggState{}))*cap(p.accs))
	for _, v := range p.keys[:cap(p.keys)] {
		n += int64(unsafe.Sizeof(v)) + int64(8*(cap(v.Ints)+cap(v.Floats))+16*cap(v.Strs)+24*cap(v.Bytes)+cap(v.Null))
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

// Merge folds another partial into this one, leaving o unchanged: the one
// two-run merge, for a caller that folds partials one at a time. Merging is
// associative and commutative, so partials fold in any arrival order and
// remain reusable after being merged.
func (p *Partial) Merge(o *Partial) {
	p.accs = slices.Grow(p.accs, len(o.accs)) // room to grow in, by doubling
	*p = *merged(nil, []*Partial{p, o}, 1, false)
}

// merged merges runs, partials of q's shape of which the first own are the
// caller's to write and the rest only to read, into one table; the stats add
// up. No run makes an empty table; the caller's only run is the table. An
// aggregation's runs, each in key order, merge k ways (mergeScratch.merge)
// into a table in strict key order: the largest of the caller's runs when
// the others add no group to it, else pooled a table from the pool — the
// caller releases it and its own runs — and else (a view's Merge) one whose
// states go where that run keeps its own when it has room for them all, or
// into one array allocated at their size. A group's first state moves in from a
// run of the caller's and is copied from any other, its DISTINCTCOUNT set
// with it. A selection's rows follow run after run. Runs that are only read
// are left unchanged.
func merged(q *Query, runs []*Partial, own int, pooled bool) *Partial {
	switch {
	case len(runs) == 0:
		return newPartial(q)
	case len(runs) == 1 && own == 1:
		return runs[0]
	}
	for i := range own {
		if runs[i].n > runs[0].n {
			runs[0], runs[i] = runs[i], runs[0]
		}
	}
	var stats ExecStats
	for _, r := range runs {
		stats.Add(r.stats)
	}
	m := mergePool.Get().(*mergeScratch)
	defer m.put()
	var out *Partial
	if runs[0].agg {
		m.merge(runs)
		if own > 0 && len(m.from) == runs[0].n {
			m.fold(runs, 1, runs[0].accs, own)
			runs[0].stats = stats
			return runs[0]
		}
		if pooled {
			out = newTable(runs[0].naggs, len(runs[0].keys), len(m.from))
		} else {
			out = &Partial{agg: true, naggs: runs[0].naggs, keys: make([]record.Vector, len(runs[0].keys))}
		}
		first, n := 0, len(m.from)*out.naggs
		switch {
		case pooled:
			out.accs = out.accs[:n]
		case own > 0 && cap(runs[0].accs) >= n:
			// The largest of the caller's runs has room for the table's
			// states: its own move back to their groups' places, last
			// first, as no row's group is before the row.
			out.accs, first = runs[0].accs[:n], 1
			for g := len(m.from) - 1; g >= 0; g-- {
				switch {
				case m.from[g] != 0:
					clear(out.states(g))
				case int(m.rows[g]) != g:
					copy(out.states(g), runs[0].states(int(m.rows[g])))
				}
			}
		default:
			out.accs = make([]aggState, n)
		}
		m.fold(runs, first, out.accs, own)
	} else {
		out = &Partial{}
		for i, r := range runs {
			if out.cols == nil && r.cols != nil {
				out.cols, out.keys = r.cols, make([]record.Vector, len(r.keys))
			}
			for row := range r.n {
				m.from, m.rows = append(m.from, int32(i)), append(m.rows, int32(row))
			}
		}
	}
	out.n, out.stats = len(m.from), stats
	for c := range out.keys {
		for _, r := range runs {
			if v := &out.keys[c]; r.n > 0 && v.Type == metadata.TypeInvalid {
				v.Reset(r.keys[c].Type)
				v.Grow(out.n)
			}
		}
	}
	// Key rows are copied a stretch of one run at a time.
	for j := 0; j < out.n; {
		k := j + 1
		for k < out.n && m.from[k] == m.from[j] {
			k++
		}
		for c := range out.keys {
			out.keys[c].AppendRows(&runs[m.from[j]].keys[c], m.rows[j:k])
		}
		j = k
	}
	return out
}

// mergeScratch is one merge's, trim's or Finalize's working memory, recycled
// through mergePool: each row of the table to be — the run from[g] and the
// row rows[g] its key is read from — and, for an aggregation, the group each
// run's rows fold into: run i's row r into group dst[i][r], a stretch of one
// backing array; or a table's positions (rows), ranks and trim marks.
type mergeScratch struct {
	from, rows []int32
	dst        [][]int32
	groups     []int32 // dst's backing array
	at         []int   // each run's next row
	slots      []int32 // direct's table over a span of longs
	terms      []rankTerm
	marks      []uint64
}

var mergePool = sync.Pool{New: func() any { return new(mergeScratch) }}

// merge merges runs, aggregations in key order, k ways: the run whose next
// key is least gives the next row, ties to the earlier run, and a key equal
// to the group written last — the same group in another run — joins it. So
// a group's key is read from the earliest run that holds it.
func (m *mergeScratch) merge(runs []*Partial) {
	total := 0
	for _, r := range runs {
		total += r.n
	}
	m.groups = slices.Grow(m.groups[:0], total)
	rest := m.groups[:total]
	m.dst, m.at = m.dst[:0], m.at[:0]
	for _, r := range runs {
		m.dst, rest = append(m.dst, rest[:r.n:r.n]), rest[r.n:]
		m.at = append(m.at, 0)
	}
	if m.direct(runs) {
		return
	}
	for {
		i := -1
		for j, run := range runs {
			if m.at[j] < run.n && (i < 0 || compareKeys(run, m.at[j], runs[i], m.at[i]) < 0) {
				i = j
			}
		}
		if i < 0 {
			return
		}
		// A run is in strict key order: only another run's row can hold
		// the key of the group written last.
		r, g := m.at[i], len(m.from)-1
		if g < 0 || int(m.from[g]) == i || compareKeys(runs[m.from[g]], int(m.rows[g]), runs[i], r) != 0 {
			m.from, m.rows, g = append(m.from, int32(i)), append(m.rows, int32(r)), g+1
		}
		m.dst[i][r] = int32(g)
		m.at[i]++
	}
}

// fold folds the states of runs[first:] into accs, the merged groups'
// states, run after run: a group's first row, when its run is one of the
// first own, moves its states in, and every other row folds its states into
// its group's.
func (m *mergeScratch) fold(runs []*Partial, first int, accs []aggState, own int) {
	naggs := runs[0].naggs
	for i := first; i < len(runs); i++ {
		for r, g := range m.dst[i] {
			to := accs[int(g)*naggs : (int(g)+1)*naggs]
			if i < own && int(m.from[g]) == i && int(m.rows[g]) == r {
				copy(to, runs[i].states(r))
				continue
			}
			foldStates(to, runs[i].states(r))
		}
	}
}

// direct merges runs keyed by one long column without NULLs whose values
// are dense — their span at most 16 times the runs' rows, every value a
// float64 of its own — by value, and reports whether it did: each value's
// slot in a table over the span is marked, and the marked slots numbered in
// value order are the groups, a group's key read from the earliest run.
func (m *mergeScratch) direct(runs []*Partial) bool {
	lo, hi, total := int64(math.MaxInt64), int64(math.MinInt64), 0
	for _, r := range runs {
		if r.n == 0 {
			continue
		}
		if len(r.keys) != 1 || len(r.keys[0].Null) > 0 || !slices.Contains(longTypes, r.keys[0].Type) {
			return false
		}
		lo, hi, total = min(lo, r.keys[0].Ints[0]), max(hi, r.keys[0].Ints[r.n-1]), total+r.n
	}
	if total == 0 || lo < -1<<53 || hi > 1<<53 || hi-lo >= int64(16*total) {
		return false
	}
	slots := slices.Grow(m.slots[:0], int(hi-lo)+1)[:hi-lo+1]
	for _, r := range runs {
		for _, x := range r.keys[0].Ints[:r.n] {
			slots[x-lo] = 1
		}
	}
	groups := int32(0)
	for k, s := range slots {
		if s != 0 {
			groups++
			slots[k] = groups
		}
	}
	m.from, m.rows = slices.Grow(m.from, int(groups))[:groups], slices.Grow(m.rows, int(groups))[:groups]
	for i := len(runs) - 1; i >= 0; i-- {
		for r, x := range runs[i].keys[0].Ints[:runs[i].n] {
			g := slots[x-lo] - 1
			m.from[g], m.rows[g], m.dst[i][r] = int32(i), int32(r), g
		}
	}
	clear(slots)
	m.slots = slots
	return true
}

// longTypes are the column types a record.Vector holds in Ints.
var longTypes = []metadata.FieldType{metadata.TypeLong, metadata.TypeTimestamp, metadata.TypeBool}

// put lets go of the runs the last merge left and returns m to mergePool.
func (m *mergeScratch) put() {
	m.from, m.rows = m.from[:0], m.rows[:0]
	clear(m.dst)
	mergePool.Put(m)
}

// Finalize converts the merged partial into a user-facing response: group
// states collapse to final values (AVG = Sum/Count, DISTINCTCOUNT = set
// cardinality) and ORDER BY / OFFSET / LIMIT apply. Under ORDER BY rows rank
// by position over the typed table — the ORDER BY terms, then ascending
// value of each key column (Partial.less); without it an aggregation's
// groups come as they lie, in key order, and a selection's rows in their
// merge order. Only the rows returned are written: key columns gathered,
// aggregations as record.Agg.AppendFinal writes them. Finalize only reads p.
func (p *Partial) Finalize(q *Query) (*QueryResponse, error) {
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
	m := mergePool.Get().(*mergeScratch)
	defer m.put()
	terms, err := p.order(q, cols, m)
	if err != nil {
		return nil, err
	}
	m.rows = p.positions(m.rows)
	order := m.rows
	if len(terms) > 0 {
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
	out := record.Batch{Columns: cols, Cols: make([]record.Vector, len(cols)), Len: len(order)}
	for c := range p.keys {
		out.Cols[c].AppendRows(&p.keys[c], order)
	}
	for ai, spec := range q.Aggs {
		v := &out.Cols[len(p.keys)+ai]
		v.Reset(spec.Kind.FinalType())
		v.Grow(len(order))
		for _, r := range order {
			a := p.accs[int(r)*p.naggs+ai].result(spec.Kind)
			a.AppendFinal(v, spec.Kind)
		}
	}
	return &QueryResponse{Batch: out, Stats: p.stats}, nil
}

// order resolves q's ORDER BY over the result columns cols — the key
// columns, then the aggregations — to rank terms over the table, in m.
func (p *Partial) order(q *Query, cols []string, m *mergeScratch) ([]rankTerm, error) {
	m.terms = slices.Grow(m.terms[:0], len(q.OrderBy))[:len(q.OrderBy)]
	terms := m.terms
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
	m := newMutableSegment("", schema, len(rows), nil)
	for _, r := range rows {
		m.appendRow(r.Vals)
	}
	return m.snapshot().executePartial(q, nil, nil)
}
