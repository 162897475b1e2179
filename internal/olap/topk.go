package olap

import (
	"container/heap"
	"strings"

	"repro/internal/record"
)

// This file implements the bounded top-K execution path for ORDER BY/LIMIT
// queries — Pinot's answer to the dashboard query shape
// (GROUP BY d ORDER BY agg DESC LIMIT 10). Instead of materializing every
// matching row and shipping every candidate group to the broker, segments
// keep a bounded heap of the best Limit+Offset selection rows, grouped
// aggregations trim to the top max(Limit*5, TrimSize) groups by the leading
// ORDER BY term (Pinot's minSegmentGroupTrimSize rule), and servers apply
// the same bound to the merged partial before it crosses the wire. Broker
// memory for the gather phase is then O(K · servers), not O(groups).
//
// Group trimming is deliberately inexact under pathological skew — a group
// trimmed on one server may survive on another, leaving its aggregate
// partial — exactly like Pinot's server-side trim. Selection-row heaps are
// always exact up to tie order (per-segment top-K rows are independent, so
// their union contains the global top K). QueryRequest.TrimExact disables
// all trimming for byte-identical full-sort results.

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
	// rowK bounds selection-row heaps: the best Limit+Offset rows.
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
	// last-match-wins column lookup in sortAndLimit.
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

// orderComparator builds the full ORDER BY comparator over result rows with
// the given columns. Reports false when an ORDER BY column is absent from
// the row shape (callers then fall back to untrimmed execution).
func orderComparator(q *Query, cols []string) (func(a, b []any) int, bool) {
	idx := make([]int, len(q.OrderBy))
	for i, o := range q.OrderBy {
		idx[i] = -1
		for ci, c := range cols {
			if c == o.Column {
				idx[i] = ci
			}
		}
		if idx[i] < 0 {
			return nil, false
		}
	}
	return func(a, b []any) int {
		for i, o := range q.OrderBy {
			cmp := record.Compare(a[idx[i]], b[idx[i]])
			if cmp == 0 {
				continue
			}
			if o.Desc {
				return -cmp
			}
			return cmp
		}
		return 0
	}, true
}

// rowHeap is the container/heap backing of topKRows: the root is the WORST
// row currently kept, so a better candidate replaces it in O(log k).
type rowHeap struct {
	rows [][]any
	cmp  func(a, b []any) int // < 0 means a ranks before (better than) b
}

func (h *rowHeap) Len() int           { return len(h.rows) }
func (h *rowHeap) Less(i, j int) bool { return h.cmp(h.rows[i], h.rows[j]) > 0 }
func (h *rowHeap) Swap(i, j int)      { h.rows[i], h.rows[j] = h.rows[j], h.rows[i] }
func (h *rowHeap) Push(x any)         { h.rows = append(h.rows, x.([]any)) }
func (h *rowHeap) Pop() any {
	n := len(h.rows)
	r := h.rows[n-1]
	h.rows = h.rows[:n-1]
	return r
}

// topKRows keeps the best k rows seen under an ORDER BY comparator in O(k)
// memory. Earlier rows win ties (a tie never evicts), matching the stable
// full sort's preference for earlier doc IDs at the cut line.
type topKRows struct {
	k int
	h rowHeap
}

func newTopKRows(k int, cmp func(a, b []any) int) *topKRows {
	return &topKRows{k: k, h: rowHeap{cmp: cmp}}
}

func (t *topKRows) push(row []any) {
	if t.h.Len() < t.k {
		heap.Push(&t.h, row)
		return
	}
	if t.h.cmp(row, t.h.rows[0]) < 0 {
		t.h.rows[0] = row
		heap.Fix(&t.h, 0)
	}
}

// take returns the kept rows in heap order (arbitrary); Finalize's full
// sort over the O(K · fan-out) survivors restores the user-facing order.
func (t *topKRows) take() [][]any { return t.h.rows }

// groupRanks holds the leading ORDER BY term of each candidate group of a
// trim, typed once: ranking compares float64s and strings, never boxed
// values through record.Compare. The order is record.Compare's — NULL
// first, numbers by value (a NaN ties with everything), strings by content —
// reversed for DESC.
type groupRanks struct {
	desc bool
	null []bool
	num  []float64
	str  []string // allocated when the term is a string group-by column
}

func newGroupRanks(n int, desc bool) *groupRanks {
	return &groupRanks{desc: desc, null: make([]bool, n), num: make([]float64, n)}
}

// setAgg ranks candidate i by an aggregation: the float64 record.Compare
// would see of aggValue's result, NULL for MIN/MAX/AVG of no input.
func (r *groupRanks) setAgg(i int, a *aggState, kind AggKind) {
	switch kind {
	case AggSum:
		r.num[i] = a.Sum
	case AggMin:
		r.num[i], r.null[i] = a.Min, a.Count == 0
	case AggMax:
		r.num[i], r.null[i] = a.Max, a.Count == 0
	case AggAvg:
		r.num[i], r.null[i] = a.Sum/float64(a.Count), a.Count == 0
	case AggDistinctCount:
		r.num[i] = float64(len(a.distinct))
	default:
		r.num[i] = float64(a.Count)
	}
}

// setValue ranks candidate i by a group-by value: a number (a bool is 0 or
// 1), a string or NULL.
func (r *groupRanks) setValue(i int, v any) {
	switch f, ok := toF64(v); {
	case ok:
		r.num[i] = f
	case v == nil:
		r.null[i] = true
	default:
		if r.str == nil {
			r.str = make([]string, len(r.null))
		}
		r.str[i], _ = v.(string)
	}
}

// compare orders candidates a and b: negative when a ranks before b.
func (r *groupRanks) compare(a, b int32) int {
	var c int
	switch {
	case r.null[a] || r.null[b]:
		if !r.null[b] {
			c = -1
		} else if !r.null[a] {
			c = 1
		}
	case r.str != nil:
		c = strings.Compare(r.str[a], r.str[b])
	case r.num[a] < r.num[b]:
		c = -1
	case r.num[a] > r.num[b]:
		c = 1
	}
	if r.desc {
		return -c
	}
	return c
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

// trimGroups is the trim over groups already keyed by value — a star-tree
// answer, a server's merged partial: it keeps the groupK best groups by the
// plan's leading ORDER BY term, returning the kept map and how many groups
// were dropped. Ties break on the map key so trimming is deterministic
// regardless of map iteration or merge arrival order. The input map is
// returned untouched when no trimming applies. (A segment scan trims its
// slots before they become groups; see grouper.partial.)
func trimGroups(groups map[string]*groupAgg, tp *topKPlan) (map[string]*groupAgg, int64) {
	if tp == nil || tp.groupK <= 0 || len(groups) <= tp.groupK {
		return groups, 0
	}
	keys := make([]string, 0, len(groups))
	idx := make([]int32, 0, len(groups))
	ranks := newGroupRanks(len(groups), tp.desc)
	for k, g := range groups {
		i := len(keys)
		keys, idx = append(keys, k), append(idx, int32(i))
		if tp.valIdx >= 0 {
			ranks.setValue(i, g.values[tp.valIdx])
		} else {
			ranks.setAgg(i, &g.aggs[tp.aggIdx], tp.aggKind)
		}
	}
	selectTop(idx, tp.groupK, func(a, b int32) bool {
		if c := ranks.compare(a, b); c != 0 {
			return c < 0
		}
		return keys[a] < keys[b]
	})
	kept := make(map[string]*groupAgg, tp.groupK)
	for _, i := range idx[:tp.groupK] {
		kept[keys[i]] = groups[keys[i]]
	}
	return kept, int64(len(groups) - tp.groupK)
}

// trimTopK bounds a merged partial before it leaves the server: grouped
// aggregations keep groupK groups, selections keep rowK rows. Counts
// dropped groups into stats.GroupsTrimmed.
func (p *Partial) trimTopK(q *Query, tp *topKPlan) {
	if tp == nil {
		return
	}
	if p.agg {
		groups, trimmed := trimGroups(p.groups, tp)
		p.groups = groups
		p.stats.GroupsTrimmed += trimmed
		return
	}
	if tp.rowK <= 0 || len(p.rows) <= tp.rowK {
		return
	}
	if cmp, ok := orderComparator(q, p.cols); ok {
		tk := newTopKRows(tp.rowK, cmp)
		for _, r := range p.rows {
			tk.push(r)
		}
		p.rows = tk.take()
	}
}
