package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/record"
)

// The reference evaluator answers the benchmark's query shapes the slow,
// obvious way — one regenerated row at a time, no indexes, no partial
// aggregates — and shares no code with the program. Every answer the
// program gives is compared against it.

type aggKind int

const (
	aggCount aggKind = iota
	aggSum
	aggAvg
	aggMax
)

type refAgg struct {
	kind aggKind
	col  string
	as   string
}

// refQuery is one shape in evaluator form. A query with aggs is grouped (by
// groupBy, possibly empty); one without is a selection of sel columns.
type refQuery struct {
	// scan calls yield for every row of the shape's input, already joined
	// where the shape joins.
	scan    func(yield func(record.Record))
	where   func(record.Record) bool
	groupBy []string
	aggs    []refAgg
	// topBy/limit keep the limit groups with the largest topBy aggregate.
	topBy string
	limit int
	sel   []string
	// lookup regenerates the input row a selected row claims to be, from
	// its order_id; selections with LIMIT may return any matching rows.
	lookup func(id string) (record.Record, bool)
}

// refAnswer is the evaluator's answer: grouped rows keyed by group key, or
// for selections just the number of matching rows.
type refAnswer struct {
	groups   map[string]map[string]any // group key → output column → value
	matching int
	// cutoff is the topBy value of the limit-th group: groups tied with it
	// are interchangeable in a top-K answer.
	cutoff float64
}

type refGroup struct {
	key   []any
	count int64
	sum   []float64
	n     []int64
	max   []float64
}

func groupKey(vals []any) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, "\x1f")
}

func evaluate(q refQuery) refAnswer {
	if len(q.aggs) == 0 {
		n := 0
		q.scan(func(r record.Record) {
			if q.where == nil || q.where(r) {
				n++
			}
		})
		return refAnswer{matching: n}
	}
	groups := make(map[string]*refGroup)
	q.scan(func(r record.Record) {
		if q.where != nil && !q.where(r) {
			return
		}
		vals := make([]any, len(q.groupBy))
		for i, c := range q.groupBy {
			vals[i] = r[c]
		}
		k := groupKey(vals)
		g, ok := groups[k]
		if !ok {
			g = &refGroup{key: vals, sum: make([]float64, len(q.aggs)), n: make([]int64, len(q.aggs)), max: make([]float64, len(q.aggs))}
			for i := range g.max {
				g.max[i] = math.Inf(-1)
			}
			groups[k] = g
		}
		g.count++
		for i, a := range q.aggs {
			if a.kind == aggCount {
				continue
			}
			v := r.Double(a.col)
			g.sum[i] += v
			g.n[i]++
			if v > g.max[i] {
				g.max[i] = v
			}
		}
	})
	ans := refAnswer{groups: make(map[string]map[string]any, len(groups)), matching: len(groups)}
	for k, g := range groups {
		out := make(map[string]any, len(q.groupBy)+len(q.aggs))
		for i, c := range q.groupBy {
			out[c] = g.key[i]
		}
		for i, a := range q.aggs {
			switch a.kind {
			case aggCount:
				out[a.as] = g.count
			case aggSum:
				out[a.as] = g.sum[i]
			case aggAvg:
				out[a.as] = g.sum[i] / float64(g.n[i])
			case aggMax:
				out[a.as] = g.max[i]
			}
		}
		ans.groups[k] = out
	}
	if q.limit > 0 && len(ans.groups) > q.limit {
		tops := make([]float64, 0, len(ans.groups))
		for _, out := range ans.groups {
			tops = append(tops, out[q.topBy].(float64))
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(tops)))
		ans.cutoff = tops[q.limit-1]
		ans.matching = q.limit
	}
	return ans
}

// sameValue compares one answer cell: integers and strings exactly, floats
// to 1e-9 relative.
func sameValue(got, want any) bool {
	switch w := want.(type) {
	case float64:
		g, ok := got.(float64)
		if !ok {
			return false
		}
		return math.Abs(g-w) <= 1e-9*math.Max(math.Abs(g), math.Abs(w))
	default:
		return got == want
	}
}

// check compares the program's answer (cols, rows) with the reference's.
func check(q refQuery, want refAnswer, cols []string, rows [][]any) error {
	col := func(name string) int {
		for i, c := range cols {
			if c == name || strings.HasSuffix(c, "."+name) {
				return i
			}
		}
		return -1
	}
	if len(q.aggs) == 0 {
		return checkSelection(q, want, col, rows)
	}
	if len(rows) != want.matching {
		return fmt.Errorf("%d groups, want %d", len(rows), want.matching)
	}
	keyIdx := make([]int, len(q.groupBy))
	for i, c := range q.groupBy {
		if keyIdx[i] = col(c); keyIdx[i] < 0 {
			return fmt.Errorf("answer has no column %q (has %v)", c, cols)
		}
	}
	seen := make(map[string]bool, len(rows))
	prev := math.Inf(1)
	for _, row := range rows {
		vals := make([]any, len(keyIdx))
		for i, ci := range keyIdx {
			vals[i] = row[ci]
		}
		k := groupKey(vals)
		ref, ok := want.groups[k]
		if !ok {
			return fmt.Errorf("group %v is not in the reference answer", vals)
		}
		if seen[k] {
			return fmt.Errorf("group %v returned twice", vals)
		}
		seen[k] = true
		for _, a := range q.aggs {
			ci := col(a.as)
			if ci < 0 {
				return fmt.Errorf("answer has no column %q (has %v)", a.as, cols)
			}
			if !sameValue(row[ci], ref[a.as]) {
				return fmt.Errorf("group %v: %s = %v, want %v", vals, a.as, row[ci], ref[a.as])
			}
		}
		if q.limit > 0 {
			top := ref[q.topBy].(float64)
			if top < want.cutoff {
				return fmt.Errorf("group %v (%s=%v) is below the top-%d cutoff %v", vals, q.topBy, top, q.limit, want.cutoff)
			}
			if top > prev {
				return fmt.Errorf("top-%d answer is not in descending %s order", q.limit, q.topBy)
			}
			prev = top
		}
	}
	return nil
}

func checkSelection(q refQuery, want refAnswer, col func(string) int, rows [][]any) error {
	expect := want.matching
	if q.limit > 0 && expect > q.limit {
		expect = q.limit
	}
	if len(rows) != expect {
		return fmt.Errorf("%d rows, want %d of %d matching", len(rows), expect, want.matching)
	}
	idIdx := col("order_id")
	if idIdx < 0 {
		return fmt.Errorf("selection answer has no order_id column")
	}
	seen := make(map[string]bool, len(rows))
	for _, row := range rows {
		id, _ := row[idIdx].(string)
		src, ok := q.lookup(id)
		if !ok || !q.where(src) {
			return fmt.Errorf("row %q does not match the predicate or was never produced", id)
		}
		if seen[id] {
			return fmt.Errorf("row %q returned twice", id)
		}
		seen[id] = true
		for _, c := range q.sel {
			if ci := col(c); ci < 0 || !sameValue(row[ci], src[c]) {
				return fmt.Errorf("row %q: column %s differs from the produced row", id, c)
			}
		}
	}
	return nil
}
