package olap

import (
	"fmt"
	"sort"
	"strconv"

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
// running values of starAgg plus, for DISTINCTCOUNT, the set of observed
// values. States merge associatively and commutatively, so partials can fold
// together in any grouping or order.
type aggState struct {
	starAgg
	distinct map[string]struct{} // nil unless the spec is AggDistinctCount
}

// addDistinct records one observed value for DISTINCTCOUNT.
func (a *aggState) addDistinct(key string) {
	if a.distinct == nil {
		a.distinct = make(map[string]struct{})
	}
	a.distinct[key] = struct{}{}
}

// mergeState folds another partial state into this one.
func (a *aggState) mergeState(o *aggState) {
	a.starAgg.merge(o.starAgg)
	if len(o.distinct) > 0 {
		if a.distinct == nil {
			a.distinct = make(map[string]struct{}, len(o.distinct))
		}
		for k := range o.distinct {
			a.distinct[k] = struct{}{}
		}
	}
}

// distinctKey canonicalizes a value for the DISTINCTCOUNT set so that the
// same logical value collides across segments regardless of its Go type
// (int64 from a sealed dictionary vs float64 from a consuming row); -0 is 0.
func distinctKey(v any) string {
	if f, ok := toF64(v); ok {
		if f == 0 {
			f = 0
		}
		return "n:" + strconv.FormatFloat(f, 'g', -1, 64)
	}
	return "s:" + fmt.Sprintf("%v", v)
}

// Partial is the mergeable partial result of a query over a subset of a
// table's segments — the unit the scatter phase ships from segment scans to
// the broker's streaming merge. For aggregation queries it holds group
// accumulators keyed by group values; for selection queries, raw rows.
type Partial struct {
	agg    bool
	groups map[string]*groupAgg
	rows   [][]any
	cols   []string
	stats  ExecStats
}

// newPartial returns an empty partial for the query shape.
func newPartial(q *Query) *Partial {
	if len(q.Aggs) > 0 {
		return &Partial{agg: true, groups: make(map[string]*groupAgg)}
	}
	return &Partial{}
}

// partialFromGroups re-keys a star-tree answer's groups by group value —
// record.AppendValueKey of each, the key every partial merges on: segment-
// local dictionary codes mean nothing across segments.
func partialFromGroups(groups map[string]*groupAgg) *Partial {
	p := &Partial{agg: true, groups: make(map[string]*groupAgg, len(groups))}
	var key []byte
	for _, g := range groups {
		key = key[:0]
		for _, v := range g.values {
			key = record.AppendValueKey(key, v)
		}
		p.addGroup(key, g)
	}
	return p
}

// addGroup adds a segment's group under its value key. Two codes of one
// segment can share a key — longs above 2^53 that are one float64 — and then
// fold into one group.
func (p *Partial) addGroup(key []byte, g *groupAgg) {
	mine, ok := p.groups[string(key)]
	if !ok {
		p.groups[string(key)] = g
		return
	}
	for i := range mine.aggs {
		mine.aggs[i].mergeState(&g.aggs[i])
	}
}

// cloneGroup deep-copies a group accumulator so an adopting Partial cannot
// later mutate state still referenced by the source.
func cloneGroup(g *groupAgg) *groupAgg {
	cp := &groupAgg{values: g.values, aggs: make([]aggState, len(g.aggs))}
	for i, a := range g.aggs {
		cp.aggs[i].starAgg = a.starAgg
		if a.distinct != nil {
			cp.aggs[i].distinct = make(map[string]struct{}, len(a.distinct))
			for k := range a.distinct {
				cp.aggs[i].distinct[k] = struct{}{}
			}
		}
	}
	return cp
}

// Merge folds another partial into this one, leaving o unchanged. Merging
// is associative and commutative, so the broker can fold partials in
// arrival order — and partials remain reusable after being merged.
func (p *Partial) Merge(o *Partial) {
	p.stats.Add(o.stats)
	if p.agg {
		for k, g := range o.groups {
			mine, ok := p.groups[k]
			if !ok {
				p.groups[k] = cloneGroup(g)
				continue
			}
			for i := range mine.aggs {
				mine.aggs[i].mergeState(&g.aggs[i])
			}
		}
		return
	}
	if p.cols == nil {
		p.cols = o.cols
	}
	p.rows = append(p.rows, o.rows...)
}

// Finalize converts the merged partial into a user-facing Result: group
// states collapse to final values (AVG = Sum/Count, DISTINCTCOUNT = set
// cardinality), groups sort deterministically, and ORDER BY / LIMIT apply.
func (p *Partial) Finalize(q *Query) (*Result, error) {
	if !p.agg {
		cols := p.cols
		if cols == nil {
			cols = append([]string(nil), q.Select...)
		}
		res := &Result{Columns: cols, Rows: p.rows, Stats: p.stats}
		if err := sortAndLimit(res, q); err != nil {
			return nil, err
		}
		return res, nil
	}
	cols := append([]string(nil), q.GroupBy...)
	for _, a := range q.Aggs {
		cols = append(cols, a.outName())
	}
	res := &Result{Columns: cols, Stats: p.stats}
	if len(p.groups) == 0 && len(q.GroupBy) == 0 {
		// SQL semantics: a global aggregate over zero rows still returns one
		// row (count = 0, sum = 0, min/max/avg = NULL), which OFFSET skips as
		// it would any other.
		row := make([]any, 0, len(q.Aggs))
		for _, spec := range q.Aggs {
			row = append(row, aggValue(aggState{}, spec.Kind))
		}
		res.Rows = append(res.Rows, row)
	}
	ordered := make([]*groupAgg, 0, len(p.groups))
	for _, g := range p.groups {
		ordered = append(ordered, g)
	}
	sort.Slice(ordered, func(a, b int) bool {
		ga, gb := ordered[a].values, ordered[b].values
		for i := range ga {
			if cmp := record.Compare(ga[i], gb[i]); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	for _, g := range ordered {
		row := append([]any(nil), g.values...)
		for ai, spec := range q.Aggs {
			row = append(row, aggValue(g.aggs[ai], spec.Kind))
		}
		res.Rows = append(res.Rows, row)
	}
	if err := sortAndLimit(res, q); err != nil {
		return nil, err
	}
	return res, nil
}

// PartialOfRows computes the mergeable partial-aggregate state of a query
// over a batch of raw rows, all treated as valid — the primitive the
// matview registry uses to fold newly-ingested rows into a standing view's
// state (Merge) without re-executing the query. The batch goes through a
// transient column store and the exact consuming-segment scan, so the
// partial merges and finalizes identically to scatter-gathered partials.
func PartialOfRows(schema *metadata.Schema, rows []record.Record, q *Query) (*Partial, error) {
	m := newMutableSegment("", schema, len(rows))
	for _, r := range rows {
		if _, err := m.add(r); err != nil {
			return nil, err
		}
	}
	return m.snapshot().executePartial(q, nil, nil)
}
