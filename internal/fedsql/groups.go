package fedsql

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"repro/internal/metadata"
	"repro/internal/objstore"
	"repro/internal/record"
	"repro/internal/sqlparse"
)

// aggWindow is the rows a group table folds at a time.
const aggWindow = 1024

// aggregate is the engine-side hash aggregation: it folds the rows of src
// that pass filter into one accumulator set per group, batch by batch — the
// peak engine footprint is one batch plus the group table, not the input —
// and returns the groups as an in-memory relation laid out like a pushed-down
// aggregate's response (groupTable.finish).
func aggregate(ctx context.Context, src RowIterator, filter []boundPredicate, stmt *sqlparse.SelectStmt) (RowIterator, error) {
	var aggs []sqlparse.SelectItem
	var inputs []string
	for _, it := range stmt.Items {
		if it.Func != sqlparse.FuncNone {
			aggs = append(aggs, it)
			inputs = append(inputs, qualName(it.Table, it.Column))
		}
	}
	groupIdx := bindColumns(src.Columns(), stmt.GroupBy)
	inputIdx := bindColumns(src.Columns(), inputs)
	t := newGroupTable(len(groupIdx), aggs)
	if err := t.foldRows(ctx, src, filter, groupIdx, inputIdx); err != nil {
		t.release()
		return nil, err
	}
	return t.finish(stmt.GroupBy), nil
}

// groupTable is an aggregation's working memory: a record.KeyIndex of the
// GROUP BY keys, each group's GROUP BY values (row g of values) and
// aggregate states, and the finished groups. A row's group is numbered in
// one of two ways — per row through the index (foldRows, every shape) or per
// dictionary code of an archive part (foldPart) — and both add a group's key
// to the one index as its cells class it, so they agree on which rows form a
// group. Tables come from groupTables and go back at the Close of the
// iterator that serves the finished groups, so a warm aggregation allocates
// none of their arrays.
type groupTable struct {
	aggs   []sqlparse.SelectItem
	index  record.KeyIndex
	keys   []record.Vector // the GROUP BY cells add numbers rows of
	nulls  record.Vector   // a batch of NULLs: a GROUP BY column no source has
	values []record.Vector // group g's GROUP BY values are row g
	states []record.Agg    // group g's aggregates are states[g*len(aggs):][:len(aggs)]
	n      int             // groups
	sel    [aggWindow]int32
	ids    [aggWindow]int32 // the group of each row of sel
	one    [1]int32
	order  []int32
	out    []record.Vector // the finished groups' columns

	// An archive part's GROUP BY column as stored (foldPart; none or one),
	// and its groups by code: gid[code+1], gid[0] for a NULL or no GROUP
	// BY; -1 until a row folds it.
	coded  []objstore.Coded
	dict   [1]record.Vector // the column's dictionary, as the index reads it
	gid    []int32
	inputs []*record.Vector
}

var groupTables = sync.Pool{New: func() any { return new(groupTable) }}

// newGroupTable takes a table from the pool for groups of keys GROUP BY
// columns and the aggregates aggs.
func newGroupTable(keys int, aggs []sqlparse.SelectItem) *groupTable {
	t := groupTables.Get().(*groupTable)
	t.aggs, t.n, t.states = aggs, 0, t.states[:0]
	t.keys = slices.Grow(t.keys[:0], keys)[:keys]
	t.values = slices.Grow(t.values[:0], keys)[:keys]
	for i := range t.values {
		t.values[i].Reset(metadata.TypeInvalid) // takes its first value's type
	}
	return t
}

// release returns the table to groupTables with the headers of the vectors
// it read dropped and every string and blob slot of its own vectors, its
// index and its parts' dictionaries cleared up to capacity, so a pooled
// table pins no batch, dictionary or archive part.
func (t *groupTable) release() {
	clear(t.keys[:cap(t.keys)])
	clearVectors(t.values[:cap(t.values)])
	clearVectors(t.out[:cap(t.out)])
	coded := t.coded[:cap(t.coded)]
	for i := range coded {
		clear(coded[i].Dict[:cap(coded[i].Dict)])
	}
	clear(t.inputs[:cap(t.inputs)])
	t.dict[0] = record.Vector{}
	t.index.Reset()
	t.aggs = nil
	groupTables.Put(t)
}

// add returns the group of row r of keys, opening it with a copy of the
// row's values when it is new: a copy per group, not per row.
func (t *groupTable) add(r int) int32 {
	g, found := t.index.Add(t.keys, r)
	if !found {
		t.one[0] = int32(r)
		for i := range t.keys {
			t.values[i].AppendRows(&t.keys[i], t.one[:])
		}
		t.open()
	}
	return int32(g)
}

// open adds a new group's aggregate states.
func (t *groupTable) open() {
	t.n++
	for range t.aggs {
		t.states = append(t.states, record.Agg{})
	}
}

// foldRows numbers each row of src that passes filter through the index,
// a window of aggWindow rows at a time, and folds the window's inputs.
func (t *groupTable) foldRows(ctx context.Context, src RowIterator, filter []boundPredicate, groupIdx, inputIdx []int) error {
	missing := slices.Contains(groupIdx, -1)
	for {
		b, err := src.Next(ctx)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if missing {
			t.nulls.Reset(metadata.TypeInvalid)
			t.nulls.AppendNulls(b.Len)
		}
		for i, gi := range groupIdx {
			if gi < 0 {
				t.keys[i] = t.nulls // NULL in every row
				continue
			}
			t.keys[i] = b.Cols[gi]
		}
		for from := 0; from < b.Len; from += aggWindow {
			sel := filterRows(b, from, min(from+aggWindow, b.Len), filter, t.sel[:0])
			groups := t.ids[:len(sel)]
			for j, r := range sel {
				groups[j] = t.add(int(r))
			}
			for i, c := range inputIdx {
				var v *record.Vector
				if c >= 0 {
					v = &b.Cols[c]
				}
				if err := t.fold(i, v, sel, groups); err != nil {
					return err
				}
			}
		}
	}
}

// foldPart folds one archive part of rows rows: its GROUP BY column, if
// any, as coded (dictionary and codes) and each aggregate's input in inputs
// (nil for none). A row's group is looked up by its code, and a code's
// group is found in the index once per part, from its dictionary text.
func (t *groupTable) foldPart(rows int, inputs []*record.Vector) error {
	n := 1 // gid[0]: a NULL code, or every row without GROUP BY
	if len(t.coded) == 1 {
		n += len(t.coded[0].Dict)
		t.dict[0] = record.Vector{Type: metadata.TypeString, Strs: t.coded[0].Dict}
	}
	t.gid = slices.Grow(t.gid[:0], n)[:n]
	for c := range t.gid {
		t.gid[c] = -1
	}
	for from := 0; from < rows; from += aggWindow {
		sel := t.sel[:min(aggWindow, rows-from)]
		groups := t.ids[:len(sel)]
		for j := range sel {
			sel[j] = int32(from + j)
			groups[j] = t.codeGroup(from + j)
		}
		for i, v := range inputs {
			if err := t.fold(i, v, sel, groups); err != nil {
				return err
			}
		}
	}
	return nil
}

// codeGroup returns the group of part row r by its code.
func (t *groupTable) codeGroup(r int) int32 {
	code := int32(-1)
	if len(t.coded) == 1 {
		code = t.coded[0].Codes[r]
	}
	if g := t.gid[code+1]; g >= 0 {
		return g
	}
	g := t.addCoded(code)
	t.gid[code+1] = g
	return g
}

// addCoded returns the group of a row whose GROUP BY value is dictionary
// entry code (-1: NULL, or no GROUP BY), classed as add classes a row's
// string cell, and opens it with a copy of the entry when it is new: a
// string per group, none per row.
func (t *groupTable) addCoded(code int32) int32 {
	var g int
	var found bool
	if code >= 0 {
		g, found = t.index.Add(t.dict[:], int(code))
	} else {
		g, found = t.index.AddKey(false, 0, nil, false)
	}
	if !found {
		switch {
		case len(t.coded) == 0:
		case code >= 0:
			t.values[0].Strs = append(t.values[0].Strs, strings.Clone(t.coded[0].Dict[code]))
		default:
			t.values[0].AppendNulls(1)
		}
		t.open()
	}
	return int32(g)
}

// fold folds aggregate ai's input v (nil: a column no source has) at the
// given rows into their groups' states: rows[j] into group groups[j]. The
// column's type is switched on once per call; a number is read straight
// from Floats or Ints. SUM/AVG/MIN/MAX over a string or blob column is an
// error, as in the OLAP layer, never coerced to 0, so the engine-side
// fallback stays equivalent to pushdown.
func (t *groupTable) fold(ai int, v *record.Vector, rows, groups []int32) error {
	it, naggs := t.aggs[ai], len(t.aggs)
	st := func(j int) *record.Agg { return &t.states[int(groups[j])*naggs+ai] }
	if v == nil {
		if it.Func == sqlparse.FuncCount && it.Column == "" { // COUNT(*)
			for j := range rows {
				st(j).Count++
			}
		}
		return nil
	}
	switch {
	case it.Func == sqlparse.FuncCount:
		for j, r := range rows {
			if !v.IsNull(int(r)) {
				st(j).Count++
			}
		}
	case v.Type == metadata.TypeDouble:
		for j, r := range rows {
			if !v.IsNull(int(r)) {
				st(j).Add(v.Floats[r])
			}
		}
	case v.Type == metadata.TypeLong || v.Type == metadata.TypeTimestamp || v.Type == metadata.TypeBool:
		for j, r := range rows {
			if !v.IsNull(int(r)) {
				st(j).Add(float64(v.Ints[r]))
			}
		}
	case v.Type == metadata.TypeString || v.Type == metadata.TypeBytes:
		return fmt.Errorf("fedsql: %s over a %s column is not supported; use COUNT", it.OutputName(), v.Type)
	}
	return nil
}

// finish lays the groups out as a pushed-down aggregate's response — the
// GROUP BY columns named groupBy, then one column per aggregate named by
// OutputName — in key order (record.Vector.KeyCompare: ascending by each
// GROUP BY value, NULL first, which no two groups tie), and serves them
// through an in-memory source that returns the table to the pool at its
// Close. Without GROUP BY there is one group, even over no rows.
func (t *groupTable) finish(groupBy []string) *batchIterator {
	if t.n == 0 && len(groupBy) == 0 {
		t.open()
	}
	t.order = slices.Grow(t.order[:0], t.n)[:t.n]
	for g := range t.order {
		t.order[g] = int32(g)
	}
	slices.SortFunc(t.order, func(a, b int32) int {
		for i := range t.values {
			if c := t.values[i].KeyCompare(int(a), &t.values[i], int(b)); c != 0 {
				return c
			}
		}
		return 0
	})
	w := len(groupBy) + len(t.aggs)
	t.out = slices.Grow(t.out[:0], w)[:w]
	out := Batch{Columns: append(make([]string, 0, w), groupBy...), Cols: t.out, Len: t.n}
	for i := range groupBy {
		out.Cols[i].Reset(metadata.TypeInvalid)
		out.Cols[i].AppendRows(&t.values[i], t.order)
	}
	for i, it := range t.aggs {
		out.Columns = append(out.Columns, it.OutputName())
		v := &out.Cols[len(groupBy)+i]
		kind := it.Func.Agg()
		v.Reset(kind.FinalType())
		for _, g := range t.order {
			t.states[int(g)*len(t.aggs)+i].AppendFinal(v, kind)
		}
	}
	it := newBatchIterator(out, QueryStats{})
	it.groups = t
	return it
}
