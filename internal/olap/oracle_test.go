package olap

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/metadata"
	"repro/internal/record"
	"repro/internal/reftest"
	"repro/internal/sqlparse"
)

// This file holds the OLAP layer's side of the references the columnar code
// is checked against: FromReference, which hands the queries of
// internal/reftest's evaluator and generator to this package, and
// refBuildSegment, the row-reading segment builder that sealing used to run.
// Neither shares code with the kernels.

// FromReference returns the reference's query as the OLAP layer's. The two
// number their comparison operators alike, and aggregate kinds alike from
// COUNT on; GROUP BY columns lead the items, and SELECT * is an empty select
// list. olap_test shares it.
func FromReference(rq *reftest.Query) *Query {
	q := &Query{Table: rq.From.Name, GroupBy: rq.GroupBy, Limit: rq.Limit, Offset: rq.Offset}
	for _, p := range rq.Where {
		q.Filters = append(q.Filters, Filter{Column: p.Column, Op: FilterOp(p.Op), Value: p.Value, Value2: p.Value2, Values: p.Values})
	}
	for _, it := range rq.Items {
		switch {
		case it.Func != sqlparse.FuncNone:
			q.Aggs = append(q.Aggs, AggSpec{Kind: AggKind(it.Func - sqlparse.FuncCount), Column: it.Column, As: it.Alias})
		case !it.Star && !rq.HasAggregates():
			q.Select = append(q.Select, it.Column)
		}
	}
	for _, o := range rq.OrderBy {
		q.OrderBy = append(q.OrderBy, OrderSpec{Column: o.Column, Desc: o.Desc})
	}
	return q
}

// refBuildSegment is the row-reading builder BuildSegment used to be: sort
// the rows, then per column collect the distinct values in a map, sort
// them, and look every row's value up again.
func refBuildSegment(name string, schema *metadata.Schema, rows []record.Record, cfg IndexConfig, partition int) (*Segment, error) {
	if cfg.SortedColumn != "" {
		f, _ := schema.Field(cfg.SortedColumn)
		rows = append([]record.Record(nil), rows...)
		if f.Type == metadata.TypeString {
			sort.SliceStable(rows, func(i, j int) bool {
				return rows[i].String(cfg.SortedColumn) < rows[j].String(cfg.SortedColumn)
			})
		} else {
			sort.SliceStable(rows, func(i, j int) bool {
				return rows[i].Double(cfg.SortedColumn) < rows[j].Double(cfg.SortedColumn)
			})
		}
	}
	seg := &Segment{
		Name:      name,
		Schema:    schema.Clone(),
		NumRows:   len(rows),
		Columns:   make(map[string]*column, len(schema.Fields)),
		Partition: partition,
	}
	for _, f := range schema.Fields {
		if f.Type == metadata.TypeBytes {
			continue
		}
		seg.Columns[f.Name] = refBuildColumn(f, rows, cfg)
	}
	if schema.TimeField != "" {
		seg.MinTime, seg.MaxTime = rows[0].Long(schema.TimeField), rows[0].Long(schema.TimeField)
		for _, r := range rows[1:] {
			if t := r.Long(schema.TimeField); t < seg.MinTime {
				seg.MinTime = t
			} else if t > seg.MaxTime {
				seg.MaxTime = t
			}
		}
	}
	if cfg.StarTree != nil {
		tree, err := buildStarTree(seg, *cfg.StarTree)
		if err != nil {
			return nil, err
		}
		seg.Tree = tree
	}
	return seg, nil
}

func refBuildColumn(f metadata.Field, rows []record.Record, cfg IndexConfig) *column {
	has := func(r record.Record) bool { return r[f.Name] != nil }
	dict := dictionary{Typ: f.Type}
	if f.Type == metadata.TypeString {
		uniq := make(map[string]bool)
		for _, r := range rows {
			if has(r) {
				uniq[r.String(f.Name)] = true
			}
		}
		dict.Strs = make([]string, 0, len(uniq))
		for s := range uniq {
			dict.Strs = append(dict.Strs, s)
		}
		sort.Strings(dict.Strs)
	} else {
		uniq := make(map[float64]bool)
		uniqInts := make(map[int64]bool)
		for _, r := range rows {
			if has(r) {
				if f.Type == metadata.TypeDouble {
					uniq[r.Double(f.Name)] = true
				} else {
					uniqInts[r.Long(f.Name)] = true
				}
			}
		}
		for v := range uniq {
			dict.Nums = append(dict.Nums, v)
		}
		sort.Float64s(dict.Nums)
		for v := range uniqInts {
			dict.Ints = append(dict.Ints, v)
		}
		slices.Sort(dict.Ints)
	}
	codes := make([]int, len(rows))
	maxCode := dict.size()
	for i, r := range rows {
		switch {
		case !has(r):
			codes[i] = maxCode
		case f.Type == metadata.TypeString:
			codes[i] = sort.SearchStrings(dict.Strs, r.String(f.Name))
		case f.Type == metadata.TypeDouble:
			codes[i] = sort.SearchFloat64s(dict.Nums, r.Double(f.Name))
		default:
			codes[i], _ = slices.BinarySearch(dict.Ints, r.Long(f.Name))
		}
	}
	col := &column{
		Field:  f,
		Dict:   dict,
		Codes:  newPackedInts(codes, maxCode),
		Sorted: cfg.SortedColumn == f.Name,
	}
	if cfg.inverted(f.Name) {
		col.Inverted = make([]*Bitmap, dict.size())
		for i, code := range codes {
			if code == maxCode {
				continue
			}
			if col.Inverted[code] == nil {
				col.Inverted[code] = NewBitmap(len(rows))
			}
			col.Inverted[code].Set(i)
		}
	}
	return col
}

// scanRows draws the rows of one scan differential: up to 200, and now and
// then past a scan-window boundary.
func scanRows(g *reftest.Gen) []record.Record {
	n := 1 + g.Rng.Intn(200)
	if g.Rng.Intn(8) == 0 {
		n += BatchRows
	}
	return g.Rows(n)
}

// storeOf appends rows to a fresh mutable store.
func storeOf(t *testing.T, schema *metadata.Schema, rows []record.Record) *mutableSegment {
	t.Helper()
	m := newMutableSegment("m", schema, 0, nil)
	row := make([]record.Value, len(schema.Fields))
	for _, r := range rows {
		if err := record.Conform(schema, r, row); err != nil {
			t.Fatal(err)
		}
		m.appendRow(row)
	}
	return m
}

// sortable draws a column IndexConfig.checkSorted accepts as the sorted
// column: not nullable, not bool ("id" always qualifies).
func sortable(g *reftest.Gen) string {
	var names []string
	for _, f := range g.Queryable() {
		if (IndexConfig{SortedColumn: f.Name}).checkSorted(g.Schema) == nil {
			names = append(names, f.Name)
		}
	}
	return names[g.Rng.Intn(len(names))]
}

// mustParse parses sql for the reference.
func mustParse(t testing.TB, sql string) *reftest.Query {
	t.Helper()
	q, err := reftest.Parse(sql)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	return q
}

// kindSweep draws an aggregation of every kind a nullable column's type
// allows — COUNT and DISTINCTCOUNT, and off strings SUM, AVG, MIN and MAX —
// grouped by one column or by none: each kind's fold, over codes that hold
// NULL's, in one query. nil when no column is nullable.
func kindSweep(g *reftest.Gen) *reftest.Query {
	fields := g.Queryable()
	var nullable []metadata.Field
	for _, f := range fields {
		if f.Nullable {
			nullable = append(nullable, f)
		}
	}
	if len(nullable) == 0 {
		return nil
	}
	f := nullable[g.Rng.Intn(len(nullable))]
	kinds := []AggKind{AggCount, AggDistinctCount}
	if f.Type != metadata.TypeString {
		kinds = append(kinds, AggSum, AggAvg, AggMin, AggMax)
	}
	rq := &reftest.Query{SelectStmt: &sqlparse.SelectStmt{From: &sqlparse.TableRef{Name: g.Schema.Name}}}
	if g.Rng.Intn(2) == 0 {
		by := fields[g.Rng.Intn(len(fields))].Name
		rq.GroupBy = []string{by}
		rq.Items = append(rq.Items, sqlparse.SelectItem{Column: by})
	}
	for i, k := range kinds {
		// FromReference's kind mapping, inverted.
		fn := sqlparse.FuncCount + sqlparse.FuncKind(k)
		rq.Items = append(rq.Items, sqlparse.SelectItem{Func: fn, Column: f.Name, Alias: fmt.Sprintf("a%d", i)})
	}
	return rq
}

// TestScanDifferential: over random schemas, rows, upsert-invalid sets and
// queries, the kernel scan of the mutable store and the same scan of the
// store after seal() answer as the reference does, with and without the
// bounded top-K path, and an unordered selection streams every match. Each
// seed also folds every aggregate kind over one nullable column: the
// per-kind folds over a sealed column's unpacked codes, NULL's code among
// them.
func TestScanDifferential(t *testing.T) {
	seeds := int64(80)
	if testing.Short() {
		seeds = 20
	}
	base := reftest.Seed(t)
	for seed := base; seed < base+seeds; seed++ {
		g := reftest.NewGen(seed)
		rows := scanRows(g)
		m := storeOf(t, g.Schema, rows)
		// Index configurations: none, one inverted column, two, or a sorted
		// column beside an inverted one — so every FilterOp meets the index
		// path (posting lists, run bounds) with present, absent, extreme and
		// NULL-bearing operands. A sorted column makes the seal permute the
		// rows, which rules out the upsert-invalid set (as TableConfig does).
		fields := g.Queryable()
		cfg := IndexConfig{}
		shape := g.Rng.Intn(4)
		for i := 0; i < shape && i < 2; i++ {
			cfg.InvertedColumns = append(cfg.InvertedColumns, fields[g.Rng.Intn(len(fields))].Name)
		}
		if shape == 3 {
			cfg.SortedColumn = sortable(g)
		}
		permuted := cfg.SortedColumn != ""
		var valid *Bitmap
		if !permuted && g.Rng.Intn(2) == 0 {
			for doc := range rows {
				if g.Rng.Intn(5) == 0 {
					m.invalid[doc] = true
				}
			}
			valid = m.validSnapshot()
		}
		ref := reftest.NewTable(g.Schema, false)
		for doc, r := range rows {
			if !m.invalid[doc] {
				ref.Put(r)
			}
		}
		db := reftest.DB{g.Schema.Name: ref}
		seg, err := m.seal(cfg, -1)
		if err != nil {
			t.Fatal(err)
		}
		consuming := m.snapshot()
		queries := 30
		if m.n > BatchRows {
			queries = 8 // the reference is slow; these seeds are about window edges
		}
		// After the drawn queries, one that folds every aggregate kind over
		// a nullable column (kindSweep).
		for qi := 0; qi <= queries; qi++ {
			var rq *reftest.Query
			if qi < queries {
				rq = g.Query()
			} else if rq = kindSweep(g); rq == nil {
				continue
			}
			q := FromReference(rq)
			var tp *topKPlan
			if g.Rng.Intn(2) == 0 { // else: TrimExact
				tp = planTopK(q, 1+g.Rng.Intn(4))
			}
			// A unit answers aggregations exactly; the bound applies to the
			// merged partial (consumingScan.executePartial).
			unitTP := tp
			if len(q.Aggs) > 0 {
				unitTP = nil
			}
			want, wantErr := db.Eval(rq)
			mp, mErr := consuming.executePartial(q, valid, unitTP)
			sp, sErr := seg.executePartialTrim(q, valid, unitTP)
			// Which rows an unordered LIMIT stops at depends on doc order,
			// which a sorted column permutes.
			if mErr == nil && sErr == nil && !(permuted && streamable(q) && q.Limit > 0) &&
				(mp.stats.RowsScanned != sp.stats.RowsScanned || mp.stats.UpsertFiltered != sp.stats.UpsertFiltered) {
				t.Errorf("seed %d query %d %s: consuming counted %d scanned / %d filtered, sealed %d / %d", seed, qi, rq,
					mp.stats.RowsScanned, mp.stats.UpsertFiltered, sp.stats.RowsScanned, sp.stats.UpsertFiltered)
			}
			for _, run := range []struct {
				name string
				p    *Partial
				err  error
			}{{"consuming", mp, mErr}, {"sealed", sp, sErr}} {
				var got *QueryResponse
				err := run.err
				if err == nil {
					run.p.trimTopK(q, tp)
					got, err = run.p.Finalize(q)
				}
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("seed %d query %d %s (index %+v): %s error %v, reference error %v", seed, qi, rq, cfg, run.name, err, wantErr)
				}
				if err != nil {
					continue
				}
				if err := want.Check(rq, got.Batch.Columns, rowsOf(got)); err != nil {
					t.Fatalf("seed %d query %d %s (trim %+v, index %+v): %s: %v", seed, qi, rq, tp, cfg, run.name, err)
				}
			}
			if !streamable(q) || wantErr != nil {
				continue
			}
			// Unordered selections also stream: every match.
			all := *rq
			all.Limit, all.Offset = 0, 0
			for name, sc := range map[string]*scanSet{"consuming": consuming, "sealed": seg.scan()} {
				var rows [][]any
				_, _, err := sc.streamSelect(context.Background(), q, valid, &batchPool{}, func(rb *record.Batch) bool {
					rows = rb.AppendRows(rows)
					return true
				})
				if err == nil {
					err = want.Check(&all, want.Columns, rows)
				}
				if err != nil {
					t.Fatalf("seed %d query %d %s (index %+v): %s streamed: %v", seed, qi, rq, cfg, name, err)
				}
			}
		}
	}
}

// TestGroupTrimDifferential: a scan that trims its own groups — slots, before
// any is decoded — keeps a correct top groupK in every form of the grouper:
// one coded column, the composite of two or three (NULL codes included), and
// the key index for a raw column or a code space past maxCodeSpace.
// Orders are full of ties (counts over a few rows), which a trim may break
// either way, so the check is on what must hold regardless: exactly groupK
// groups survive, reported as such, and they are an answer the reference
// accepts to the query with LIMIT groupK — groups of the reference's with
// their exact aggregates, ranked as its groupK best. The map-form trim of an
// untrimmed partial is held to the same.
func TestGroupTrimDifferential(t *testing.T) {
	forms := map[string]int{}
	base := reftest.Seed(t)
	for seed := base; seed < base+30; seed++ {
		g := reftest.NewGen(seed)
		rows := scanRows(g)
		m := storeOf(t, g.Schema, rows)
		seg, err := m.seal(IndexConfig{}, -1)
		if err != nil {
			t.Fatal(err)
		}
		ref := reftest.NewTable(g.Schema, false)
		for _, r := range rows {
			ref.Put(r)
		}
		db := reftest.DB{g.Schema.Name: ref}
		scans := map[string]*scanSet{"consuming": m.snapshot(), "sealed": seg.scan()}
		fields := g.Queryable()
		trials := 8
		if m.n > BatchRows {
			trials = 4 // one of each grouper shape across scan windows
		}
		for trial := 0; trial < trials; trial++ {
			var group []string
			if trial%4 == 3 { // a wide code space: the unique id times two more columns
				group = []string{"id"}
			}
			for len(group) < []int{1, 2, 3, 3}[trial%4] {
				group = append(group, fields[g.Rng.Intn(len(fields))].Name)
			}
			aggs, lead := "COUNT(*) AS n", append(slices.Clip(group), "n", "n")
			if f := fields[g.Rng.Intn(len(fields))]; f.Type != metadata.TypeString {
				aggs += fmt.Sprintf(", %s(%s) AS m", []string{"SUM", "MIN", "MAX", "AVG"}[g.Rng.Intn(4)], f.Name)
				lead[len(lead)-1] = "m"
			}
			cols := strings.Join(group, ", ")
			rq := mustParse(t, fmt.Sprintf("SELECT %s, %s FROM t GROUP BY %s ORDER BY %s%s LIMIT %d",
				cols, aggs, cols, lead[g.Rng.Intn(len(lead))], []string{"", " DESC"}[g.Rng.Intn(2)], 1+g.Rng.Intn(3)))
			q := FromReference(rq)
			tp := planTopK(q, 1+g.Rng.Intn(12))
			want, err := db.Eval(rq)
			if err != nil {
				t.Fatal(err)
			}
			k := min(len(want.Rows), tp.groupK)
			top, qTop := *rq, *q
			top.Limit, qTop.Limit = k, k
			check := func(name string, got *Partial) {
				t.Helper()
				if got.n != k || got.stats.GroupsTrimmed != int64(len(want.Rows)-k) {
					t.Fatalf("seed %d %s %s (trim %+v): %d groups kept and %d reported trimmed, of %d with a budget of %d",
						seed, name, rq, tp, got.n, got.stats.GroupsTrimmed, len(want.Rows), k)
				}
				res, err := got.Finalize(&qTop)
				if err == nil {
					err = want.Check(&top, res.Batch.Columns, rowsOf(res))
				}
				if err != nil {
					t.Fatalf("seed %d %s %s (trim %+v): %v", seed, name, rq, tp, err)
				}
			}
			for name, sc := range scans {
				gcols := make([]*colView, len(q.GroupBy))
				for gi, c := range q.GroupBy {
					gcols[gi] = sc.col(c)
				}
				switch gr := newGrouper(new(scanScratch), gcols, 1, sc.n); {
				case gr.table == nil:
					forms[name+" keyed"]++
				case len(gcols) > 1:
					forms[name+" composite"]++
				default:
					forms[name+" single"]++
				}
				got, err := sc.executePartial(q, nil, tp)
				if err != nil {
					t.Fatal(err)
				}
				check(name, got)
			}
			full, err := scans["consuming"].executePartial(q, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			full.trimTopK(q, tp)
			check("map trim", full)
		}
	}
	for _, form := range []string{"sealed single", "sealed composite", "sealed keyed", "consuming single", "consuming composite", "consuming keyed"} {
		if forms[form] == 0 {
			t.Errorf("no trial exercised the %s grouper (%v)", form, forms)
		}
	}
}

// TestSealMatchesRowBuilder: the segment seal() freezes out of a column
// store is deep-equal to the one the row-reading builder makes of the same
// rows — dictionaries, packed codes, presence and inverted bitmaps, time
// bounds, star-tree, and the row order a sorted column imposes.
func TestSealMatchesRowBuilder(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		g := reftest.NewGen(seed)
		rows := scanRows(g)
		fields := g.Queryable()
		cfgs := []IndexConfig{
			{},
			{InvertedColumns: []string{fields[g.Rng.Intn(len(fields))].Name, "id"}},
			{SortedColumn: sortable(g)},
		}
		for _, cfg := range cfgs {
			want, err := refBuildSegment("s", g.Schema, rows, cfg, 3)
			if err != nil {
				t.Fatal(err)
			}
			got, err := BuildSegment("s", g.Schema, rows, cfg, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d cfg %+v: sealed segment differs from the row builder's", seed, cfg)
			}
		}
	}
	rows := orderRows(500)
	cfg := IndexConfig{
		InvertedColumns: []string{"city"},
		SortedColumn:    "status",
		StarTree:        &StarTreeConfig{Dimensions: []string{"city", "status"}, Metrics: []string{"amount", "items"}, MaxLeafRecords: 10},
	}
	want, err := refBuildSegment("o", ordersSchema(), rows, cfg, -1)
	if err != nil {
		t.Fatal(err)
	}
	if got := buildTestSegment(t, rows, cfg); !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.Tree, want.Tree) ||
		got.MinTime != want.MinTime || got.MaxTime != want.MaxTime {
		t.Fatal("orders segment with inverted, sorted and star-tree indexes differs from the row builder's")
	}
}

// TestMutableSegmentPrefixSnapshot runs one writer appending to a store
// (under the lock that stands in for Deployment.mu) against readers that
// snapshot under the lock and scan outside it: a reader must see exactly
// rows [0, n) of its snapshot — never a row >= n, never a torn dictionary —
// and -race must stay silent.
func TestMutableSegmentPrefixSnapshot(t *testing.T) {
	schema := &metadata.Schema{Name: "p", Version: 1, Fields: []metadata.Field{
		{Name: "seq", Type: metadata.TypeLong},
		{Name: "tag", Type: metadata.TypeString},
		{Name: "opt", Type: metadata.TypeDouble, Nullable: true},
	}}
	const total = 20_000
	m := newMutableSegment("p", schema, 0, nil)
	var mu sync.Mutex
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			r := record.Record{"seq": int64(i), "tag": fmt.Sprintf("t%d", i%997)}
			if i > 5000 && i%3 == 0 {
				r["opt"] = float64(i) // the presence vector materializes mid-run
			} else if i <= 5000 {
				r["opt"] = 1.0
			}
			mu.Lock()
			_, err := m.add(r)
			mu.Unlock()
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	q := &Query{Aggs: []AggSpec{{Kind: AggCount}, {Kind: AggMax, Column: "seq"}, {Kind: AggDistinctCount, Column: "tag"}, {Kind: AggCount, Column: "opt"}},
		Filters: []Filter{{Column: "tag", Op: OpNe, Value: "nope"}}}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				sc := m.snapshot()
				mu.Unlock()
				if sc.n == 0 {
					continue
				}
				p, err := sc.executePartial(q, nil, nil)
				if err != nil {
					t.Error(err)
					return
				}
				res, err := p.Finalize(q)
				if err != nil {
					t.Error(err)
					return
				}
				row := rowsOf(res)[0]
				tags := int64(sc.n)
				if tags > 997 {
					tags = 997
				}
				if row[0] != int64(sc.n) || row[1] != float64(sc.n-1) || row[2] != tags {
					t.Errorf("snapshot of %d rows answered count=%v max(seq)=%v distinct(tag)=%v", sc.n, row[0], row[1], row[2])
					return
				}
			}
		}()
	}
	<-done
	wg.Wait()
}

// TestConsumingScanUnderIngestAndSeal is the deployment-level half: one
// writer ingests (sealing every 50 rows a partition, plus explicit seals) while
// readers run filtered group-bys over sealed, mid-seal and consuming rows.
// Every answer counts at least the rows committed before the query and at
// most the rows started before it returned.
func TestConsumingScanUnderIngestAndSeal(t *testing.T) {
	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil) // seals every 50 rows per partition
	b := NewBroker(d)
	const total = 6000
	rows := orderRows(total)
	var started, committed atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, r := range rows {
			started.Add(1)
			if err := d.Ingest(i%2, r); err != nil {
				t.Error(err)
				return
			}
			committed.Add(1)
			if i%701 == 700 {
				if err := d.Seal(i % 2); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	q := &Query{GroupBy: []string{"city"}, Aggs: []AggSpec{{Kind: AggCount}, {Kind: AggSum, Column: "amount"}},
		Filters: []Filter{{Column: "status", Op: OpIn, Values: []any{"placed", "cooking", "delivered"}}, {Column: "amount", Op: OpGe, Value: 0}}}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				before := committed.Load()
				resp, err := b.Execute(context.Background(), &QueryRequest{Query: q})
				after := started.Load()
				if err != nil {
					t.Error(err)
					return
				}
				var got int64
				for _, row := range rowsOf(resp) {
					got += row[1].(int64)
				}
				if got < before || got > after {
					t.Errorf("answer counts %d rows; %d were committed before the query, %d started before it returned", got, before, after)
					return
				}
			}
		}()
	}
	<-done
	wg.Wait()
	resp, err := b.Execute(context.Background(), &QueryRequest{Query: &Query{Aggs: []AggSpec{{Kind: AggCount}}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsOf(resp)[0][0].(int64); got != total {
		t.Fatalf("final count %d, want %d", got, total)
	}
}
