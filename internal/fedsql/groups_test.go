package fedsql

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/metadata"
	"repro/internal/objstore"
	"repro/internal/record"
	"repro/internal/reftest"
)

// salesTables archives hive.sales in four parts and hive.nothing in none.
// The first sales part was written before amount widened from long to
// double and before the table gained region; the second is empty; the
// others hold NULL cities, regions, quantities and notes.
func salesTables(t *testing.T) (*ArchiveConnector, reftest.DB) {
	t.Helper()
	cur := &metadata.Schema{Name: "sales", Version: 2, Fields: []metadata.Field{
		{Name: "city", Type: metadata.TypeString, Nullable: true},
		{Name: "amount", Type: metadata.TypeDouble},
		{Name: "qty", Type: metadata.TypeLong, Nullable: true},
		{Name: "flag", Type: metadata.TypeBool},
		{Name: "note", Type: metadata.TypeBytes, Nullable: true},
		{Name: "region", Type: metadata.TypeString, Nullable: true},
	}}
	old := &metadata.Schema{Name: "sales", Version: 1, Fields: []metadata.Field{
		{Name: "city", Type: metadata.TypeString, Nullable: true},
		{Name: "amount", Type: metadata.TypeLong},
		{Name: "qty", Type: metadata.TypeLong, Nullable: true},
		{Name: "flag", Type: metadata.TypeBool},
	}}
	row := func(i int, widened bool) record.Record {
		r := record.Record{"amount": int64(i % 7), "flag": i%3 == 0}
		if widened {
			r["amount"] = float64(i%7) + 0.25
		}
		if i%5 != 0 {
			r["city"] = []string{"sf", "la", "nyc", "x|y"}[i%4]
		}
		if i%4 != 1 {
			r["qty"] = int64(i%9 - 3)
		}
		if widened && i%3 != 0 {
			r["region"] = []string{"west", "east"}[i%2]
		}
		if widened && i%2 == 0 {
			r["note"] = []byte{byte(i)}
		}
		return r
	}
	store := objstore.NewMemStore()
	hive := NewArchiveConnector("hive", store)
	var ref []record.Record
	for p, part := range []struct {
		schema *metadata.Schema
		from   int
		n      int
	}{{old, 0, 23}, {cur, 23, 0}, {cur, 23, 40}, {cur, 63, 17}} {
		var rows []record.Record
		for i := part.from; i < part.from+part.n; i++ {
			r := row(i, part.schema == cur)
			rows = append(rows, r)
			if part.schema == old { // the reference holds the widened value
				r = record.Record{"amount": float64(r["amount"].(int64))}
				for k, v := range row(i, false) {
					if k != "amount" {
						r[k] = v
					}
				}
			}
			ref = append(ref, r)
		}
		if err := store.Put(fmt.Sprintf("archive/sales/%06d", p), columnarPart(t, part.schema, rows)); err != nil {
			t.Fatal(err)
		}
	}
	hive.AddTable("sales", cur)
	nothing := &metadata.Schema{Name: "nothing", Version: 1, Fields: []metadata.Field{
		{Name: "city", Type: metadata.TypeString}, {Name: "amount", Type: metadata.TypeDouble},
	}}
	hive.AddTable("nothing", nothing)
	return hive, reftest.DB{
		"hive.sales":   refTable(cur.FieldNames(), ref),
		"hive.nothing": refTable(nothing.FieldNames(), nil),
	}
}

// refusing is a catalog that refuses every aggregate scan, so the engine
// aggregates a row scan of the connector it wraps.
type refusing struct{ StreamingConnector }

func (refusing) OpenAggregateScan(context.Context, string, AggregateQuery) (RowIterator, error) {
	return nil, ErrPushdownUnsupported
}

// TestArchivePushdownDifferential: an aggregate over an archive table is
// folded part by part on dictionary codes inside the connector, and answers
// as the engine's own aggregation of a row scan does — the same rows in the
// same order, the same column types — and as the reference does. The table
// has several parts, an empty part, NULL keys, a part written before a long
// → double widening and one without a GROUP BY column; the shapes include
// global aggregates over an empty table. The shapes the connector refuses —
// two string GROUP BY columns among them — answer identically through the
// fallback, an error included.
func TestArchivePushdownDifferential(t *testing.T) {
	hive, db := salesTables(t)
	pushed, fallback := NewEngine(), NewEngine()
	pushed.Register(hive)
	fallback.Register(refusing{hive})
	for _, c := range []struct {
		sql    string
		pushed bool
	}{
		{"SELECT city, COUNT(*) AS n, SUM(amount) AS s FROM hive.sales GROUP BY city", true},
		{"SELECT region, COUNT(*) AS n, AVG(amount) AS mean, MIN(qty) AS lo, MAX(qty) AS hi FROM hive.sales GROUP BY region", true},
		{"SELECT COUNT(*) AS n, SUM(amount) AS s, MIN(amount) AS lo, COUNT(city) AS c, AVG(qty) AS q FROM hive.sales", true},
		{"SELECT COUNT(*) AS n, SUM(amount) AS s, AVG(amount) AS mean, MAX(amount) AS top FROM hive.nothing", true},
		{"SELECT city, COUNT(*) AS n FROM hive.nothing GROUP BY city", true},
		{"SELECT nosuch, COUNT(*) AS n, SUM(nosuch) AS s FROM hive.sales GROUP BY nosuch", true},
		// Refused: two GROUP BY columns, a GROUP BY column that is not a
		// string, a numeric aggregate over a string or a blob, and a WHERE.
		{"SELECT city, region, COUNT(*) AS n, SUM(qty) AS q, COUNT(note) AS notes, COUNT(flag) AS flags FROM hive.sales GROUP BY city, region", false},
		{"SELECT region, city, COUNT(city) AS n, MAX(amount) AS top FROM hive.sales GROUP BY region, city ORDER BY top DESC, n LIMIT 4", false},
		{"SELECT qty, COUNT(*) AS n FROM hive.sales GROUP BY qty", false},
		{"SELECT amount, COUNT(*) AS n FROM hive.sales GROUP BY amount", false},
		{"SELECT flag, SUM(amount) AS s FROM hive.sales GROUP BY flag", false},
		{"SELECT note, COUNT(*) AS n FROM hive.sales GROUP BY note", false},
		{"SELECT city, SUM(city) AS s FROM hive.sales GROUP BY city", false},
		{"SELECT city, MAX(note) AS s FROM hive.sales GROUP BY city", false},
		{"SELECT city, COUNT(*) AS n FROM hive.sales WHERE amount > 2 GROUP BY city", false},
	} {
		got, gotErr := pushed.Query(c.sql)
		want, wantErr := fallback.Query(c.sql)
		if gotErr != nil || wantErr != nil {
			if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
				t.Errorf("%q: %v, through the fallback %v", c.sql, gotErr, wantErr)
			}
			continue
		}
		checkRef(t, db, c.sql, got)
		if !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("%q:\n%v %v\nthrough the fallback\n%v %v", c.sql, got.Columns, got.Rows, want.Columns, want.Rows)
		}
		kind := "[row-scan+engine-agg]"
		if c.pushed {
			kind = "[aggregate-scan]"
		}
		if len(got.Plan) != 1 || !strings.Contains(got.Plan[0], kind) || (got.Stats.PushdownFallbacks == 0) != c.pushed {
			t.Errorf("%q: plan %v, %d fallbacks; want a %s line", c.sql, got.Plan, got.Stats.PushdownFallbacks, kind)
		}
	}
}

// TestJoinAggregatesMatchReference: every aggregate the reference knows
// that the SQL dialect has — COUNT(*), COUNT, SUM, MIN, MAX and AVG — over
// inputs on either side of a join, grouped by build-side columns or not at
// all, answers as the reference does. The joins include NULL and duplicate
// keys on both sides, a string that prints like a number, and a probe side
// whose first archive part matches nothing and whose last matches twice. A
// SUM over a string is an error.
func TestJoinAggregatesMatchReference(t *testing.T) {
	e, db, _ := buildDiffEngine(t, rand.New(rand.NewSource(23)), 300, false)
	joins := []struct {
		from    string
		groups  []string
		inputs  []string // probe side first
		strings []string // inputs COUNT alone may read
	}{
		{" FROM pinot.events o JOIN hive.notes s ON o.status = s.status", []string{"", "s.note", "s.city", "s.city, s.note", "s.status"},
			[]string{"o.amount", "o.qty", "o.rush"}, []string{"o.city", "s.city"}},
		{" FROM hive.pipes p JOIN hive.nums x ON p.v = x.n", []string{"", "x.tag", "x.n", "x.tag, x.n"},
			[]string{"p.v", "x.n"}, []string{"p.a", "x.tag"}},
	}
	ctx := context.Background()
	for _, j := range joins {
		var items []string
		for _, in := range j.inputs {
			for _, f := range []string{"COUNT", "SUM", "MIN", "MAX", "AVG"} {
				items = append(items, fmt.Sprintf("%s(%s) AS %s_%s", f, in, strings.ToLower(f), strings.ReplaceAll(in, ".", "_")))
			}
		}
		for _, in := range j.strings {
			items = append(items, fmt.Sprintf("COUNT(%s) AS count_%s", in, strings.ReplaceAll(in, ".", "_")))
		}
		for _, g := range j.groups {
			sql := "SELECT COUNT(*) AS n, " + strings.Join(items, ", ") + j.from
			if g != "" {
				sql = "SELECT " + g + ", COUNT(*) AS n, " + strings.Join(items, ", ") + j.from + " GROUP BY " + g
			}
			res, err := e.QueryCtx(ctx, sql)
			if err != nil {
				t.Fatalf("%q: %v", sql, err)
			}
			checkRef(t, db, sql, res)
		}
		sql := "SELECT " + j.groups[1] + ", SUM(" + j.strings[1] + ") AS s" + j.from + " GROUP BY " + j.groups[1]
		if _, err := e.QueryCtx(ctx, sql); err == nil || !strings.Contains(err.Error(), "over a string column") {
			t.Errorf("%q: err = %v, want SUM over a string refused", sql, err)
		}
	}
}

// TestGroupTablesRecycled: aggregations on two goroutines at once share the
// pool of group tables, each table one aggregation's from its start to the
// Close of the iterator serving its groups. A2 (over the join), A3
// (per dictionary code of an archive part), two row-scan fallbacks (a
// two-column archive GROUP BY and a WHERE) and a global aggregate
// interleave for 30 rounds, and every answer must be the one the query gave
// run alone: a table still read
// by one query while another numbers groups into it shows. A table back in
// the pool holds no string header — not in its keys, values, output, index
// or a part's dictionary — and no table is in the pool twice.
func TestGroupTablesRecycled(t *testing.T) {
	e := adhocScanEngine(t)
	queries := []string{
		a2SQL, a3SQL,
		"SELECT city, status, COUNT(*) AS n, MAX(amount) AS top FROM hive.orders_day GROUP BY city, status",
		"SELECT city, COUNT(*) AS n FROM hive.orders_day WHERE amount > 20 GROUP BY city",
		"SELECT COUNT(*) AS n, AVG(amount) AS mean FROM hive.orders_day",
	}
	first := map[string]*Result{}
	for _, sql := range queries {
		res, err := e.QueryCtx(context.Background(), sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		first[sql] = res
	}
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 30 {
				for i := range queries {
					sql := queries[(i+g)%len(queries)]
					res, err := e.QueryCtx(context.Background(), sql)
					if err != nil {
						t.Errorf("round %d %q: %v", round, sql, err)
						return
					}
					if want := first[sql]; !reflect.DeepEqual(res.Rows, want.Rows) {
						t.Errorf("round %d %q: %v, first %v", round, sql, res.Rows, want.Rows)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	// The race detector drops pooled objects at random; a few more
	// queries put tables back.
	used := 0
	for range 20 {
		for _, sql := range queries {
			if _, err := e.QueryCtx(context.Background(), sql); err != nil {
				t.Fatal(err)
			}
		}
		seen := map[*groupTable]bool{}
		for range 16 {
			g := groupTables.Get().(*groupTable)
			if seen[g] {
				t.Fatal("a group table is in the pool twice")
			}
			seen[g] = true
			if cap(g.values) > 0 {
				used++
			}
			checkTableCleared(t, g)
		}
		for g := range seen {
			groupTables.Put(g)
		}
		if used > 0 {
			return
		}
	}
	t.Fatal("no aggregation's table came back to the pool")
}

// checkTableCleared fails unless a pooled table holds no string or blob.
func checkTableCleared(t *testing.T, g *groupTable) {
	t.Helper()
	if g.index.Len() != 0 || g.aggs != nil {
		t.Fatalf("a pooled table keeps %d keys, aggregates %v", g.index.Len(), g.aggs)
	}
	for _, v := range g.keys[:cap(g.keys)] {
		if !reflect.DeepEqual(v, record.Vector{}) {
			t.Fatalf("a pooled table keeps a key vector of %d rows", v.Len())
		}
	}
	for _, vs := range [][]record.Vector{g.values[:cap(g.values)], g.out[:cap(g.out)], g.dict[:]} {
		for _, v := range vs {
			for r, s := range v.Strs[:cap(v.Strs)] {
				if s != "" {
					t.Fatalf("a pooled table keeps string %q at row %d", s, r)
				}
			}
			for r, b := range v.Bytes[:cap(v.Bytes)] {
				if b != nil {
					t.Fatalf("a pooled table keeps blob %q at row %d", b, r)
				}
			}
		}
	}
	for _, c := range g.coded[:cap(g.coded)] {
		for _, s := range c.Dict[:cap(c.Dict)] {
			if s != "" {
				t.Fatalf("a pooled table keeps dictionary entry %q", s)
			}
		}
	}
	for _, in := range g.inputs[:cap(g.inputs)] {
		if in != nil {
			t.Fatal("a pooled table keeps an input vector")
		}
	}
}
