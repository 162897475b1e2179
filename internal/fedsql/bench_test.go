package fedsql

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/metadata"
	"repro/internal/objstore"
	"repro/internal/olap"
	"repro/internal/record"
)

// The ad-hoc pass's shapes at the pipeline benchmark's sizes: A1 is a
// top-10 over the 5 000 restaurants of a 30 000-row sealed Pinot table,
// pushed down whole; A2 joins one status's orders of that table with a
// 5 000-row archived dimension; A3 groups a 15 000-row archive part. Each
// pays for what crosses the connectors and for the engine's join and group
// lookups, A1 for the OLAP layer's group table.
const (
	a1SQL = "SELECT restaurant_id, SUM(amount) AS total FROM pinot.orders GROUP BY restaurant_id ORDER BY total DESC LIMIT 10"
	a2SQL = "SELECT r.cuisine, COUNT(*) AS n, SUM(o.amount) AS total FROM pinot.orders o" +
		" JOIN hive.restaurants r ON o.restaurant_id = r.restaurant_id WHERE o.status = 'picked_up' GROUP BY r.cuisine"
	a3SQL = "SELECT city, COUNT(*) AS n, SUM(amount) AS total FROM hive.orders_day GROUP BY city"

	adhocOrders      = 30_000 // rows of pinot.orders
	adhocDay         = 15_000 // rows of hive.orders_day's one part
	adhocRestaurants = 5_000
)

// adhocOrder is order i, shaped like the pipeline benchmark's.
func adhocOrder(i int) record.Record {
	return record.Record{
		"order_id": fmt.Sprintf("o%d", i), "restaurant_id": int64(i * 7919 % adhocRestaurants),
		"city": fmt.Sprintf("city_%02d", i%16), "status": []string{"placed", "picked_up", "delivered"}[i%3],
		"amount": 5 + float64(i%400)/4, "ts": int64(1_700_000_000_000 + i/10),
	}
}

// adhocScanEngine serves pinot.orders as one sealed segment, and
// hive.orders_day (its first 15 000 orders) and hive.restaurants as one
// archive part each.
func adhocScanEngine(tb testing.TB) *Engine {
	tb.Helper()
	ordersSchema, restaurantsSchema := adhocSchemas()
	orders := make([]record.Record, adhocOrders)
	for i := range orders {
		orders[i] = adhocOrder(i)
	}
	restaurants := make([]record.Record, adhocRestaurants)
	for i := range restaurants {
		restaurants[i] = record.Record{"restaurant_id": int64(i), "name": fmt.Sprintf("r%d", i),
			"cuisine": fmt.Sprintf("cuisine_%d", i%12), "city": fmt.Sprintf("city_%02d", i%16)}
	}
	store := objstore.NewMemStore()
	hive := NewArchiveConnector("hive", store)
	day := ordersSchema.Clone()
	day.Name = "orders_day"
	for _, t := range []struct {
		schema *metadata.Schema
		rows   []record.Record
	}{{day, orders[:adhocDay]}, {restaurantsSchema, restaurants}} {
		if err := store.Put("archive/"+t.schema.Name+"/000000", columnarPart(tb, t.schema, t.rows)); err != nil {
			tb.Fatal(err)
		}
		hive.AddTable(t.schema.Name, t.schema)
	}

	d, err := olap.NewDeployment(olap.DeploymentConfig{
		Table:        olap.TableConfig{Name: "orders", Schema: ordersSchema, SegmentRows: adhocOrders},
		Servers:      []*olap.Server{olap.NewServer("s0")},
		SegmentStore: objstore.NewMemStore(),
		Backup:       olap.BackupP2P,
	})
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range orders {
		if err := d.Ingest(0, r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := d.Seal(0); err != nil {
		tb.Fatal(err)
	}
	d.WaitUploads()
	pinot := NewPinotConnector("pinot")
	pinot.AddTable(d)

	e := NewEngine()
	e.Register(pinot)
	e.Register(hive)
	return e
}

// runAdhoc runs one query of the pass and checks its group count.
func runAdhoc(tb testing.TB, e *Engine, sql string, groups int) {
	res, err := e.QueryCtx(context.Background(), sql)
	if err != nil || len(res.Rows) != groups {
		tb.Fatalf("%s: %d groups, %v; want %d", sql, len(res.Rows), err, groups)
	}
}

// TestEngineScanAllocations: A1, A2 and A3 allocate per query, not per row
// — at most 0.02 allocations per row of the tables they read. Typed vectors
// carry the rows from segment and archive part to the Result edge, and
// A1's groups live in the OLAP layer's typed group table; a boxed cell, a
// row slice, a join key per row or a heap object per group is back if this
// fails.
func TestEngineScanAllocations(t *testing.T) {
	e := adhocScanEngine(t)
	for _, c := range []struct {
		name, sql  string
		groups, in int
	}{
		{"A1", a1SQL, 10, adhocOrders},
		{"A2", a2SQL, 12, adhocOrders + adhocRestaurants},
		{"A3", a3SQL, 16, adhocDay},
	} {
		allocs := testing.AllocsPerRun(5, func() { runAdhoc(t, e, c.sql, c.groups) })
		if perRow := allocs / float64(c.in); perRow > 0.02 {
			t.Errorf("%s: %.0f allocations for %d input rows (%.4f per row), want at most 0.02 per row", c.name, allocs, c.in, perRow)
		}
	}
}

// raceDetector is set in a build with the race detector (race_test.go).
var raceDetector bool

// TestArchiveScanBytes: A3 with a WHERE on the archive table, which the
// archive does not filter, still scans: it reads its archive part where the
// deep store holds it, decodes it into column arrays an earlier scan
// returned to the connector's pool, and aggregates it a window at a time in
// a pooled group table, so once warm a run allocates its plan and result
// alone (≈ 11 KB against 32 KB). A copy of the stored part (≈ 405 KB),
// fresh column arrays per query (360 KB: a string header per city, a float
// per amount), or a selection and group array per input row (120 KB) fails
// it. A3 itself is folded inside the connector on the part's dictionary
// codes (≈ 9 KB against 12 KB): a codes array per part (60 KB), measure
// vectors not from the pool (120 KB) or the city strings decoded per row
// fail it. A sync.Pool keeps its last Put in the putting P's private slot,
// which a Get on another P does not see, so the test runs on one P:
// otherwise a goroutine moved between two queries decodes into fresh
// arrays. The race detector drops pooled objects at random, so it skips
// there.
func TestArchiveScanBytes(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := adhocScanEngine(t)
	for _, c := range []struct {
		name, sql string
		bound     uint64
	}{
		{"row scan", "SELECT city, COUNT(*) AS n, SUM(amount) AS total FROM hive.orders_day WHERE amount >= 0 GROUP BY city", 32_000},
		{"aggregate scan", a3SQL, 12_000},
	} {
		runAdhoc(t, e, c.sql, 16)
		var before, after runtime.MemStats
		for i := range 20 {
			runtime.ReadMemStats(&before)
			runAdhoc(t, e, c.sql, 16)
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got >= c.bound {
				t.Fatalf("%s run %d allocated %d bytes, want fewer than %d for %d rows of city and amount", c.name, i, got, c.bound, adhocDay)
			}
		}
	}
}

// TestFederatedJoinBytes: A2 collects its build side into the vectors of a
// join table an earlier join returned to the pool, indexes it in that
// table's KeyIndex and gathers the joined rows into its output vectors, so
// once warm a run allocates its plan, the probe side's stream and the
// grouped result alone (≈ 48 KB against 200 KB). A fresh index per query (a
// map of 5 000 keys, ≈ 140 KB), fresh build-side vectors (≈ 125 KB) or
// fresh joined vectors per probe batch fail it; the parent of the pooled
// table read ≈ 445 KB. It runs on one P, and skips under the race
// detector, for the reasons TestArchiveScanBytes gives.
func TestFederatedJoinBytes(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := adhocScanEngine(t)
	const bound = 200_000
	runAdhoc(t, e, a2SQL, 12)
	var before, after runtime.MemStats
	for i := range 20 {
		runtime.ReadMemStats(&before)
		runAdhoc(t, e, a2SQL, 12)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= bound {
			t.Fatalf("run %d allocated %d bytes, want fewer than %d for a %d-row build side", i, got, bound, adhocRestaurants)
		}
	}
}

// TestJoinTableRecycled: joins on two goroutines at once share the pool of
// join tables, each table one join's from resolveJoin to its Close. A2 and
// an ordered, limited selection over the same join interleave for 10
// rounds, and every answer must be the one the query gave run alone: a
// table still probed by one join while another builds into it, or a stale
// build row, key or output vector, shows. A table back in the pool holds no
// string header — not in its build rows, its output vectors or its index —
// so it pins no dictionary or archive part.
func TestJoinTableRecycled(t *testing.T) {
	e := adhocScanEngine(t)
	const top = "SELECT o.order_id, r.cuisine, o.amount FROM pinot.orders o JOIN hive.restaurants r" +
		" ON o.restaurant_id = r.restaurant_id WHERE o.status = 'placed' ORDER BY o.amount DESC, o.order_id LIMIT 20"
	serial := map[string]*Result{}
	for _, sql := range []string{a2SQL, top} {
		res, err := e.QueryCtx(context.Background(), sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		serial[sql] = res
	}
	if len(serial[a2SQL].Rows) != 12 || len(serial[top].Rows) != 20 {
		t.Fatalf("A2 gave %d rows, the selection %d; want 12 and 20", len(serial[a2SQL].Rows), len(serial[top].Rows))
	}
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 10 {
				sql := []string{a2SQL, top}[(round+w)%2]
				res, err := e.QueryCtx(context.Background(), sql)
				if err != nil {
					t.Errorf("round %d %q: %v", round, sql, err)
					return
				}
				if want := serial[sql]; !reflect.DeepEqual(res.Rows, want.Rows) {
					t.Errorf("round %d %q: %v, run alone %v", round, sql, res.Rows, want.Rows)
					return
				}
			}
		}()
	}
	wg.Wait()

	// The race detector drops pooled objects at random; a few joins put
	// one back.
	for range 20 {
		runAdhoc(t, e, a2SQL, 12)
		jt := joinTables.Get().(*joinTable)
		if cap(jt.rows.Cols) == 0 {
			continue
		}
		for _, vs := range [][]record.Vector{jt.rows.Cols[:cap(jt.rows.Cols)], jt.out[:cap(jt.out)]} {
			for c, v := range vs {
				for r, s := range v.Strs[:cap(v.Strs)] {
					if s != "" {
						t.Fatalf("a pooled join table's vector %d keeps string %q at row %d", c, s, r)
					}
				}
			}
		}
		if jt.keys.Len() != 0 || len(jt.keys.Texts()) != 0 {
			t.Fatalf("a pooled join table's index holds %d keys, %d texts", jt.keys.Len(), len(jt.keys.Texts()))
		}
		return
	}
	t.Fatal("no join table came back to the pool")
}

// benchAdhoc reports ns and allocations per row of the tables one query
// reads.
func benchAdhoc(b *testing.B, sql string, groups, in int) {
	e := adhocScanEngine(b)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runAdhoc(b, e, sql, groups)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(in), "ns/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/float64(in), "allocs/row")
}

// BenchmarkArchiveGroupBy is the ad-hoc pass's A3 through the engine: a
// 15 000-row archive part, grouped by city with COUNT and SUM engine-side.
//
//	go test -run '^$' -bench 'ArchiveGroupBy|FederatedJoin' -benchmem ./internal/fedsql
func BenchmarkArchiveGroupBy(b *testing.B) {
	benchAdhoc(b, a3SQL, 16, adhocDay)
}

// BenchmarkFederatedJoin is the ad-hoc pass's A2 through the engine: the
// picked-up third of a 30 000-row sealed Pinot table (the status filter
// pushed down) joined with a 5 000-row archived dimension, grouped by
// cuisine engine-side. Rows are the rows of both tables.
func BenchmarkFederatedJoin(b *testing.B) {
	benchAdhoc(b, a2SQL, 12, adhocOrders+adhocRestaurants)
}
