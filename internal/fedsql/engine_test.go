package fedsql

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/metadata"
	"repro/internal/objstore"
	"repro/internal/olap"
	"repro/internal/record"
	"repro/internal/reftest"
	"repro/internal/sqlparse"
)

func ordersSchema() *metadata.Schema {
	return &metadata.Schema{
		Name:    "orders",
		Version: 1,
		Fields: []metadata.Field{
			{Name: "order_id", Type: metadata.TypeString},
			{Name: "city", Type: metadata.TypeString, Dimension: true},
			{Name: "amount", Type: metadata.TypeDouble},
			{Name: "ts", Type: metadata.TypeTimestamp},
		},
		TimeField: "ts",
	}
}

func citiesSchema() *metadata.Schema {
	return &metadata.Schema{
		Name:    "cities",
		Version: 1,
		Fields: []metadata.Field{
			{Name: "city", Type: metadata.TypeString, Dimension: true},
			{Name: "region", Type: metadata.TypeString, Dimension: true},
		},
	}
}

func orderRows(n int) []record.Record {
	cities := []string{"sf", "nyc", "la"}
	rows := make([]record.Record, n)
	for i := range rows {
		rows[i] = record.Record{
			"order_id": fmt.Sprintf("o%04d", i),
			"city":     cities[i%3],
			"amount":   float64(i % 10),
			"ts":       int64(1700000000000 + i*1000),
		}
	}
	return rows
}

// setupRefDB is setupEngine's data as the reference evaluator sees it.
func setupRefDB(n int) reftest.DB {
	return reftest.DB{
		"pinot.orders": refTable(ordersSchema().FieldNames(), orderRows(n)),
		"hive.orders":  refTable(ordersSchema().FieldNames(), orderRows(n)),
	}
}

// setupEngine builds: pinot.orders (OLAP deployment), hive.orders (archive),
// hive.cities (dimension table).
func setupEngine(t *testing.T, n int) (*Engine, *PinotConnector) {
	t.Helper()
	return setupEngineOver(t, ordersSchema(), orderRows(n))
}

// setupEngineOver is setupEngine with the orders of schema and rows.
func setupEngineOver(t *testing.T, schema *metadata.Schema, rows []record.Record) (*Engine, *PinotConnector) {
	t.Helper()
	// Pinot table.
	servers := []*olap.Server{olap.NewServer("s0"), olap.NewServer("s1")}
	d, err := olap.NewDeployment(olap.DeploymentConfig{
		Table: olap.TableConfig{
			Name:        "orders",
			Schema:      schema,
			SegmentRows: 50,
		},
		Servers:      servers,
		SegmentStore: objstore.NewMemStore(),
		Backup:       olap.BackupP2P,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if err := d.Ingest(i%2, r); err != nil {
			t.Fatal(err)
		}
	}
	pinot := NewPinotConnector("pinot")
	pinot.AddTable(d)

	// Archive tables.
	store := objstore.NewMemStore()
	codec, _ := record.NewCodec(schema)
	w := objstore.NewRawLogWriter(store, "orders", codec)
	w.Append(rows)
	objstore.NewCompactor(store, "orders", codec).Compact()

	cityCodec, _ := record.NewCodec(citiesSchema())
	cw := objstore.NewRawLogWriter(store, "cities", cityCodec)
	cw.Append([]record.Record{
		{"city": "sf", "region": "west"},
		{"city": "la", "region": "west"},
		{"city": "nyc", "region": "east"},
	})
	objstore.NewCompactor(store, "cities", cityCodec).Compact()

	hive := NewArchiveConnector("hive", store)
	hive.AddTable("orders", schema)
	hive.AddTable("cities", citiesSchema())

	e := NewEngine()
	e.Register(pinot)
	e.Register(hive)
	return e, pinot
}

func TestSimpleSelectWithPushdown(t *testing.T) {
	e, _ := setupEngine(t, 90)
	res, err := e.Query("SELECT order_id, amount FROM pinot.orders WHERE city = 'sf' AND amount > 5 LIMIT 7")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(res.Rows))
	}
	if !res.Stats.PushedFilters {
		t.Error("filters should have been pushed to pinot")
	}
	for _, row := range res.Rows {
		if row[1].(float64) <= 5 {
			t.Fatalf("filter violated: %v", row)
		}
	}
}

func TestAggregationPushdownMatchesEngineSide(t *testing.T) {
	e, pinot := setupEngine(t, 300)
	sql := "SELECT city, COUNT(*) AS n, SUM(amount) AS total, AVG(amount) AS mean FROM pinot.orders GROUP BY city ORDER BY city"

	pushed, err := e.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !pushed.Stats.PushedAggs {
		t.Error("aggregation should have been pushed down")
	}

	pinot.DisablePushdown = true
	unpushed, err := e.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	pinot.DisablePushdown = false
	if unpushed.Stats.PushedAggs {
		t.Error("pushdown disabled but stats claim pushed aggs")
	}
	// Same answer either way.
	if len(pushed.Rows) != len(unpushed.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(pushed.Rows), len(unpushed.Rows))
	}
	for i := range pushed.Rows {
		for c := range pushed.Rows[i] {
			a := fmt.Sprintf("%v", pushed.Rows[i][c])
			b := fmt.Sprintf("%v", unpushed.Rows[i][c])
			if a != b {
				t.Errorf("row %d col %d: pushed %s vs engine %s", i, c, a, b)
			}
		}
	}
	// The pushed version moves far fewer rows across the connector.
	if pushed.Stats.RowsReturned >= unpushed.Stats.RowsReturned {
		t.Errorf("pushdown returned %d rows, engine-side %d — pushdown should move less",
			pushed.Stats.RowsReturned, unpushed.Stats.RowsReturned)
	}
}

func TestArchiveScanEngineSideAggregation(t *testing.T) {
	e, _ := setupEngine(t, 120)
	res, err := e.Query("SELECT city, COUNT(*) AS n FROM hive.orders WHERE amount >= 0 GROUP BY city ORDER BY n DESC")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PushedAggs || res.Stats.PushedFilters {
		t.Error("the archive filters nothing, so an aggregate with a WHERE pushes nothing")
	}
	var total int64
	for _, row := range res.Rows {
		total += row[1].(int64)
	}
	if total != 120 {
		t.Errorf("total = %d", total)
	}
}

func TestFederatedJoinPinotWithHiveDimension(t *testing.T) {
	// The §4.3.2 headline: join fresh Pinot data with a Hive dimension
	// table inside the engine.
	e, _ := setupEngine(t, 90)
	res, err := e.Query(`
		SELECT c.region, SUM(o.amount) AS revenue
		FROM pinot.orders o JOIN hive.cities c ON o.city = c.city
		GROUP BY c.region ORDER BY c.region`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("regions = %v", res.Rows)
	}
	// east = nyc; west = sf + la.
	var east, west float64
	for _, r := range orderRows(90) {
		if r.String("city") == "nyc" {
			east += r.Double("amount")
		} else {
			west += r.Double("amount")
		}
	}
	if res.Rows[0][0] != "east" || res.Rows[0][1].(float64) != east {
		t.Errorf("east row = %v, want %v", res.Rows[0], east)
	}
	if res.Rows[1][0] != "west" || res.Rows[1][1].(float64) != west {
		t.Errorf("west row = %v, want %v", res.Rows[1], west)
	}
}

func TestJoinWithSidePredicates(t *testing.T) {
	e, _ := setupEngine(t, 90)
	res, err := e.Query(`
		SELECT o.order_id, c.region
		FROM pinot.orders o JOIN hive.cities c ON o.city = c.city
		WHERE o.city = 'sf' AND c.region = 'west'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 30 {
		t.Fatalf("rows = %d, want 30 sf orders", len(res.Rows))
	}
}

// TestGroupKeyUnambiguous: engine-side grouping must keep apart tuples that
// a separator-joined key confuses — ('x|y','z') and ('x','y|z'), NULL and
// the string '<nil>'.
func TestGroupKeyUnambiguous(t *testing.T) {
	store := objstore.NewMemStore()
	hive := NewArchiveConnector("hive", store)
	archiveTable(t, hive, store, pipesSchema(), pipeParts...)
	e := NewEngine()
	e.Register(hive)
	res, err := e.Query("SELECT a, b, COUNT(*) AS n FROM hive.pipes GROUP BY a, b")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, row := range res.Rows {
		got[fmt.Sprintf("%#v,%#v", row[0], row[1])] = row[2].(int64)
	}
	want := map[string]int64{
		`"x|y","z"`: 2, `"x","y|z"`: 2, `<nil>,"q"`: 2, `"<nil>","q"`: 1, `"~","|"`: 1, `"n1","1"`: 1,
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("groups = %v, want %v", got, want)
	}
}

// TestJoinKeysNullAndTyped: a NULL join key matches nothing, its own kind
// included, and a number never matches a string that prints the same.
func TestJoinKeysNullAndTyped(t *testing.T) {
	store := objstore.NewMemStore()
	hive := NewArchiveConnector("hive", store)
	archiveTable(t, hive, store, notesSchema(), noteRows)
	archiveTable(t, hive, store, pipesSchema(), pipeParts...)
	archiveTable(t, hive, store, numsSchema(), numRows)
	e := NewEngine()
	e.Register(hive)
	// ok x ok = 4, late = 1, gone = 1; the two NULL statuses join nothing.
	res, err := e.Query("SELECT l.note, r.note FROM hive.notes l JOIN hive.notes r ON l.status = r.status")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Errorf("self-join on a nullable key: %d rows, want 6: %v", len(res.Rows), res.Rows)
	}
	res, err = e.Query("SELECT x.tag, p.a FROM hive.nums x JOIN hive.pipes p ON x.n = p.b")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("int64(1) joined '1': %v", res.Rows)
	}
}

func TestSubqueryInFrom(t *testing.T) {
	e, _ := setupEngine(t, 90)
	res, err := e.Query(`
		SELECT city FROM (
			SELECT city, COUNT(*) AS n FROM pinot.orders GROUP BY city
		) t WHERE n >= 30 ORDER BY city`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0] != "la" || res.Rows[2][0] != "sf" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestSelectStar(t *testing.T) {
	e, _ := setupEngine(t, 10)
	res, err := e.Query("SELECT * FROM hive.cities ORDER BY city")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || len(res.Columns) != 2 {
		t.Fatalf("result = %v %v", res.Columns, res.Rows)
	}
}

func TestDefaultCatalog(t *testing.T) {
	e, _ := setupEngine(t, 30)
	// pinot registered first → default.
	res, err := e.Query("SELECT COUNT(*) FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 30 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	if err := e.SetDefaultCatalog("hive"); err != nil {
		t.Fatal(err)
	}
	if err := e.SetDefaultCatalog("nope"); err == nil {
		t.Error("unknown default catalog should fail")
	}
	if got := e.Catalogs(); len(got) != 2 || got[0] != "hive" {
		t.Errorf("catalogs = %v", got)
	}
}

func TestQueryErrors(t *testing.T) {
	e, _ := setupEngine(t, 10)
	bad := []string{
		"SELECT x FROM ghost.t",     // unknown catalog
		"SELECT x FROM pinot.ghost", // unknown table
		"not sql",                   // parse error
		"SELECT COUNT(*) FROM orders GROUP BY TUMBLE(ts, 1000)", // window in fedsql
	}
	for _, sql := range bad {
		if _, err := e.Query(sql); err == nil {
			t.Errorf("Query(%q) should fail", sql)
		}
	}
}

// v2Only is a connector without the v3 surface: its Scan and AggregateScan
// return whole slices.
type v2Only struct{ Connector }

// TestV2ScanDrainsTheV3Methods: the engine never calls Scan/AggregateScan,
// but a caller outside it may. They drain OpenScan/OpenAggregateScan into
// records, NULLs omitted, and report the result materialized.
func TestV2ScanDrainsTheV3Methods(t *testing.T) {
	e, pinot := setupEngine(t, 120)
	ctx := context.Background()
	for name, conn := range map[string]Connector{"pinot": pinot, "hive": e.connectors["hive"]} {
		recs, stats, err := conn.Scan(ctx, "orders", Pushdown{Columns: []string{"order_id", "city"}})
		if err != nil || len(recs) != 120 || len(recs[0]) != 2 || stats.Streamed || stats.PeakEngineBytes == 0 {
			t.Errorf("%s Scan = %d records (first %v), %+v, %v; want 120 of two fields, materialized", name, len(recs), recs[0], stats, err)
		}
	}
	aq := AggregateQuery{GroupBy: []string{"city"}, Aggs: []sqlparse.SelectItem{{Func: sqlparse.FuncCount, Alias: "n"}}}
	for name, conn := range map[string]Connector{"pinot": pinot, "hive": e.connectors["hive"]} {
		groups, stats, err := conn.AggregateScan(ctx, "orders", aq)
		if err != nil || len(groups) != 3 || groups[0]["n"] != int64(40) || !stats.PushedAggs || stats.Streamed {
			t.Errorf("%s AggregateScan = %v, %+v, %v; want three cities of 40, pushed and materialized", name, groups, stats, err)
		}
	}
	// The archive refuses a shape it cannot fold as the engine would.
	aq.GroupBy = []string{"amount"}
	if _, _, err := e.connectors["hive"].AggregateScan(ctx, "orders", aq); !errors.Is(err, ErrPushdownUnsupported) {
		t.Errorf("hive AggregateScan grouped by a double: %v, want ErrPushdownUnsupported", err)
	}
}

// TestCatalogWithoutStreamingIsRefused: the engine executes through
// StreamingConnector only; a catalog registered without it is refused by
// name, not adapted.
func TestCatalogWithoutStreamingIsRefused(t *testing.T) {
	e, _ := setupEngine(t, 10)
	hive := e.connectors["hive"]
	e.Register(&v2Only{Connector: hive})
	for _, sql := range []string{"SELECT city FROM hive.cities", "SELECT COUNT(*) AS n FROM hive.cities"} {
		_, err := e.Query(sql)
		if err == nil || !strings.Contains(err.Error(), `catalog "hive" does not implement StreamingConnector`) {
			t.Errorf("%q over a v2-only catalog: %v, want it refused by name", sql, err)
		}
	}
}

func TestConnectorMetadata(t *testing.T) {
	e, pinot := setupEngine(t, 10)
	_ = e
	if got := pinot.Tables(); len(got) != 1 || got[0] != "orders" {
		t.Errorf("tables = %v", got)
	}
	s, err := pinot.Schema("orders")
	if err != nil || s.Name != "orders" {
		t.Errorf("schema = %v, %v", s, err)
	}
	if _, err := pinot.Schema("nope"); err == nil {
		t.Error("missing schema should error")
	}
}

// TestNegativeZeroGroupsWithZero: -0 and 0 are one value to record.Compare
// and to the reference, so GROUP BY over them is one group — from the
// consuming and the sealed table, pushed down and aggregated engine-side,
// and from the archive.
func TestNegativeZeroGroupsWithZero(t *testing.T) {
	rows := orderRows(12)
	for i, r := range rows {
		r["amount"] = []float64{math.Copysign(0, -1), 0, 2.5}[i%3]
	}
	store := objstore.NewMemStore()
	hive := NewArchiveConnector("hive", store)
	db := reftest.DB{"hive.orders": archiveTable(t, hive, store, ordersSchema(), rows)}
	db["pinot.orders"] = db["hive.orders"]
	for _, sealed := range []bool{false, true} {
		d, err := olap.NewDeployment(olap.DeploymentConfig{
			Table:        olap.TableConfig{Name: "orders", Schema: ordersSchema(), SegmentRows: 100},
			Servers:      []*olap.Server{olap.NewServer("s0")},
			SegmentStore: objstore.NewMemStore(),
			Backup:       olap.BackupP2P,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if err := d.Ingest(0, r); err != nil {
				t.Fatal(err)
			}
		}
		if sealed {
			if err := d.Seal(0); err != nil {
				t.Fatal(err)
			}
			d.WaitUploads()
		}
		pinot := NewPinotConnector("pinot")
		pinot.AddTable(d)
		e := NewEngine()
		e.Register(pinot)
		e.Register(hive)
		for _, disable := range []bool{false, true} {
			pinot.DisablePushdown = disable
			for _, catalog := range []string{"pinot", "hive"} {
				sql := fmt.Sprintf("SELECT amount, COUNT(*) AS n FROM %s.orders GROUP BY amount", catalog)
				res, err := e.Query(sql)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rows) != 2 {
					t.Errorf("sealed %v, pushdown off %v: %s = %v, want the groups 0 and 2.5", sealed, disable, sql, res.Rows)
				}
				checkRef(t, db, sql, res)
			}
		}
	}
}

// TestSQLTimeFilterPrunesSegments: a WHERE on the time column pushed down to
// Pinot prunes every sealed segment outside it before any scan, and EXPLAIN
// reports how many.
func TestSQLTimeFilterPrunesSegments(t *testing.T) {
	d, err := olap.NewDeployment(olap.DeploymentConfig{
		Table:        olap.TableConfig{Name: "orders", Schema: ordersSchema(), SegmentRows: 50},
		Servers:      []*olap.Server{olap.NewServer("s0"), olap.NewServer("s1")},
		SegmentStore: objstore.NewMemStore(),
		Backup:       olap.BackupP2P,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := orderRows(200)
	for i, r := range rows {
		if err := d.Ingest(i%2, r); err != nil {
			t.Fatal(err)
		}
	}
	pinot := NewPinotConnector("pinot")
	pinot.AddTable(d)
	e := NewEngine()
	e.Register(pinot)

	past := rows[len(rows)-1].Long("ts") + 1
	res, err := e.Query(fmt.Sprintf("SELECT COUNT(*) FROM pinot.orders WHERE ts >= %d", past))
	if err != nil {
		t.Fatal(err)
	}
	sealed := len(d.SegmentInfos())
	if sealed == 0 || res.Stats.Exec.SegmentsPruned != sealed || res.Stats.Exec.SegmentsScanned != 0 {
		t.Errorf("pruned %d and scanned %d of %d sealed segments, want all pruned", res.Stats.Exec.SegmentsPruned, res.Stats.Exec.SegmentsScanned, sealed)
	}
	if got := fmt.Sprint(res.Rows); got != "[[0]]" {
		t.Errorf("rows = %s, want [[0]]", got)
	}
	if want := fmt.Sprintf("segments_time_pruned=%d", sealed); len(res.Plan) != 1 || !strings.Contains(res.Plan[0], want) {
		t.Errorf("plan %q does not report %s", res.Plan, want)
	}
}
