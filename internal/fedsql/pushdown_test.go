package fedsql

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/objstore"
	"repro/internal/olap"
	"repro/internal/reftest"
	"repro/internal/sqlparse"
)

// equivalenceQueries is the matrix every aggregate/group-by/limit shape must
// answer identically through aggregate pushdown and through the row-scan +
// engine-side-aggregation fallback.
var equivalenceQueries = []string{
	"SELECT COUNT(*) FROM pinot.orders",
	"SELECT COUNT(*) AS n, SUM(amount) AS total FROM pinot.orders",
	"SELECT AVG(amount) AS mean FROM pinot.orders",
	"SELECT MIN(amount) AS lo, MAX(amount) AS hi FROM pinot.orders",
	"SELECT city, COUNT(*) AS n FROM pinot.orders GROUP BY city",
	"SELECT city, SUM(amount) AS total, AVG(amount) AS mean FROM pinot.orders GROUP BY city ORDER BY city",
	"SELECT city, COUNT(*) AS n FROM pinot.orders WHERE amount > 3 GROUP BY city ORDER BY n DESC",
	"SELECT city, SUM(amount) AS revenue FROM pinot.orders WHERE city = 'sf' GROUP BY city",
	"SELECT city, COUNT(*) AS n FROM pinot.orders GROUP BY city ORDER BY n DESC LIMIT 2",
	"SELECT COUNT(*) FROM pinot.orders WHERE amount >= 2 AND amount <= 8",
	"SELECT order_id, amount FROM pinot.orders WHERE city = 'nyc' ORDER BY order_id LIMIT 9",
}

func rowsKey(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v\n", res.Columns)
	for _, row := range res.Rows {
		for _, v := range row {
			fmt.Fprintf(&b, "%v|", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestPushdownEquivalenceMatrix: every aggregate/group-by/limit query must
// answer as the reference does via aggregate pushdown and via the row-scan
// fallback path (DisablePushdown). Run under -race in CI.
func TestPushdownEquivalenceMatrix(t *testing.T) {
	e, pinot := setupEngine(t, 300)
	db := setupRefDB(300)
	for _, sql := range equivalenceQueries {
		t.Run(sql, func(t *testing.T) {
			for _, path := range []struct {
				name            string
				disablePushdown bool
			}{{"pushdown", false}, {"fallback", true}} {
				pinot.DisablePushdown = path.disablePushdown
				res, err := e.Query(sql)
				pinot.DisablePushdown = false
				if err != nil {
					t.Fatalf("%s: %v", path.name, err)
				}
				checkRef(t, db, sql, res)
			}
		})
	}

	// Without ORDER BY, groups come out in one order on every path: by
	// ascending GROUP BY values, NULL first — ten before nine, a number
	// compared as a number. amount has 12 values and NULLs, city 3 and
	// NULLs.
	schema := ordersSchema()
	for i := range schema.Fields {
		schema.Fields[i].Nullable = schema.Fields[i].Name != "order_id" && schema.Fields[i].Name != "ts"
	}
	rows := orderRows(300)
	for i, r := range rows {
		r["amount"] = float64(i % 12)
		if i%7 == 3 {
			delete(r, "amount")
		}
		if i%11 == 5 {
			delete(r, "city")
		}
	}
	e, pinot = setupEngineOver(t, schema, rows)
	db = reftest.DB{"pinot.orders": refTable(schema.FieldNames(), rows), "hive.orders": refTable(schema.FieldNames(), rows)}
	for _, tmpl := range []string{
		"SELECT amount, COUNT(*) AS n FROM %s.orders GROUP BY amount",
		"SELECT city, SUM(amount) AS total, COUNT(*) AS n FROM %s.orders GROUP BY city",
		"SELECT city, amount, COUNT(*) AS n FROM %s.orders GROUP BY city, amount",
	} {
		var first, firstPath string
		for _, path := range []struct {
			name, catalog   string
			disablePushdown bool
		}{{"pushdown", "pinot", false}, {"fallback", "pinot", true}, {"hive", "hive", false}} {
			sql := fmt.Sprintf(tmpl, path.catalog)
			pinot.DisablePushdown = path.disablePushdown
			res, err := e.Query(sql)
			pinot.DisablePushdown = false
			if err != nil {
				t.Fatalf("%s: %s: %v", path.name, sql, err)
			}
			checkRef(t, db, sql, res)
			switch got := rowsKey(res); {
			case first == "":
				first, firstPath = got, path.name
			case got != first:
				t.Errorf("%s: %s returns\n%s\n%s returns\n%s", sql, path.name, got, firstPath, first)
			}
		}
	}
}

// TestPushdownAndFallbackTypeColumnsAlike: the engine's typed output is the
// same through aggregate pushdown and through the fallback — column for
// column the same vector type (COUNT a long, the other aggregations a double)
// and the same cells — over the equivalence matrix and over groups whose
// MIN and AVG inputs are all NULL, where pushdown's result cell is a NULL
// double as the engine-side aggregate's is.
func TestPushdownAndFallbackTypeColumnsAlike(t *testing.T) {
	schema := ordersSchema()
	schema.Fields[schema.FieldIndex("amount")].Nullable = true
	rows := orderRows(300)
	for _, r := range rows {
		if r["city"] == "la" {
			delete(r, "amount")
		}
	}
	e, pinot := setupEngineOver(t, schema, rows)
	queries := append(equivalenceQueries[:len(equivalenceQueries):len(equivalenceQueries)],
		"SELECT city, MIN(amount) AS lo, AVG(amount) AS mean, COUNT(amount) AS n FROM pinot.orders GROUP BY city",
		"SELECT city, MIN(amount) AS lo, AVG(amount) AS mean FROM pinot.orders WHERE city = 'la' GROUP BY city",
		"SELECT MIN(amount) AS lo, AVG(amount) AS mean, SUM(amount) AS total FROM pinot.orders WHERE city = 'la'",
	)
	for _, sql := range queries {
		var outs [2]*Batch
		for i, disable := range []bool{false, true} {
			stmt, err := sqlparse.Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			pinot.DisablePushdown = disable
			outs[i], _, _, err = e.run(context.Background(), stmt, new(Batch))
			pinot.DisablePushdown = false
			if err != nil {
				t.Fatalf("%s (fallback %v): %v", sql, disable, err)
			}
		}
		push, fall := outs[0], outs[1]
		if !reflect.DeepEqual(push.Columns, fall.Columns) {
			t.Fatalf("%s: columns %v through pushdown, %v through the fallback", sql, push.Columns, fall.Columns)
		}
		for c := range push.Cols {
			if pt, ft := push.Cols[c].Type, fall.Cols[c].Type; pt != ft {
				t.Errorf("%s: column %s has type %s through pushdown, %s through the fallback", sql, push.Columns[c], pt, ft)
			}
		}
		if got, want := push.AppendRows(nil), fall.AppendRows(nil); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: pushdown gives %v, the fallback %v", sql, got, want)
		}
	}
}

// TestStringAggRejectedOnBothPaths: SUM/AVG/MIN/MAX over a string column
// must error on the pushdown path (OLAP-layer validation) AND on the
// engine-side fallback path (hive / pushdown-disabled) — never silently
// aggregate coerced zeroes — so the two paths stay equivalent.
func TestStringAggRejectedOnBothPaths(t *testing.T) {
	e, pinot := setupEngine(t, 120)
	queries := []string{
		"SELECT SUM(city) AS s FROM %s.orders",
		"SELECT status, AVG(city) AS a FROM %s.orders GROUP BY status",
		"SELECT MIN(city) AS lo, MAX(city) AS hi FROM %s.orders",
	}
	for _, tmpl := range queries {
		if _, err := e.Query(fmt.Sprintf(tmpl, "pinot")); err == nil {
			t.Errorf("pushdown path accepted %q", fmt.Sprintf(tmpl, "pinot"))
		}
		if _, err := e.Query(fmt.Sprintf(tmpl, "hive")); err == nil {
			t.Errorf("engine-side fallback accepted %q", fmt.Sprintf(tmpl, "hive"))
		}
		pinot.DisablePushdown = true
		_, err := e.Query(fmt.Sprintf(tmpl, "pinot"))
		pinot.DisablePushdown = false
		if err == nil {
			t.Errorf("pushdown-disabled fallback accepted %q", fmt.Sprintf(tmpl, "pinot"))
		}
	}
	// COUNT over strings stays valid on every path.
	for _, cat := range []string{"pinot", "hive"} {
		if _, err := e.Query(fmt.Sprintf("SELECT COUNT(city) AS n FROM %s.orders", cat)); err != nil {
			t.Errorf("COUNT(city) on %s: %v", cat, err)
		}
	}
}

// TestAggregateFallbackCountedAndExplained: an aggregate a connector cannot
// absorb falls back to a row scan plus engine-side aggregation, which the
// query's stats count in PushdownFallbacks and its plan line (what EXPLAIN
// prints) names row-scan+engine-agg; a pushed aggregate shows neither.
func TestAggregateFallbackCountedAndExplained(t *testing.T) {
	e, pinot := setupEngine(t, 120)
	fellBack := func(name string, res *Result) {
		t.Helper()
		if res.Stats.PushdownFallbacks != 1 {
			t.Errorf("%s PushdownFallbacks = %d, want 1", name, res.Stats.PushdownFallbacks)
		}
		if len(res.Plan) != 1 || !strings.Contains(res.Plan[0], "row-scan+engine-agg") {
			t.Errorf("%s plan = %v, want a row-scan+engine-agg line", name, res.Plan)
		}
	}

	// The archive filters nothing: an aggregate with a WHERE on an archive
	// table falls back, and the engine must count and explain the fallback
	// while still answering correctly.
	res, err := e.Query("SELECT city, COUNT(*) AS n FROM hive.orders WHERE amount >= 0 GROUP BY city")
	if err != nil {
		t.Fatal(err)
	}
	fellBack("archive", res)
	if res.Stats.PushedAggs {
		t.Error("archive scan must not claim pushed aggregations")
	}
	if len(res.Rows) != 3 {
		t.Errorf("archive fallback = %v, want three cities", res.Rows)
	}

	// Without the WHERE the archive aggregates itself.
	res, err = e.Query("SELECT city, COUNT(*) AS n FROM hive.orders GROUP BY city")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PushdownFallbacks != 0 || !res.Stats.PushedAggs || len(res.Plan) != 1 || !strings.Contains(res.Plan[0], "[aggregate-scan]") ||
		!strings.Contains(res.Plan[0], "exec=materialized") {
		t.Errorf("archive aggregate: fallbacks=%d pushedAggs=%v plan %v; want an aggregate-scan, materialized", res.Stats.PushdownFallbacks, res.Stats.PushedAggs, res.Plan)
	}

	// Pushdown-disabled Pinot takes the same fallback path.
	pinot.DisablePushdown = true
	res, err = e.Query("SELECT COUNT(*) FROM pinot.orders")
	pinot.DisablePushdown = false
	if err != nil {
		t.Fatal(err)
	}
	fellBack("disabled-pinot", res)

	// A pushed aggregate records no fallback.
	res, err = e.Query("SELECT COUNT(*) FROM pinot.orders")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PushdownFallbacks != 0 || !res.Stats.PushedAggs {
		t.Errorf("pushed aggregate: fallbacks=%d pushedAggs=%v", res.Stats.PushdownFallbacks, res.Stats.PushedAggs)
	}
	if len(res.Plan) != 1 || strings.Contains(res.Plan[0], "row-scan+engine-agg") || !strings.Contains(res.Plan[0], "aggregate-scan") {
		t.Errorf("pushed aggregate plan = %v, want an aggregate-scan line", res.Plan)
	}
}

// TestArchiveCapabilitiesExplicit: the archive declares every fragment — it
// aggregates, grouped or not, and filters, orders and limits nothing — and
// its aggregate scan refuses any fragment it did not declare.
func TestArchiveCapabilitiesExplicit(t *testing.T) {
	a := NewArchiveConnector("hive", objstore.NewMemStore())
	a.AddTable("orders", ordersSchema())
	caps := a.Capabilities()
	if want := (Capabilities{Aggregations: true, GroupBy: true}); caps != want {
		t.Errorf("archive capabilities = %+v, want %+v", caps, want)
	}
	count := []sqlparse.SelectItem{{Func: sqlparse.FuncCount}}
	for name, aq := range map[string]AggregateQuery{
		"filters": {Aggs: count, Filters: []sqlparse.Predicate{{Column: "amount", Op: sqlparse.CmpGt, Value: 1.0}}},
		"orderBy": {Aggs: count, GroupBy: []string{"city"}, OrderBy: []sqlparse.OrderItem{{Column: "city"}}},
		"limit":   {Aggs: count, GroupBy: []string{"city"}, Limit: 2},
	} {
		if _, _, err := a.AggregateScan(context.Background(), "orders", aq); !errors.Is(err, ErrPushdownUnsupported) {
			t.Errorf("archive AggregateScan with %s: err = %v, want ErrPushdownUnsupported", name, err)
		}
	}
	if recs, _, err := a.AggregateScan(context.Background(), "orders", AggregateQuery{Aggs: count}); err != nil || len(recs) != 1 || recs[0]["count"] != int64(0) {
		t.Errorf("archive COUNT(*) over no parts = %v, %v; want one row of 0", recs, err)
	}
}

func TestAggregateScanMovesAggregateRowsOnly(t *testing.T) {
	e, _ := setupEngine(t, 300)
	res, err := e.Query("SELECT city, SUM(amount) AS total FROM pinot.orders GROUP BY city")
	if err != nil {
		t.Fatal(err)
	}
	// 3 cities in the fixture: exactly 3 aggregate rows cross the boundary.
	if res.Stats.RowsReturned != 3 {
		t.Errorf("RowsReturned = %d, want 3 (aggregate rows, not raw rows)", res.Stats.RowsReturned)
	}
	if res.Stats.Router == "" {
		t.Error("stats should carry the backend routing strategy")
	}
	if res.Stats.Exec.SegmentsScanned == 0 {
		t.Error("unified stats should carry backend ExecStats")
	}
}

func TestPlanLinesDescribeDecisions(t *testing.T) {
	e, pinot := setupEngine(t, 120)
	res, err := e.Query("SELECT city, COUNT(*) AS n FROM pinot.orders WHERE city = 'sf' GROUP BY city")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plan) != 1 {
		t.Fatalf("plan = %v, want one scan line", res.Plan)
	}
	line := res.Plan[0]
	for _, want := range []string{"scan pinot.orders", "aggregate-scan", "filters", "aggs", "route=", "rows_moved=1"} {
		if !strings.Contains(line, want) {
			t.Errorf("plan line %q missing %q", line, want)
		}
	}

	pinot.DisablePushdown = true
	res, err = e.Query("SELECT city, COUNT(*) AS n FROM pinot.orders GROUP BY city")
	pinot.DisablePushdown = false
	if err != nil {
		t.Fatal(err)
	}
	// The fallback's row scan moves one of the table's four columns.
	if len(res.Plan) != 1 || !strings.Contains(res.Plan[0], "row-scan+engine-agg") || !strings.Contains(res.Plan[0], " cols=1/4 ") {
		t.Errorf("fallback plan = %v, want a row-scan+engine-agg line with cols=1/4", res.Plan)
	}

	// Joins carry one line per side, each with that side's projection: the
	// join key and amount of orders' four columns, both of cities' two. An
	// aggregate scan's rows are not the table's, so it prints no cols=.
	res, err = e.Query(`SELECT c.region, SUM(o.amount) AS revenue
		FROM pinot.orders o JOIN hive.cities c ON o.city = c.city
		GROUP BY c.region`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plan) != 2 || !strings.Contains(res.Plan[0], "scan pinot.orders [row-scan] pushdown=none cols=2/4 ") ||
		!strings.Contains(res.Plan[1], "scan hive.cities [row-scan] pushdown=none cols=2/2 ") {
		t.Errorf("join plan = %v, want two row-scan lines with cols=2/4 and cols=2/2", res.Plan)
	}
	if strings.Contains(line, "cols=") {
		t.Errorf("aggregate-scan line %q claims a projection", line)
	}

	// exec= tells the truth. A pushed-down ORDER BY is folded by the backend:
	// every row of the result is resident before the first batch is pulled.
	// (order_id makes the order total: two executions merge their partials in
	// arrival order, so ties on amount may cut the LIMIT at different rows.)
	res, err = e.Query("SELECT order_id, amount FROM pinot.orders ORDER BY amount DESC, order_id LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := pinot.brokers["orders"].Execute(context.Background(), &olap.QueryRequest{Query: &olap.Query{
		Table: "orders", Select: []string{"order_id", "amount"}, Limit: 10,
		OrderBy: []olap.OrderSpec{{Column: "amount", Desc: true}, {Column: "order_id"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows, direct.Batch.AppendRows(nil)) {
		t.Errorf("ordered scan rows differ from Broker.Execute's:\n%v\n%v", res.Rows, direct.Batch.AppendRows(nil))
	}
	// The response's vectors: a 16-byte header per order_id, 8 bytes per amount.
	whole := int64(len(res.Rows)) * (16 + 8)
	if len(res.Plan) != 1 || !strings.Contains(res.Plan[0], " exec=materialized") || !strings.Contains(res.Plan[0], " trim=server k=10") {
		t.Errorf("ordered scan plan = %v, want exec=materialized and trim=server k=10", res.Plan)
	}
	if res.Stats.Streamed || len(res.Rows) != 10 || res.Stats.PeakEngineBytes != whole {
		t.Errorf("ordered scan: Streamed=%v rows=%d PeakEngineBytes=%d, want a materialized scan holding the whole result (%d bytes)",
			res.Stats.Streamed, len(res.Rows), res.Stats.PeakEngineBytes, whole)
	}
	// An unordered scan streams.
	res, err = e.Query("SELECT order_id, amount FROM pinot.orders LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plan) != 1 || !strings.Contains(res.Plan[0], " exec=streaming batches=") || !res.Stats.Streamed {
		t.Errorf("unordered scan plan = %v (Streamed=%v), want exec=streaming", res.Plan, res.Stats.Streamed)
	}
}

// TestPartitionRoutedFederatedQuery wires a partition-aware router through
// the connector: a partition-filtered federated aggregate must contact a
// strict subset of servers and report pruned partitions in the unified
// stats.
func TestPartitionRoutedFederatedQuery(t *testing.T) {
	const partitions = 4
	servers := make([]*olap.Server, partitions)
	for i := range servers {
		servers[i] = olap.NewServer(fmt.Sprintf("s%d", i))
	}
	d, err := olap.NewDeployment(olap.DeploymentConfig{
		Table: olap.TableConfig{
			Name: "orders", Schema: ordersSchema(), SegmentRows: 25,
			Replicas: 2, PartitionColumn: "city", Partitions: partitions,
		},
		Servers:      servers,
		SegmentStore: objstore.NewMemStore(),
		Backup:       olap.BackupP2P,
	})
	if err != nil {
		t.Fatal(err)
	}
	present := map[int]bool{}
	for _, r := range orderRows(300) {
		p := olap.PartitionFor(r["city"], partitions)
		present[p] = true
		if err := d.Ingest(p, r); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < partitions; p++ {
		if err := d.Seal(p); err != nil {
			t.Fatal(err)
		}
	}
	d.WaitUploads()

	pinot := NewPinotConnector("pinot")
	pinot.Router = &olap.PartitionRouter{}
	pinot.AddTable(d)
	e := NewEngine()
	e.Register(pinot)

	res, err := e.Query("SELECT city, SUM(amount) AS revenue FROM pinot.orders WHERE city = 'sf' GROUP BY city")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Router != "partition" {
		t.Errorf("router = %q, want partition", res.Stats.Router)
	}
	if res.Stats.Exec.ServersContacted >= len(servers) {
		t.Errorf("ServersContacted = %d, want < %d", res.Stats.Exec.ServersContacted, len(servers))
	}
	if want := len(present) - 1; res.Stats.Exec.PartitionsPruned != want {
		t.Errorf("PartitionsPruned = %d, want %d", res.Stats.Exec.PartitionsPruned, want)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "sf" {
		t.Errorf("rows = %v", res.Rows)
	}
}
