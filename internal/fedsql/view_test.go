package fedsql

import (
	"context"
	"strings"
	"testing"

	"repro/internal/objstore"
	"repro/internal/olap"
	"repro/internal/olap/matview"
	"repro/internal/sqlparse"
)

// TestViewServedFederatedQueryUnderIngest: a registered aggregate fragment
// is served from its materialized view through the SQL layer (EXPLAIN's
// view=hit), keeps hitting under sustained ingest — exactly where the
// result cache degrades to a 0% hit rate — and its answers track the new
// rows, matching a view-less connector byte for byte.
func TestViewServedFederatedQueryUnderIngest(t *testing.T) {
	servers := []*olap.Server{olap.NewServer("s0"), olap.NewServer("s1")}
	d, err := olap.NewDeployment(olap.DeploymentConfig{
		Table:        olap.TableConfig{Name: "orders", Schema: ordersSchema(), SegmentRows: 50},
		Servers:      servers,
		SegmentStore: objstore.NewMemStore(),
		Backup:       olap.BackupP2P,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := orderRows(400)
	for i := 0; i < 200; i++ {
		if err := d.Ingest(i%2, rows[i]); err != nil {
			t.Fatal(err)
		}
	}

	pinot := NewPinotConnector("pinot")
	pinot.CacheMaxBytes = 1 << 20
	pinot.EnableViews = &matview.Config{}
	pinot.AddTable(d)
	e := NewEngine()
	e.Register(pinot)

	// A view-less twin answers the same SQL cold, as the oracle.
	plain := NewPinotConnector("plain")
	plain.AddTable(d)
	oracle := NewEngine()
	oracle.Register(plain)

	frag := AggregateQuery{
		GroupBy: []string{"city"},
		Aggs: []sqlparse.SelectItem{
			{Func: sqlparse.FuncSum, Column: "amount", Alias: "revenue"},
		},
	}
	if err := pinot.RegisterView(context.Background(), "orders", frag); err != nil {
		t.Fatal(err)
	}

	const sql = "SELECT city, SUM(amount) AS revenue FROM pinot.orders GROUP BY city"
	const oracleSQL = "SELECT city, SUM(amount) AS revenue FROM plain.orders GROUP BY city"

	res, err := e.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Exec.ViewHit != 1 {
		t.Fatalf("registered fragment must be view-served, stats %+v", res.Stats.Exec)
	}
	if len(res.Plan) != 1 || !strings.Contains(res.Plan[0], "view=hit") {
		t.Fatalf("plan %v should show view=hit", res.Plan)
	}
	if strings.Contains(res.Plan[0], "cache=hit") {
		t.Fatalf("view hit must not double-serve from the cache: %v", res.Plan)
	}

	// Sustained ingest: every query lands on a freshly-bumped generation,
	// so the cache can never hit — but the view keeps serving, and its
	// answer tracks each new row.
	for i := 200; i < 400; i++ {
		if err := d.Ingest(i%2, rows[i]); err != nil {
			t.Fatal(err)
		}
		if i%50 != 0 {
			continue
		}
		got, err := e.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats.Exec.ViewHit != 1 || !strings.Contains(got.Plan[0], "view=hit") {
			t.Fatalf("ingest round %d: view must keep serving, plan %v stats %+v",
				i, got.Plan, got.Stats.Exec)
		}
		want, err := oracle.Query(oracleSQL)
		if err != nil {
			t.Fatal(err)
		}
		if rowsKey(got) != rowsKey(want) {
			t.Fatalf("ingest round %d: view answer diverged\n got %v\nwant %v", i, got.Rows, want.Rows)
		}
	}
	if st := pinot.ViewRegistry("orders").Stats(); st.Hits == 0 || st.RowsMerged == 0 {
		t.Fatalf("registry did no incremental serving: %+v", st)
	}

	// An unregistered shape on the same connector still uses the cache.
	other := "SELECT city, COUNT(*) AS n FROM pinot.orders GROUP BY city"
	if _, err := e.Query(other); err != nil {
		t.Fatal(err)
	}
	cached, err := e.Query(other)
	if err != nil {
		t.Fatal(err)
	}
	if cached.Stats.Exec.ViewHit != 0 || !strings.Contains(cached.Plan[0], "cache=hit") {
		t.Fatalf("unregistered shape must keep cache behavior: %v %+v",
			cached.Plan, cached.Stats.Exec)
	}
}

// TestRegisterViewRequiresEnableViews: registration without EnableViews is
// a typed error, not a silent no-op.
func TestRegisterViewRequiresEnableViews(t *testing.T) {
	servers := []*olap.Server{olap.NewServer("s0")}
	d, err := olap.NewDeployment(olap.DeploymentConfig{
		Table:        olap.TableConfig{Name: "orders", Schema: ordersSchema(), SegmentRows: 50},
		Servers:      servers,
		SegmentStore: objstore.NewMemStore(),
		Backup:       olap.BackupP2P,
	})
	if err != nil {
		t.Fatal(err)
	}
	pinot := NewPinotConnector("pinot")
	pinot.AddTable(d)
	if err := pinot.RegisterView(context.Background(), "orders", AggregateQuery{
		Aggs: []sqlparse.SelectItem{{Func: sqlparse.FuncCount}},
	}); err == nil {
		t.Fatal("RegisterView without EnableViews must fail")
	}
	if pinot.ViewRegistry("orders") != nil {
		t.Fatal("no registry should exist without EnableViews")
	}
}
