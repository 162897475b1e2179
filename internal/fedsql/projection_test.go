package fedsql

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/metadata"
	"repro/internal/objstore"
	"repro/internal/olap"
	"repro/internal/record"
	"repro/internal/reftest"
)

// recordingConn notes the projection of every row scan the engine opens on
// the connector it wraps. With refuseAggs set it refuses every aggregate
// scan, as a backend refuses a shape it cannot fold, so the engine falls
// back to a row scan.
type recordingConn struct {
	StreamingConnector
	mu         sync.Mutex
	asked      map[string][]string // table → Pushdown.Columns of its last OpenScan
	refuseAggs bool
}

func (c *recordingConn) OpenAggregateScan(ctx context.Context, table string, aq AggregateQuery) (RowIterator, error) {
	if c.refuseAggs {
		return nil, ErrPushdownUnsupported
	}
	return c.StreamingConnector.OpenAggregateScan(ctx, table, aq)
}

func (c *recordingConn) OpenScan(ctx context.Context, table string, pd Pushdown) (RowIterator, error) {
	c.mu.Lock()
	c.asked[table] = append([]string(nil), pd.Columns...)
	c.mu.Unlock()
	return c.StreamingConnector.OpenScan(ctx, table, pd)
}

// requested is the set a scan of table asked for, sorted; "*" for all.
func (c *recordingConn) requested(table string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	cols, ok := c.asked[table]
	switch {
	case !ok:
		return "(no scan)"
	case len(cols) == 0:
		return "*"
	}
	cols = append([]string(nil), cols...)
	sort.Strings(cols)
	return strings.Join(cols, ",")
}

// adhocSchemas are the pipeline benchmark's tables in small: the fact table
// (live in pinot.orders, archived as hive.orders_day) and the restaurant
// dimension, which shares restaurant_id and city with it.
func adhocSchemas() (orders, restaurants *metadata.Schema) {
	orders = &metadata.Schema{Name: "orders", Version: 1, TimeField: "ts", Fields: []metadata.Field{
		{Name: "order_id", Type: metadata.TypeString},
		{Name: "restaurant_id", Type: metadata.TypeLong, Dimension: true},
		{Name: "city", Type: metadata.TypeString, Dimension: true},
		{Name: "status", Type: metadata.TypeString, Dimension: true},
		{Name: "amount", Type: metadata.TypeDouble},
		{Name: "ts", Type: metadata.TypeTimestamp},
	}}
	restaurants = &metadata.Schema{Name: "restaurants", Version: 1, Fields: []metadata.Field{
		{Name: "restaurant_id", Type: metadata.TypeLong},
		{Name: "name", Type: metadata.TypeString},
		{Name: "cuisine", Type: metadata.TypeString},
		{Name: "city", Type: metadata.TypeString, Nullable: true},
	}}
	return orders, restaurants
}

// adhocEngine serves those tables through recording connectors — with
// aggregate pushdown on or off for pinot — and as the reference's tables.
func adhocEngine(t *testing.T, disablePushdown bool) (*Engine, *recordingConn, *recordingConn, reftest.DB) {
	t.Helper()
	ordersSchema, restaurantsSchema := adhocSchemas()
	ordersSchema.Name = "orders_day"
	var orders, restaurants []record.Record
	for i := 0; i < 12; i++ {
		r := record.Record{"restaurant_id": int64(i), "name": fmt.Sprintf("r%d", i), "cuisine": []string{"thai", "pizza", "sushi"}[i%3]}
		if i%4 != 0 {
			r["city"] = fmt.Sprintf("dim_city_%d", i%2)
		}
		restaurants = append(restaurants, r)
	}
	for i := 0; i < 240; i++ {
		orders = append(orders, record.Record{
			"order_id": fmt.Sprintf("o%04d", i), "restaurant_id": int64(i % 15), // 12, 13, 14 have no dimension row
			"city": fmt.Sprintf("city_%02d", i%4), "status": []string{"placed", "picked_up", "delivered"}[i%3],
			"amount": float64(i%40) / 4, "ts": int64(1_700_000_000_000 + i),
		})
	}
	store := objstore.NewMemStore()
	hive := NewArchiveConnector("hive", store)
	db := reftest.DB{
		"hive.orders_day":  archiveTable(t, hive, store, ordersSchema, orders[:100], orders[100:]),
		"hive.restaurants": archiveTable(t, hive, store, restaurantsSchema, restaurants),
	}
	db["pinot.orders"] = db["hive.orders_day"]

	ordersSchema, _ = adhocSchemas()
	d, err := olap.NewDeployment(olap.DeploymentConfig{
		Table:        olap.TableConfig{Name: "orders", Schema: ordersSchema, SegmentRows: 64},
		Servers:      []*olap.Server{olap.NewServer("s0"), olap.NewServer("s1")},
		SegmentStore: objstore.NewMemStore(),
		Backup:       olap.BackupP2P,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range orders {
		if err := d.Ingest(i%2, r); err != nil {
			t.Fatal(err)
		}
	}
	pinot := NewPinotConnector("pinot")
	pinot.DisablePushdown = disablePushdown
	pinot.AddTable(d)

	e := NewEngine()
	recPinot := &recordingConn{StreamingConnector: pinot, asked: map[string][]string{}}
	recHive := &recordingConn{StreamingConnector: hive, asked: map[string][]string{}}
	e.Register(recPinot)
	e.Register(recHive)
	return e, recPinot, recHive, db
}

// TestProjectionReachesEveryScan: each table scan is asked for exactly the
// columns its statement can reach — on the aggregate fallback and on both
// sides of a join, not only on plain selections — and every answer is the
// reference's.
func TestProjectionReachesEveryScan(t *testing.T) {
	e, pinot, hive, db := adhocEngine(t, false)
	const join = " FROM pinot.orders o JOIN hive.restaurants r ON o.restaurant_id = r.restaurant_id"
	for _, c := range []struct {
		sql          string
		probe, build string // what pinot.orders and the archive table were asked for
		archive      string // the archive table scanned
		fallback     bool   // the archive refuses to aggregate: the engine scans it
	}{
		// The ad-hoc pass's A2 and A3. A3 is folded inside the archive
		// connector, which opens no row scan; refused, its fallback scan
		// moves what the aggregation reads.
		{"SELECT r.cuisine, COUNT(*) AS n, SUM(o.amount) AS total" + join + " WHERE o.status = 'picked_up' GROUP BY r.cuisine",
			"amount,restaurant_id", "cuisine,restaurant_id", "restaurants", false},
		{"SELECT city, COUNT(*) AS n, SUM(amount) AS total FROM hive.orders_day GROUP BY city",
			"(no scan)", "(no scan)", "orders_day", false},
		{"SELECT city, COUNT(*) AS n, SUM(amount) AS total FROM hive.orders_day GROUP BY city",
			"(no scan)", "amount,city", "orders_day", true},
		// An unqualified name is fetched on every side that has it; the
		// probe side's wins the binding.
		{"SELECT city, COUNT(*) AS n" + join + " GROUP BY city",
			"city,restaurant_id", "city,restaurant_id", "restaurants", false},
		// A name qualified with the other side is that side's alone; one
		// qualified with a side that lacks it falls back to the bare name.
		{"SELECT r.city, o.city, o.cuisine" + join,
			"city,restaurant_id", "city,cuisine,restaurant_id", "restaurants", false},
		// Residual predicates add their columns: the archive filters nothing
		// itself, and an unqualified predicate runs after the join.
		{"SELECT o.order_id" + join + " WHERE r.name != 'r3' AND cuisine = 'thai'",
			"order_id,restaurant_id", "cuisine,name,restaurant_id", "restaurants", false},
		{"SELECT order_id FROM hive.orders_day WHERE amount > 9 AND status = 'placed'",
			"(no scan)", "amount,order_id,status", "orders_day", false},
		// A statement that reads no column still counts rows.
		{"SELECT COUNT(*) AS n FROM hive.orders_day", "(no scan)", "order_id", "orders_day", true},
		{"SELECT COUNT(*) AS n" + join, "restaurant_id", "restaurant_id", "restaurants", false},
		// A name the schema lacks is NULL, not a column to ask for.
		{"SELECT COUNT(nosuch) AS n, MAX(amount) AS top FROM hive.orders_day", "(no scan)", "amount", "orders_day", true},
		// SELECT * reaches everything, on every side.
		{"SELECT *" + join + " WHERE o.amount > 9", "*", "*", "restaurants", false},
		{"SELECT * FROM hive.orders_day WHERE amount > 9.5", "(no scan)", "*", "orders_day", false},
		// A backend that orders must return what it orders by.
		{"SELECT order_id, amount FROM pinot.orders ORDER BY amount DESC, order_id LIMIT 7", "amount,order_id", "(no scan)", "restaurants", false},
	} {
		pinot.asked, hive.asked = map[string][]string{}, map[string][]string{}
		hive.refuseAggs = c.fallback
		res, err := e.Query(c.sql)
		if err != nil {
			t.Fatalf("%q: %v", c.sql, err)
		}
		checkRef(t, db, c.sql, res)
		if got := pinot.requested("orders"); got != c.probe {
			t.Errorf("%q: pinot.orders was asked for %s, want %s", c.sql, got, c.probe)
		}
		if got := hive.requested(c.archive); got != c.build {
			t.Errorf("%q: hive.%s was asked for %s, want %s", c.sql, c.archive, got, c.build)
		}
	}

	// The aggregate fallback over a backend that filters: the predicate is
	// absorbed, so only what the aggregation reads is moved.
	e, pinot, _, db = adhocEngine(t, true)
	sql := "SELECT city, status, COUNT(*) AS n, AVG(amount) AS mean FROM pinot.orders WHERE ts >= 1700000000100 GROUP BY city, status"
	res, err := e.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	checkRef(t, db, sql, res)
	if got := pinot.requested("orders"); got != "amount,city,status,ts" {
		// DisablePushdown turns filter pushdown off too: ts is a residual.
		t.Errorf("%q: pinot.orders was asked for %s, want amount,city,status,ts", sql, got)
	}
	if !strings.Contains(res.Plan[0], " cols=4/6 ") {
		t.Errorf("plan line %q does not show the projection as cols=4/6", res.Plan[0])
	}
}

// memConn serves in-memory tables of values no typed backend produces —
// NaNs, ±Inf, -0 — one type to a column, through the v3 surface, projection
// honoured.
type memConn struct {
	name   string
	tables map[string]*reftest.Table
}

func (m *memConn) Name() string               { return m.name }
func (m *memConn) Capabilities() Capabilities { return Capabilities{} }
func (m *memConn) Tables() []string {
	var out []string
	for t := range m.tables {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Schema types each column by its first value.
func (m *memConn) Schema(table string) (*metadata.Schema, error) {
	t, ok := m.tables[table]
	if !ok {
		return nil, fmt.Errorf("memConn: no table %q", table)
	}
	s := &metadata.Schema{Name: table, Version: 1}
	for _, c := range t.Cols {
		f := metadata.Field{Name: c, Nullable: true}
		for _, r := range t.Rows {
			if f.Type = record.TypeOf(r[c]); r[c] != nil {
				break
			}
		}
		s.Fields = append(s.Fields, f)
	}
	return s, nil
}

func (m *memConn) OpenScan(ctx context.Context, table string, pd Pushdown) (RowIterator, error) {
	t, ok := m.tables[table]
	if !ok {
		return nil, fmt.Errorf("memConn: no table %q", table)
	}
	cols := pd.Columns
	if len(cols) == 0 {
		cols = t.Cols
	}
	b := Batch{Columns: cols, Cols: make([]record.Vector, len(cols)), Len: len(t.Rows)}
	for ci, c := range cols {
		for _, r := range t.Rows {
			b.Cols[ci].Append(r[c])
		}
	}
	return newBatchIterator(b, QueryStats{}), nil
}

func (m *memConn) OpenAggregateScan(context.Context, string, AggregateQuery) (RowIterator, error) {
	return nil, ErrPushdownUnsupported
}

func (m *memConn) Scan(ctx context.Context, table string, pd Pushdown) ([]record.Record, QueryStats, error) {
	it, err := m.OpenScan(ctx, table, pd)
	return drainRecords(ctx, it, err)
}

func (m *memConn) AggregateScan(context.Context, string, AggregateQuery) ([]record.Record, QueryStats, error) {
	return nil, QueryStats{}, ErrPushdownUnsupported
}

// TestHashKeysKeepTheCanonicalClasses: the engine's group and join tables
// look rows up in a record.KeyIndex, whose classes must be the canonical
// key's (record's TestKeyIndexKeepsTheCanonicalClasses checks them value
// against value). Checked end to end against the reference over keys a
// formatted key used to decide: NaN, ±Inf, -0, NULL within one column, and
// across the two sides of a join a long and a double of one value and a
// string that prints like a number.
func TestHashKeysKeepTheCanonicalClasses(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	db := reftest.DB{
		// k is a long column, f a double one, s a string one.
		"mem.m": refTable([]string{"k", "f", "s", "v", "tag"}, []record.Record{
			{"k": int64(1), "f": 1.0, "s": "1", "v": 1.0, "tag": "one"},
			{"k": int64(2), "f": nan, "s": "2", "v": 2.0, "tag": "two"},
			{"f": nan, "v": 4.0, "tag": "null"},
			{"k": int64(2), "f": negZero, "s": "x", "v": nan, "tag": "two again"},
			{"k": int64(0), "f": 0.0, "s": "1", "tag": "zero"},
			{"f": math.Inf(1), "s": "2", "v": 32.0, "tag": "null again"},
		}),
		// k is a double column.
		"mem.d": refTable([]string{"k", "label"}, []record.Record{
			{"k": 1.0, "label": "one"}, {"k": 2.0, "label": "two"}, {"k": nan, "label": "not a number"},
			{"label": "no key"}, {"k": math.Inf(1), "label": "infinity"}, {"k": 2.0, "label": "two again"}, {"k": negZero, "label": "zero"},
		}),
	}
	e := NewEngine()
	e.Register(&memConn{name: "mem", tables: map[string]*reftest.Table{"m": db["mem.m"], "d": db["mem.d"]}})
	for _, sql := range []string{
		"SELECT f, COUNT(*) AS n, SUM(v) AS total, COUNT(v) AS vs FROM mem.m GROUP BY f",
		"SELECT k, f, COUNT(*) AS n FROM mem.m GROUP BY k, f",
		"SELECT s, tag, COUNT(*) AS n FROM mem.m GROUP BY s, tag",
		// A long probe key against a double build key, and the other way.
		"SELECT a.tag, b.label FROM mem.m a JOIN mem.d b ON a.k = b.k",
		"SELECT a.label, b.tag FROM mem.d a JOIN mem.m b ON a.k = b.k",
		// Doubles: NaN joins NaN, -0 joins 0, +Inf joins +Inf.
		"SELECT a.tag, b.label FROM mem.m a JOIN mem.d b ON a.f = b.k",
		// A string never joins the number it prints as.
		"SELECT a.tag, b.label FROM mem.m a JOIN mem.d b ON a.s = b.k",
		"SELECT b.label, COUNT(*) AS n, MAX(a.v) AS top FROM mem.m a JOIN mem.d b ON a.k = b.k GROUP BY b.label",
		"SELECT a.f, COUNT(*) AS n FROM mem.m a JOIN mem.d b ON a.f = b.k GROUP BY a.f",
	} {
		res, err := e.Query(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		checkRef(t, db, sql, res)
	}
}
