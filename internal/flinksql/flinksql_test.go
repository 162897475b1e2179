package flinksql

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/fedsql"
	"repro/internal/flow"
	"repro/internal/flow/backfill"
	"repro/internal/metadata"
	"repro/internal/objstore"
	"repro/internal/olap"
	"repro/internal/record"
	"repro/internal/reftest"
	"repro/internal/sqlparse"
	"repro/internal/stream"
)

const base = int64(1700000000000)

func tripsSchema() *metadata.Schema {
	return &metadata.Schema{
		Name:    "trips",
		Version: 1,
		Fields: []metadata.Field{
			{Name: "city", Type: metadata.TypeString, Dimension: true},
			{Name: "product", Type: metadata.TypeString, Dimension: true},
			{Name: "fare", Type: metadata.TypeDouble},
			{Name: "ts", Type: metadata.TypeTimestamp},
		},
		TimeField: "ts",
	}
}

func tripRows(n int) []record.Record {
	rows := make([]record.Record, n)
	for i := range rows {
		rows[i] = record.Record{
			"city":    []string{"sf", "nyc"}[i%2],
			"product": []string{"uberx", "eats"}[i%2*0+(i/2)%2],
			"fare":    float64(i % 20),
			"ts":      base + int64(i)*1000,
		}
	}
	return rows
}

func setupTopic(t *testing.T, n int) (*stream.Cluster, *record.Codec) {
	t.Helper()
	cluster, err := stream.NewCluster(stream.ClusterConfig{Name: "c", Nodes: 1, ReplicationInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	if err := cluster.CreateTopic("trips", stream.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	codec, _ := record.NewCodec(tripsSchema())
	p := stream.NewProducer(cluster, "svc", "", nil)
	for _, r := range tripRows(n) {
		payload, _ := codec.Encode(r)
		if err := p.Produce("trips", []byte(r.String("city")), payload); err != nil {
			t.Fatal(err)
		}
	}
	return cluster, codec
}

// rowEvent is r as a StreamSource delivers it: conformed to schema, as
// schema-bound cells.
func rowEvent(t testing.TB, schema *metadata.Schema, r record.Record) flow.Event {
	t.Helper()
	vals := make([]record.Value, len(schema.Fields))
	for i, f := range schema.Fields {
		v, err := record.ConformValue(r[f.Name], f, schema.Name)
		if err != nil {
			t.Fatal(err)
		}
		vals[i] = record.ValueOf(v)
	}
	return flow.Event{Row: record.Row{Schema: schema, Vals: vals}}
}

func TestCompileRejections(t *testing.T) {
	bad := []string{
		"SELECT city, COUNT(*) FROM trips GROUP BY city",                    // agg without window
		"SELECT city FROM trips ORDER BY city",                              // order by on stream
		"SELECT a.x FROM a JOIN b ON a.k = b.k",                             // join
		"SELECT city FROM (SELECT city FROM trips) t",                       // subquery
		"SELECT fare, COUNT(*) FROM trips GROUP BY city, TUMBLE(ts, 60000)", // non-grouped projection
	}
	for _, sql := range bad {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		if _, err := Compile(stmt, 1); err == nil {
			t.Errorf("Compile(%q) should fail", sql)
		}
	}
}

func TestStreamingWindowedSQL(t *testing.T) {
	cluster, codec := setupTopic(t, 120)
	sink := flow.NewCollectSink()
	job, plan, err := StreamJob("agg", `
		SELECT city, COUNT(*) AS trips, SUM(fare) AS revenue
		FROM trips
		WHERE fare >= 0
		GROUP BY city, TUMBLE(ts, 60000)`,
		cluster, codec, sink, StreamJobConfig{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plan.TimeColumn != "ts" || plan.Table != "trips" {
		t.Errorf("plan = %+v", plan)
	}
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { job.Cancel(); job.Wait() }()

	// 120s of data closes at least one 60s window once the watermark
	// passes; poll for output.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		recs := sink.Records()
		var total int64
		for _, r := range recs {
			total += r.Long("trips")
			if r.String("city") == "" {
				t.Fatalf("group column missing in %v", r)
			}
			if _, ok := r["window_start"]; !ok {
				t.Fatalf("window bounds missing in %v", r)
			}
		}
		if total >= 60 { // first full window (both cities) closed
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("windowed SQL produced too little output: %v", sink.Records())
}

func TestStreamingSelectionSQL(t *testing.T) {
	cluster, codec := setupTopic(t, 40)
	sink := flow.NewCollectSink()
	job, plan, err := StreamJob("sel", "SELECT city AS c, fare FROM trips WHERE city = 'sf' AND fare > 5",
		cluster, codec, sink, StreamJobConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.OutputColumns) != 2 || plan.OutputColumns[0] != "c" {
		t.Errorf("output columns = %v", plan.OutputColumns)
	}
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { job.Cancel(); job.Wait() }()
	want := 0
	for _, r := range tripRows(40) {
		if r.String("city") == "sf" && r.Double("fare") > 5 {
			want++
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if sink.Len() >= want {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	recs := sink.Records()
	if len(recs) != want {
		t.Fatalf("selection rows = %d, want %d", len(recs), want)
	}
	for _, r := range recs {
		if r.String("c") != "sf" || r.Double("fare") <= 5 {
			t.Fatalf("bad row %v", r)
		}
		if _, leaked := r["city"]; leaked {
			t.Fatalf("projection leaked source column: %v", r)
		}
	}
}

func TestSQLBackfillMatchesStreaming(t *testing.T) {
	// §7: the same SQL runs over the archive; aggregate totals must match
	// what the streaming job would compute over the same data.
	store := objstore.NewMemStore()
	codec, _ := record.NewCodec(tripsSchema())
	w := objstore.NewRawLogWriter(store, "trips", codec)
	if err := w.Append(tripRows(240)); err != nil {
		t.Fatal(err)
	}
	if _, err := objstore.NewCompactor(store, "trips", codec).Compact(); err != nil {
		t.Fatal(err)
	}
	sink := flow.NewCollectSink()
	sql := `SELECT city, COUNT(*) AS trips, SUM(fare) AS revenue FROM trips GROUP BY city, TUMBLE(ts, 60000)`
	res, plan, err := BackfillJob("bf", sql, store, tripsSchema(), sink, backfill.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsRead != 240 {
		t.Errorf("rows read = %d", res.RowsRead)
	}
	if plan.Table != "trips" {
		t.Errorf("plan table = %s", plan.Table)
	}
	var total int64
	var revenue float64
	for _, r := range sink.Records() {
		total += r.Long("trips")
		revenue += r.Double("revenue")
	}
	if total != 240 {
		t.Errorf("backfill total = %d, want 240 (bounded input flushes all windows)", total)
	}
	var wantRevenue float64
	for _, r := range tripRows(240) {
		wantRevenue += r.Double("fare")
	}
	if revenue != wantRevenue {
		t.Errorf("revenue = %v, want %v", revenue, wantRevenue)
	}
}

func TestBackfillBoundary(t *testing.T) {
	store := objstore.NewMemStore()
	codec, _ := record.NewCodec(tripsSchema())
	w := objstore.NewRawLogWriter(store, "trips", codec)
	w.Append(tripRows(200))
	objstore.NewCompactor(store, "trips", codec).Compact()
	sink := flow.NewCollectSink()
	res, _, err := BackfillJob("bf", "SELECT city, COUNT(*) FROM trips GROUP BY city, TUMBLE(ts, 60000)",
		store, tripsSchema(), sink, backfill.Config{StartMs: base + 50_000, EndMs: base + 150_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsRead != 100 || res.RowsSkipped != 100 {
		t.Errorf("boundary read/skip = %d/%d", res.RowsRead, res.RowsSkipped)
	}
}

// TestEvalPredicate: one predicate, one verdict, whichever engine filters.
// Every WHERE clause runs over the same rows as a Compile'd filter stage
// and as fedsql's residual filter (the archive connector pushes nothing
// down) and must keep the rows the table names — sqlparse.Predicate.Matches's
// verdict, which fedsql calls and the compiled stage computes on typed cells.
func TestEvalPredicate(t *testing.T) {
	schema := &metadata.Schema{
		Name:    "vals",
		Version: 1,
		Fields: []metadata.Field{
			{Name: "id", Type: metadata.TypeLong},
			{Name: "n", Type: metadata.TypeLong},
			{Name: "f", Type: metadata.TypeDouble},
			{Name: "s", Type: metadata.TypeString},
			{Name: "b", Type: metadata.TypeBool},
			{Name: "o", Type: metadata.TypeString, Nullable: true},
		},
	}
	rows := []record.Record{
		{"id": int64(0), "n": int64(0), "f": 0.5, "s": "abc", "b": false, "o": "x"},
		{"id": int64(1), "n": int64(1), "f": 2.5, "s": "b", "b": true},
		{"id": int64(2), "n": int64(5), "f": 3.0, "s": "5", "b": true, "o": "y"},
		{"id": int64(3), "n": int64(-7), "f": 9.0, "s": "", "b": false},
	}
	cases := []struct {
		where string
		want  []int64
	}{
		{"s = 'abc'", []int64{0}},
		{"s != 'abc'", []int64{1, 2, 3}},
		{"s < 'b'", []int64{0, 2, 3}},
		{"n > 4", []int64{2}},
		{"n <= 0.5", []int64{0, 3}},
		{"n = 5", []int64{2}},
		{"n = '5'", []int64{2}},
		{"s = 5", []int64{2}},
		{"n = TRUE", []int64{1}}, // a bool literal is 1 or 0 against a number
		{"n != FALSE", []int64{1, 2, 3}},
		{"b = TRUE", []int64{1, 2}},
		{"b = 1", []int64{1, 2}},
		{"b < TRUE", []int64{0, 3}},
		{"f BETWEEN 2 AND 3", []int64{1, 2}},
		{"n BETWEEN -7 AND 0", []int64{0, 3}},
		{"f IN (2.5, 9)", []int64{1, 3}},
		{"n IN (9)", nil},
		{"o = 'x'", []int64{0}},
		{"o != 'x'", []int64{2}}, // NULL satisfies nothing, != included
		{"o IN ('x', 'y')", []int64{0, 2}},
		{"n >= 0 AND o != 'y'", []int64{0}},
	}

	store := objstore.NewMemStore()
	codec, err := record.NewCodec(schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := objstore.NewRawLogWriter(store, "vals", codec).Append(rows); err != nil {
		t.Fatal(err)
	}
	if _, err := objstore.NewCompactor(store, "vals", codec).Compact(); err != nil {
		t.Fatal(err)
	}
	hive := fedsql.NewArchiveConnector("hive", store)
	hive.AddTable("vals", schema)
	engine := fedsql.NewEngine()
	engine.Register(hive)

	for _, tc := range cases {
		stmt, err := sqlparse.Parse("SELECT id FROM vals WHERE " + tc.where)
		if err != nil {
			t.Fatalf("%s: %v", tc.where, err)
		}
		plan, err := Compile(stmt, 1)
		if err != nil {
			t.Fatalf("%s: %v", tc.where, err)
		}
		filter := plan.Stages[0].New()
		var streamed []int64
		for _, r := range rows {
			if err := filter.ProcessElement(rowEvent(t, schema, r), func(e flow.Event) {
				streamed = append(streamed, e.Row.Record().Long("id"))
			}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := engine.QueryCtx(context.Background(), "SELECT id FROM hive.vals WHERE "+tc.where)
		if err != nil {
			t.Fatalf("%s: %v", tc.where, err)
		}
		var queried []int64
		for _, row := range res.Rows {
			queried = append(queried, row[0].(int64))
		}
		slices.Sort(queried)
		if !slices.Equal(streamed, tc.want) || !slices.Equal(queried, tc.want) {
			t.Errorf("WHERE %s: flinksql keeps %v, fedsql keeps %v, want %v", tc.where, streamed, queried, tc.want)
		}
	}
}

// TestGroupByNullMeasuresAgree: one GROUP BY, one answer, whichever engine
// aggregates. Rows with NULL measures — a group with some, a group with
// nothing but — a double key holding both 0 and -0, a long key holding 2^53
// and 2^53+1 (one double) and a bool measure run through a bounded
// streaming window (BackfillJob), fedsql over the archive (engine-side
// aggregation), fedsql over an OLAP table (pushed down, over a sealed and a
// consuming segment) and the reference evaluator, and every answer must be
// the reference's: COUNT(*) counts rows, COUNT(fare) non-NULL fares, MIN,
// MAX and AVG over no fare are NULL, and a bool sums as 1 or 0. SUM over a
// string is refused on every path.
func TestGroupByNullMeasuresAgree(t *testing.T) {
	schema := &metadata.Schema{
		Name:    "trips",
		Version: 1,
		Fields: []metadata.Field{
			{Name: "city", Type: metadata.TypeString},
			{Name: "z", Type: metadata.TypeDouble},
			{Name: "fare", Type: metadata.TypeDouble, Nullable: true},
			{Name: "flag", Type: metadata.TypeBool, Nullable: true},
			{Name: "big", Type: metadata.TypeLong},
			{Name: "ts", Type: metadata.TypeTimestamp},
		},
		TimeField: "ts",
	}
	negZero := math.Copysign(0, -1)
	const two53 = int64(1) << 53
	var rows []record.Record
	for i, r := range []struct {
		city string
		z    float64
		fare any
		flag any
		big  int64
	}{
		{"sf", 0, nil, true, two53}, {"sf", negZero, 5.0, false, two53 + 1}, {"la", 0, nil, nil, 7},
		{"sf", 1.5, nil, true, two53 + 1}, {"nyc", negZero, 2.5, true, 7}, {"sf", 0, 7.0, nil, two53},
		{"la", 1.5, nil, true, two53 + 1},
	} {
		row := record.Record{"city": r.city, "z": r.z, "big": r.big, "ts": base + int64(i)}
		for name, v := range map[string]any{"fare": r.fare, "flag": r.flag} {
			if v != nil {
				row[name] = v
			}
		}
		rows = append(rows, row)
	}

	store := objstore.NewMemStore()
	codec, err := record.NewCodec(schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := objstore.NewRawLogWriter(store, "trips", codec).Append(rows); err != nil {
		t.Fatal(err)
	}
	if _, err := objstore.NewCompactor(store, "trips", codec).Compact(); err != nil {
		t.Fatal(err)
	}
	hive := fedsql.NewArchiveConnector("hive", store)
	hive.AddTable("trips", schema)
	d, err := olap.NewDeployment(olap.DeploymentConfig{
		Table:        olap.TableConfig{Name: "trips", Schema: schema, SegmentRows: 100},
		Servers:      []*olap.Server{olap.NewServer("s0")},
		SegmentStore: objstore.NewMemStore(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if i == len(rows)/2 {
			if err := d.Seal(0); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Ingest(0, r); err != nil {
			t.Fatal(err)
		}
	}
	pinot := fedsql.NewPinotConnector("pinot")
	pinot.AddTable(d)
	engine := fedsql.NewEngine()
	engine.Register(hive)
	engine.Register(pinot)
	table := reftest.NewTable(schema, false)
	for _, r := range rows {
		table.Put(r)
	}
	db := reftest.DB{"trips": table}

	// answer spells the rows' cells of cols — named by have — and sorts
	// them: a number by its double, so -0 is 0, COUNT's int64 3 is 3.0 and
	// 2^53+1 is 2^53, as every engine groups them; NULL apart; a text
	// quoted.
	answer := func(cols, have []string, rows [][]any) []string {
		var out []string
		for _, row := range rows {
			var key []byte
			for _, c := range cols {
				key = append(key, c+"="...)
				v := row[slices.Index(have, c)]
				switch f, num := record.ToFloat64(v); {
				case v == nil:
					key = append(key, "NULL"...)
				case num:
					key = strconv.AppendFloat(key, f+0, 'g', -1, 64) // +0: -0 is 0
				default:
					key = strconv.AppendQuote(key, fmt.Sprint(v))
				}
				key = append(key, ' ')
			}
			out = append(out, string(key))
		}
		slices.Sort(out)
		return out
	}
	const measures = "COUNT(*) AS n, COUNT(fare) AS fares, SUM(fare) AS total, MIN(fare) AS lo, MAX(fare) AS hi, AVG(fare) AS mean, SUM(flag) AS flags, AVG(flag) AS flagged"
	for _, key := range []string{"city", "z", "big"} {
		cols := []string{key, "n", "fares", "total", "lo", "hi", "mean", "flags", "flagged"}
		sql := "SELECT " + key + ", " + measures + " FROM %s GROUP BY " + key
		q, err := reftest.Parse(fmt.Sprintf(sql, "trips"))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := db.Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		want := answer(cols, ref.Columns, ref.Rows)

		sink := flow.NewCollectSink()
		if _, _, err := BackfillJob("nulls", fmt.Sprintf(sql, "trips")+", TUMBLE(ts, 60000)", store, schema, sink, backfill.Config{}); err != nil {
			t.Fatal(err)
		}
		var streamed [][]any
		for _, r := range sink.Records() {
			row := make([]any, len(cols))
			for i, c := range cols {
				row[i] = r[c]
			}
			streamed = append(streamed, row)
		}
		got := map[string][]string{"window": answer(cols, cols, streamed)}
		for _, catalog := range []string{"hive", "pinot"} {
			res, err := engine.QueryCtx(context.Background(), fmt.Sprintf(sql, catalog+".trips"))
			if err != nil {
				t.Fatalf("%s: %v", catalog, err)
			}
			got[catalog] = answer(cols, res.Columns, res.Rows)
		}
		for path, rows := range got {
			if !slices.Equal(rows, want) {
				t.Errorf("GROUP BY %s through %s:\n%q\nwant\n%q", key, path, rows, want)
			}
		}
	}

	// A string measure: every path refuses SUM over it.
	const text = "SELECT big, SUM(city) AS s FROM %s GROUP BY big"
	q, err := reftest.Parse(fmt.Sprintf(text, "trips"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Eval(q); err == nil {
		t.Error("reference: SUM over a string answered")
	}
	if _, _, err := BackfillJob("text", fmt.Sprintf(text, "trips")+", TUMBLE(ts, 60000)", store, schema, flow.NewCollectSink(), backfill.Config{}); err == nil {
		t.Error("window: SUM over a string answered")
	}
	for _, catalog := range []string{"hive", "pinot"} {
		if _, err := engine.QueryCtx(context.Background(), fmt.Sprintf(text, catalog+".trips")); err == nil {
			t.Errorf("%s: SUM over a string answered", catalog)
		}
	}
}

func TestCompileParallelismDefaults(t *testing.T) {
	stmt, _ := sqlparse.Parse(fmt.Sprintf("SELECT city, COUNT(*) FROM trips GROUP BY city, TUMBLE(ts, %d)", 1000))
	plan, err := Compile(stmt, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range plan.Stages {
		if st.Parallelism != 1 {
			t.Errorf("stage %s parallelism = %d", st.Name, st.Parallelism)
		}
	}
}

// GROUP BY keys each group injectively: no two groups share a key however
// their strings are spelled, and NULL is not the string "<nil>". A key that
// joined each value's %v with a separator merged both pairs below.
func TestGroupByKeysDoNotCollide(t *testing.T) {
	schema := &metadata.Schema{
		Name:    "pairs",
		Version: 1,
		Fields: []metadata.Field{
			{Name: "a", Type: metadata.TypeString},
			{Name: "b", Type: metadata.TypeString},
			{Name: "o", Type: metadata.TypeString, Nullable: true},
			{Name: "ts", Type: metadata.TypeTimestamp},
		},
		TimeField: "ts",
	}
	rows := []record.Record{
		{"a": "x\x1fy", "b": "z", "o": "<nil>", "ts": base},
		{"a": "x", "b": "y\x1fz", "ts": base + 1},
	}
	store := objstore.NewMemStore()
	codec, err := record.NewCodec(schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := objstore.NewRawLogWriter(store, "pairs", codec).Append(rows); err != nil {
		t.Fatal(err)
	}
	if _, err := objstore.NewCompactor(store, "pairs", codec).Compact(); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT a, b, COUNT(*) AS n FROM pairs GROUP BY a, b, TUMBLE(ts, 60000)",
		"SELECT o, COUNT(*) AS n FROM pairs GROUP BY o, TUMBLE(ts, 60000)",
	} {
		sink := flow.NewCollectSink()
		if _, _, err := BackfillJob("groups", sql, store, schema, sink, backfill.Config{}); err != nil {
			t.Fatal(err)
		}
		if got := sink.Records(); len(got) != 2 || got[0].Long("n") != 1 || got[1].Long("n") != 1 {
			t.Errorf("%s: %v, want two groups of one row", sql, got)
		}
	}
}

// A window keyed by GROUP BY on a long column survives a checkpoint. The key
// is binary and not valid UTF-8 (200 encodes to a 0xC8 byte), and after a
// restore each group still has one window, which new rows of the group keep
// counting into.
func TestGroupByWindowSurvivesRestore(t *testing.T) {
	stmt, err := sqlparse.Parse("SELECT restaurant_id, COUNT(*) AS n FROM orders GROUP BY restaurant_id, TUMBLE(ts, 60000)")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(stmt, 1)
	if err != nil {
		t.Fatal(err)
	}
	schema := ordersSchema("orders")
	keyby := plan.Stages[0].New()
	feed := func(window flow.Operator, from, to int) {
		for i := from; i < to; i++ {
			e := rowEvent(t, schema, record.Record{
				"order_id": fmt.Sprint(i), "restaurant_id": int64(200 + i%2), "city": "sf",
				"status": "placed", "amount": 1.0, "ts": base + int64(i),
			})
			e.Time = base + int64(i)
			if err := keyby.ProcessElement(e, func(k flow.Event) {
				if err := window.ProcessElement(k, func(flow.Event) {}); err != nil {
					t.Fatal(err)
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	window := plan.Stages[1].New()
	feed(window, 0, 10)
	snap, err := window.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := plan.Stages[1].New()
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	feed(restored, 10, 20)
	var got []string
	if err := restored.OnWatermark(base+120_000, func(e flow.Event) {
		got = append(got, fmt.Sprintf("%d:%d", e.Row.Record().Long("restaurant_id"), e.Row.Record().Long("n")))
	}); err != nil {
		t.Fatal(err)
	}
	slices.Sort(got)
	if want := []string{"200:10", "201:10"}; !slices.Equal(got, want) {
		t.Errorf("restored windows fired %v, want %v", got, want)
	}
}

// A projection of every input column in input order — renamed or not —
// emits the input row's own cells under the output schema; one that reorders
// or drops a column copies the cells it keeps into its own.
func TestIdentityProjectionSharesCells(t *testing.T) {
	for _, tc := range []struct {
		sql    string
		shared bool
	}{
		{"SELECT city, product, fare, ts FROM trips", true},
		{"SELECT city AS c, product, fare AS f, ts FROM trips", true},
		{"SELECT product, city, fare, ts FROM trips", false},
		{"SELECT city, fare FROM trips", false},
	} {
		stmt, err := sqlparse.Parse(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := Compile(stmt, 1)
		if err != nil {
			t.Fatal(err)
		}
		op := plan.Stages[len(plan.Stages)-1].New()
		in := rowEvent(t, tripsSchema(), tripRows(1)[0])
		var out flow.Event
		if err := op.ProcessElement(in, func(e flow.Event) { out = e }); err != nil {
			t.Fatal(err)
		}
		if len(out.Row.Vals) != len(plan.OutputColumns) {
			t.Fatalf("%s: emitted %d cells, want %d", tc.sql, len(out.Row.Vals), len(plan.OutputColumns))
		}
		for i, name := range plan.OutputColumns {
			if out.Row.Schema.Fields[i].Name != name {
				t.Errorf("%s: output column %d is %q, want %q", tc.sql, i, out.Row.Schema.Fields[i].Name, name)
			}
		}
		if shared := &out.Row.Vals[0] == &in.Row.Vals[0]; shared != tc.shared {
			t.Errorf("%s: output shares the input's cells = %v, want %v", tc.sql, shared, tc.shared)
		}
	}
}

// TestGroupLongKeepsExactLongs: a GROUP BY key spells a long a double holds
// exactly as itself — so window checkpoints restore and the keyed exchange
// routes such keys as before — and any other long as the integer its double
// rounds to, MaxInt64 for 2^63.
func TestGroupLongKeepsExactLongs(t *testing.T) {
	const two53 = int64(1) << 53
	for in, want := range map[int64]int64{
		0: 0, -1: -1, 42: 42, two53: two53, -two53: -two53, two53 + 2: two53 + 2, 1 << 62: 1 << 62, math.MinInt64: math.MinInt64,
		two53 + 1: two53, -two53 - 1: -two53, two53 + 3: two53 + 4, math.MaxInt64: math.MaxInt64, math.MaxInt64 - 1: math.MaxInt64,
	} {
		if got := groupLong(in); got != want {
			t.Errorf("groupLong(%d) = %d, want %d", in, got, want)
		}
	}
}

// A windowed query whose output would name one column twice does not
// compile: its rows are the window's, one cell per name.
func TestCompileRefusesDuplicateOutputNames(t *testing.T) {
	for _, sql := range []string{
		"SELECT city, COUNT(*) AS city FROM trips GROUP BY city, TUMBLE(ts, 60000)",
		"SELECT city, SUM(fare) AS window_start FROM trips GROUP BY city, TUMBLE(ts, 60000)",
		"SELECT city, COUNT(*) AS n, MAX(fare) AS n FROM trips GROUP BY city, TUMBLE(ts, 60000)",
	} {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		if _, err := Compile(stmt, 1); err == nil {
			t.Errorf("Compile(%q) should fail", sql)
		}
	}
}
