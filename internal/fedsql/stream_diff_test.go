package fedsql

// Randomized differential harness for the streaming execution path: every
// query shape runs through the Connector v3 batch-iterator surface, and each
// answer must be one internal/reftest's row-at-a-time reference evaluator
// accepts over the same tables: the same rows as a multiset and, under ORDER
// BY and LIMIT, the same sort keys. Amounts are quarter-valued so float
// aggregation is exact and order-independent.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/objstore"
	"repro/internal/olap"
	"repro/internal/record"
	"repro/internal/reftest"
)

func eventsSchema() *metadata.Schema {
	return &metadata.Schema{
		Name:    "events",
		Version: 1,
		Fields: []metadata.Field{
			{Name: "id", Type: metadata.TypeString},
			{Name: "city", Type: metadata.TypeString, Dimension: true},
			{Name: "status", Type: metadata.TypeString, Dimension: true, Nullable: true},
			{Name: "amount", Type: metadata.TypeDouble},
			{Name: "qty", Type: metadata.TypeLong},
			{Name: "rush", Type: metadata.TypeBool, Nullable: true},
			{Name: "ts", Type: metadata.TypeTimestamp},
		},
		TimeField: "ts",
	}
}

var eventCities = []string{"sf", "nyc", "la", "chi"}

// eventRows generates n random rows. Nullable columns are NULL with real
// probability, but row 0 carries every column so each column has at least
// one non-NULL value.
func eventRows(rng *rand.Rand, n int) []record.Record {
	rows := make([]record.Record, n)
	for i := range rows {
		r := record.Record{
			"id":     fmt.Sprintf("e%05d", i),
			"city":   eventCities[rng.Intn(len(eventCities))],
			"amount": float64(rng.Intn(400)) / 4, // exact quarters: order-independent sums
			"qty":    int64(rng.Intn(20)),
			"ts":     int64(1700000000000 + i*1000),
		}
		if i == 0 || rng.Float64() > 0.3 {
			r["status"] = []string{"ok", "late", "lost"}[rng.Intn(3)]
		}
		if i == 0 || rng.Float64() > 0.4 {
			r["rush"] = rng.Intn(2) == 0
		}
		rows[i] = r
	}
	return rows
}

// Extra archive tables for the join, grouping and multi-part shapes.
func notesSchema() *metadata.Schema {
	return &metadata.Schema{Name: "notes", Version: 1, Fields: []metadata.Field{
		{Name: "status", Type: metadata.TypeString, Nullable: true},
		{Name: "city", Type: metadata.TypeString, Nullable: true},
		{Name: "note", Type: metadata.TypeString},
	}}
}

func pipesSchema() *metadata.Schema {
	return &metadata.Schema{Name: "pipes", Version: 1, Fields: []metadata.Field{
		{Name: "a", Type: metadata.TypeString, Nullable: true},
		{Name: "b", Type: metadata.TypeString, Nullable: true},
		{Name: "v", Type: metadata.TypeLong},
	}}
}

func numsSchema() *metadata.Schema {
	return &metadata.Schema{Name: "nums", Version: 1, Fields: []metadata.Field{
		{Name: "n", Type: metadata.TypeLong, Nullable: true},
		{Name: "tag", Type: metadata.TypeString},
	}}
}

// notes joins events on status: duplicate and NULL keys on both sides, a
// key only the probe side has (lost), one only the build side has (gone),
// and a city column that clashes with the events' own.
var noteRows = []record.Record{
	{"status": "ok", "city": "x1", "note": "fine"},
	{"status": "ok", "city": "x2", "note": "again"},
	{"status": "late", "note": "slow"},
	{"city": "x3", "note": "no status"},
	{"status": "gone", "city": "x4", "note": "unmatched"},
}

// pipes is archived in three parts. Its string values contain the
// separators a concatenated group key would confuse: ('x|y','z') and
// ('x','y|z'), NULL and '<nil>', '~' and '|'.
var pipeParts = [][]record.Record{
	{{"a": "x|y", "b": "z", "v": int64(1)}, {"a": "x", "b": "y|z", "v": int64(2)}, {"b": "q", "v": int64(3)}},
	{{"a": "<nil>", "b": "q", "v": int64(4)}, {"a": "x|y", "b": "z", "v": int64(5)}, {"a": "~", "b": "|", "v": int64(6)}},
	{{"a": "x", "b": "y|z", "v": int64(7)}, {"b": "q", "v": int64(8)}, {"a": "n1", "b": "1", "v": int64(9)}},
}

// nums.n joins pipes.v (both numeric) but must never join pipes.b ('1').
var numRows = []record.Record{
	{"n": int64(1), "tag": "one"}, {"n": int64(9), "tag": "nine"}, {"tag": "none"}, {"n": int64(9), "tag": "nine again"},
}

// refTable is a table as the reference holds it. SELECT * lists its columns
// sorted, as the engine does.
func refTable(cols []string, rows []record.Record) *reftest.Table {
	return &reftest.Table{Cols: slices.Sorted(slices.Values(cols)), Rows: rows}
}

// checkRef fails unless res is an answer to sql the reference accepts over
// db, in value and in Go type.
func checkRef(t *testing.T, db reftest.DB, sql string, res *Result) {
	t.Helper()
	q, err := reftest.Parse(sql)
	var want *reftest.Result
	if err == nil {
		want, err = db.Eval(q)
	}
	if err == nil {
		err = want.Check(q, res.Columns, res.Rows)
	}
	if err == nil {
		err = want.CheckTypes(res.Rows)
	}
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
}

// archiveTable writes one archive part per element of parts and registers
// the table; it returns the reference copy of its contents.
func archiveTable(t *testing.T, hive *ArchiveConnector, store objstore.Store, schema *metadata.Schema, parts ...[]record.Record) *reftest.Table {
	t.Helper()
	codec, err := record.NewCodec(schema)
	if err != nil {
		t.Fatal(err)
	}
	w := objstore.NewRawLogWriter(store, schema.Name, codec)
	compactor := objstore.NewCompactor(store, schema.Name, codec)
	var rows []record.Record
	for _, part := range parts {
		if err := w.Append(part); err != nil {
			t.Fatal(err)
		}
		if _, err := compactor.Compact(); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, part...)
	}
	hive.AddTable(schema.Name, schema)
	return refTable(schema.FieldNames(), rows)
}

// evolvedTable archives two parts by hand: the first was written before the
// table's schema gained its "extra" column, so it stores no such column.
func evolvedTable(t *testing.T, hive *ArchiveConnector, store objstore.Store) *reftest.Table {
	t.Helper()
	old := &metadata.Schema{Name: "evolved", Version: 1, Fields: []metadata.Field{
		{Name: "k", Type: metadata.TypeString},
		{Name: "v", Type: metadata.TypeLong},
	}}
	cur := old.Clone()
	cur.Version = 2
	cur.Fields = append(cur.Fields, metadata.Field{Name: "extra", Type: metadata.TypeString, Nullable: true})
	parts := []struct {
		schema *metadata.Schema
		rows   []record.Record
	}{
		{old, []record.Record{{"k": "a", "v": int64(1)}, {"k": "b", "v": int64(2)}}},
		{cur, []record.Record{{"k": "a", "v": int64(3), "extra": "x"}, {"k": "c", "v": int64(4)}, {"k": "b", "v": int64(5), "extra": "y"}}},
	}
	var rows []record.Record
	for i, p := range parts {
		if err := store.Put(fmt.Sprintf("archive/evolved/%06d", i), columnarPart(t, p.schema, p.rows)); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, p.rows...)
	}
	hive.AddTable("evolved", cur)
	return refTable(cur.FieldNames(), rows)
}

// columnarPart encodes rows as one archive part: each schema field a typed
// column, NULL where a row lacks it.
func columnarPart(tb testing.TB, schema *metadata.Schema, rows []record.Record) []byte {
	tb.Helper()
	cols := make([]record.Vector, len(schema.Fields))
	for c, f := range schema.Fields {
		cols[c].Reset(f.Type)
		for _, r := range rows {
			cols[c].Append(r[f.Name])
		}
	}
	data, err := objstore.EncodeColumnar(schema, cols)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// buildDiffEngine returns an engine over the harness's tables — events in
// pinot, the rest archived in hive — and the reference evaluator's copy.
func buildDiffEngine(t *testing.T, rng *rand.Rand, n int, disablePushdown bool) (e *Engine, db reftest.DB, servers []*olap.Server) {
	t.Helper()
	servers = []*olap.Server{olap.NewServer("s0"), olap.NewServer("s1")}
	d, err := olap.NewDeployment(olap.DeploymentConfig{
		Table: olap.TableConfig{
			Name:        "events",
			Schema:      eventsSchema(),
			SegmentRows: 64,
		},
		Servers:      servers,
		SegmentStore: objstore.NewMemStore(),
		Backup:       olap.BackupP2P,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := refTable(eventsSchema().FieldNames(), eventRows(rng, n))
	for i, r := range events.Rows {
		if err := d.Ingest(i%2, r); err != nil {
			t.Fatal(err)
		}
	}
	pinot := NewPinotConnector("pinot")
	pinot.DisablePushdown = disablePushdown
	pinot.AddTable(d)

	store := objstore.NewMemStore()
	hive := NewArchiveConnector("hive", store)
	db = reftest.DB{
		"pinot.events": events,
		"hive.cities": archiveTable(t, hive, store, citiesSchema(), []record.Record{
			{"city": "sf", "region": "west"},
			{"city": "la", "region": "west"},
			{"city": "nyc", "region": "east"},
			{"city": "chi", "region": "central"},
		}),
		"hive.notes":   archiveTable(t, hive, store, notesSchema(), noteRows),
		"hive.pipes":   archiveTable(t, hive, store, pipesSchema(), pipeParts...),
		"hive.nums":    archiveTable(t, hive, store, numsSchema(), numRows),
		"hive.evolved": evolvedTable(t, hive, store),
	}

	e = NewEngine()
	e.Register(pinot)
	e.Register(hive)
	return e, db, servers
}

// diffQuery runs sql and fails unless the answer is one the reference
// accepts and the scan streamed when it should.
func diffQuery(t *testing.T, e *Engine, db reftest.DB, sql string, wantStreamed bool) {
	t.Helper()
	res, err := e.Query(sql)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	checkRef(t, db, sql, res)
	if wantStreamed && (!res.Stats.Streamed || res.Stats.BatchesStreamed == 0) {
		t.Fatalf("%q: the engine did not stream (streamed=%v batches=%d)",
			sql, res.Stats.Streamed, res.Stats.BatchesStreamed)
	}
}

func TestStreamDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dp := range []bool{false, true} {
		name := "pushdown"
		if dp {
			name = "scan-only"
		}
		t.Run(name, func(t *testing.T) {
			e, db, _ := buildDiffEngine(t, rng, 600, dp)
			const notesJoin = " FROM pinot.events o JOIN hive.notes s ON o.status = s.status"
			for trial := 0; trial < 4; trial++ {
				x := float64(rng.Intn(400)) / 4
				city := eventCities[rng.Intn(len(eventCities))]
				k := 5 + rng.Intn(40)
				// Selections and join probes stream on the v3 path in both
				// modes, the archive's always; pinot aggregates stream only
				// when pushdown is off (scan + engine-side agg), and an
				// archive aggregate is folded part by part inside the
				// connector, which answers it whole (materialized).
				shapes := []struct {
					sql          string
					wantStreamed bool
				}{
					{fmt.Sprintf("SELECT * FROM pinot.events WHERE amount > %v", x), true},
					{fmt.Sprintf("SELECT id, city, amount FROM pinot.events WHERE city = '%s' AND amount <= %v", city, x), true},
					{"SELECT id, status FROM pinot.events WHERE rush = true", true},
					{"SELECT id AS event, city AS town FROM pinot.events WHERE qty < 3", true},
					{fmt.Sprintf("SELECT id, amount FROM pinot.events ORDER BY id LIMIT %d", k), false},
					{"SELECT city, COUNT(*) AS n, SUM(amount) AS total FROM pinot.events GROUP BY city ORDER BY city", dp},
					{fmt.Sprintf("SELECT COUNT(*) AS n, AVG(amount) AS mean FROM pinot.events WHERE amount >= %v", x), dp},
					{"SELECT city, status, COUNT(*) AS n, AVG(amount) AS mean, MIN(qty) AS lo FROM pinot.events GROUP BY city, status", dp},
					{fmt.Sprintf("SELECT o.id, o.city, c.region FROM pinot.events o JOIN hive.cities c ON o.city = c.city WHERE o.amount > %v", x), true},
					// NULL and duplicate keys on both sides.
					{"SELECT o.id, s.note" + notesJoin, true},
					// Bare names clash: the probe side's column wins.
					{fmt.Sprintf("SELECT id, city, o.city, s.city, status, s.status, note"+notesJoin+" WHERE o.amount > %v AND s.note != 'slow'", x), true},
					{"SELECT *" + notesJoin + " WHERE qty > 10", true},
					{"SELECT s.status, COUNT(*) AS n, SUM(o.amount) AS total" + notesJoin + " GROUP BY s.status", true},
					// A number never joins a string that prints the same.
					{"SELECT x.tag, p.a FROM hive.nums x JOIN hive.pipes p ON x.n = p.b", true},
					{"SELECT x.tag, p.a, p.v FROM hive.nums x JOIN hive.pipes p ON x.n = p.v", true},
					// The build side matches nothing in the probe's first
					// part, one batch, and twice in its last.
					{"SELECT p.a, p.v, x.tag, x.nosuch FROM hive.pipes p JOIN hive.nums x ON p.v = x.n WHERE x.n > 5", true},
					// Subquery with an outer predicate and an outer aggregate.
					{"SELECT COUNT(*) AS groups, SUM(total) AS s, MAX(n) AS top FROM (SELECT city, status, COUNT(*) AS n, SUM(amount) AS total FROM pinot.events GROUP BY city, status) t WHERE n > 5", dp},
					{fmt.Sprintf("SELECT city, total FROM (SELECT city, SUM(amount) AS total FROM pinot.events WHERE amount > %v GROUP BY city) t WHERE total > 100 ORDER BY city", x), dp},
					// The multi-part archive; group values containing '|'.
					{"SELECT a, b, COUNT(*) AS n, SUM(v) AS s FROM hive.pipes GROUP BY a, b", false},
					{"SELECT * FROM hive.pipes WHERE v > 2", true},
					{"SELECT a, v FROM hive.pipes ORDER BY v LIMIT 4", true},
					// Projection. A bare name both join sides have, under an
					// aggregate; residual predicates on columns nobody selects,
					// on the archive side of a join and on a plain archive scan;
					// a statement that reads no column at all.
					{"SELECT city, COUNT(*) AS n, MIN(qty) AS lo" + notesJoin + " GROUP BY city", true},
					{"SELECT o.id, s.note" + notesJoin + " WHERE s.city != 'x1' AND rush = true", true},
					{"SELECT a FROM hive.pipes WHERE v > 2", true},
					{"SELECT COUNT(*) AS n FROM hive.pipes", false},
					{"SELECT COUNT(*) AS n" + notesJoin, true},
					// NULLs in a projected dictionary column.
					{"SELECT status, city FROM hive.notes", true},
					{"SELECT a, COUNT(*) AS n FROM hive.pipes GROUP BY a", false},
					// A part older than a schema column reads it as NULL.
					{"SELECT k, extra, v FROM hive.evolved", true},
					{"SELECT extra, COUNT(*) AS n, SUM(v) AS s FROM hive.evolved GROUP BY extra", false},
					{"SELECT * FROM hive.evolved WHERE v > 1", true},
					// Unordered LIMIT picks an arbitrary subset per arrival
					// order; only the reference can say whether each is a valid
					// one.
					{"SELECT id FROM pinot.events LIMIT 17", true},
					{"SELECT o.id, c.region FROM pinot.events o JOIN hive.cities c ON o.city = c.city LIMIT 5", true},
				}
				for _, s := range shapes {
					diffQuery(t, e, db, s.sql, s.wantStreamed)
				}
			}
		})
	}
}

// TestStreamDiffCancelMidQuery cancels engine queries mid-stream — a plain
// scan, and a join whose probe side is still streaming: the error must
// surface (no silent truncation) and every producer goroutine must be
// reaped.
func TestStreamDiffCancelMidQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	streaming, _, servers := buildDiffEngine(t, rng, 2000, false)
	for _, s := range servers {
		s.SetScanDelay(2 * time.Millisecond)
		defer s.SetScanDelay(0)
	}
	before := runtime.NumGoroutine()
	for _, sql := range []string{
		"SELECT * FROM pinot.events",
		"SELECT o.id, c.region FROM pinot.events o JOIN hive.cities c ON o.city = c.city",
	} {
		for i := 0; i < 10; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 8*time.Millisecond)
			_, err := streaming.QueryCtx(ctx, sql)
			cancel()
			if err == nil {
				t.Fatalf("%q: mid-stream deadline produced a clean result: truncation went unreported", sql)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("%q: mid-stream error = %v, want context.DeadlineExceeded", sql, err)
			}
		}
	}
	waitGoroutines(t, before)
}

// TestJoinCloseMidStreamNoLeak stops a join after five rows: closing the
// join operator must close its probe scan and reap the broker producers.
func TestJoinCloseMidStreamNoLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	streaming, _, _ := buildDiffEngine(t, rng, 2000, false)
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		res, err := streaming.Query("SELECT o.id, c.region FROM pinot.events o JOIN hive.cities c ON o.city = c.city LIMIT 5")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 5 {
			t.Fatalf("rows = %d, want 5", len(res.Rows))
		}
		if res.Stats.RowsReturned >= 2000 {
			t.Fatalf("join pulled %d rows for LIMIT 5: the probe scan was not stopped early", res.Stats.RowsReturned)
		}
	}
	waitGoroutines(t, before)
}

// TestArchiveIteratorCancelAndClose pulls one part of a three-part archive:
// the stats cover only that part, a cancelled context surfaces from Next,
// and a closed iterator is at end of stream.
func TestArchiveIteratorCancelAndClose(t *testing.T) {
	store := objstore.NewMemStore()
	hive := NewArchiveConnector("hive", store)
	archiveTable(t, hive, store, pipesSchema(), pipeParts...)
	ctx, cancel := context.WithCancel(context.Background())
	it, err := hive.OpenScan(ctx, "pipes", Pushdown{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	b, err := it.Next(ctx)
	if err != nil || b.Len != len(pipeParts[0]) {
		t.Fatalf("first pull = %v, %v; want the %d rows of part one", b, err, len(pipeParts[0]))
	}
	cancel()
	if _, err := it.Next(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("post-cancel Next = %v, want context.Canceled", err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := it.Next(context.Background()); err != io.EOF {
		t.Fatalf("Next after Close = %v, want io.EOF", err)
	}
	if st := it.Stats(); !st.Streamed || st.RowsReturned != int64(len(pipeParts[0])) || st.BatchesStreamed != 1 {
		t.Fatalf("stats after one part = %+v", st)
	}
}

// TestOpenScanCloseMidStreamNoLeak abandons connector-level iterators after
// one batch; Close alone must reap the broker producers.
func TestOpenScanCloseMidStreamNoLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	streaming, _, _ := buildDiffEngine(t, rng, 2000, false)
	conn, ok := streaming.connectors["pinot"].(StreamingConnector)
	if !ok {
		t.Fatal("pinot connector is not streaming")
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		it, err := conn.OpenScan(context.Background(), "events", Pushdown{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := it.Next(context.Background()); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		st := it.Stats()
		if !st.Streamed {
			t.Fatal("open-scan iterator did not report Streamed")
		}
	}
	waitGoroutines(t, before)
}

// TestOpenScanContextCancelSticky cancels the pull context mid-stream: Next
// must converge to context.Canceled and stay there.
func TestOpenScanContextCancelSticky(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	streaming, _, _ := buildDiffEngine(t, rng, 2000, false)
	conn := streaming.connectors["pinot"].(StreamingConnector)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	it, err := conn.OpenScan(ctx, "events", Pushdown{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := it.Next(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	for {
		_, err := it.Next(ctx)
		if err == nil {
			continue // batches in flight before the cancel may still arrive
		}
		if errors.Is(err, context.Canceled) {
			break
		}
		t.Fatalf("post-cancel Next = %v, want context.Canceled", err)
	}
	if _, err := it.Next(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("error is not sticky: %v", err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, before)
}

// waitGoroutines waits for the goroutine count to return to its baseline
// (within the runtime's background slack).
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}
