package lifecycle

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/objstore"
	"repro/internal/olap"
	"repro/internal/record"
)

// rowsOf boxes a response's rows.
func rowsOf(r *olap.QueryResponse) [][]any { return r.Batch.AppendRows(nil) }

func ordersSchema() *metadata.Schema {
	return &metadata.Schema{
		Name:    "orders",
		Version: 1,
		Fields: []metadata.Field{
			{Name: "order_id", Type: metadata.TypeString},
			{Name: "city", Type: metadata.TypeString, Dimension: true},
			{Name: "status", Type: metadata.TypeString, Dimension: true},
			{Name: "amount", Type: metadata.TypeDouble},
			{Name: "ts", Type: metadata.TypeTimestamp},
		},
		TimeField:  "ts",
		PrimaryKey: "order_id",
	}
}

const baseTs = int64(1700000000000)

func orderRow(i int) record.Record {
	cities := []string{"sf", "nyc", "la", "chi"}
	statuses := []string{"placed", "cooking", "delivered"}
	return record.Record{
		"order_id": fmt.Sprintf("o-%05d", i),
		"city":     cities[i%len(cities)],
		"status":   statuses[i%len(statuses)],
		"amount":   float64(i%50) + 0.5,
		"ts":       baseTs + int64(i)*1000,
	}
}

func newDeployment(t *testing.T, store objstore.Store, segmentRows int, upsert bool) (*olap.Deployment, []*olap.Server) {
	t.Helper()
	servers := []*olap.Server{olap.NewServer("s0"), olap.NewServer("s1")}
	if store == nil {
		store = objstore.NewMemStore()
	}
	d, err := olap.NewDeployment(olap.DeploymentConfig{
		Table: olap.TableConfig{
			Name:        "orders",
			Schema:      ordersSchema(),
			SegmentRows: segmentRows,
			Upsert:      upsert,
			Indexes:     olap.IndexConfig{InvertedColumns: []string{"city"}},
		},
		Servers:      servers,
		SegmentStore: store,
		Backup:       olap.BackupP2P,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, servers
}

// ingestN ingests rows [0, n) into one partition and waits for uploads.
func ingestN(t *testing.T, d *olap.Deployment, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := d.Ingest(0, orderRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	d.WaitUploads()
}

func countRows(t *testing.T, d *olap.Deployment, q *olap.Query) (int64, *olap.QueryResponse) {
	t.Helper()
	res, err := olap.NewBroker(d).Execute(context.Background(), &olap.QueryRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	return rowsOf(res)[0][0].(int64), res
}

func countQuery() *olap.Query {
	return &olap.Query{Aggs: []olap.AggSpec{{Kind: olap.AggCount}}}
}

// clockAt returns a Now() pinned so that a retention window measured back
// from it ends at the given time-column value (epoch ms).
func clockAt(ms int64) func() time.Time {
	return func() time.Time { return time.UnixMilli(ms) }
}

func TestRetentionExpiresOldSegments(t *testing.T) {
	d, _ := newDeployment(t, nil, 100, false)
	ingestN(t, d, 1000) // 10 sealed segments, 100k ms of time spread
	if err := d.Seal(0); err != nil {
		t.Fatal(err)
	}
	before := d.SegmentInfos()
	if len(before) != 10 {
		t.Fatalf("sealed segments = %d, want 10", len(before))
	}

	// Keep only segments overlapping the last ~300s of event time.
	maxTs := baseTs + 999*1000
	m := New(d, Config{
		Retention: 300 * time.Second,
		Now:       clockAt(maxTs),
	})
	stats := m.Sweep()
	if stats.Expired == 0 {
		t.Fatal("retention expired nothing")
	}
	cutoff := maxTs - (300 * time.Second).Milliseconds()
	wantRows := int64(0)
	wantSegs := 0
	for _, info := range before {
		if info.MaxTime >= cutoff {
			wantRows += int64(info.NumRows)
			wantSegs++
		}
	}
	after := d.SegmentInfos()
	if len(after) != wantSegs {
		t.Errorf("segments after retention = %d, want %d", len(after), wantSegs)
	}
	if got, _ := countRows(t, d, countQuery()); got != wantRows {
		t.Errorf("rows after retention = %d, want %d", got, wantRows)
	}
	// Expired segments free serving memory once the retire grace passes.
	m2 := New(d, Config{RetireGrace: time.Nanosecond})
	time.Sleep(time.Millisecond)
	m2.Sweep()
	if n := len(d.SegmentInfos()); n != wantSegs {
		t.Errorf("segments after purge = %d, want %d", n, wantSegs)
	}
}

// Retention must refuse to act on tables without a time column: their
// segments have no time bounds (zero), and a naive cutoff comparison
// would expire every segment.
func TestRetentionIgnoresTimelessTables(t *testing.T) {
	schema := ordersSchema()
	schema.TimeField = ""
	servers := []*olap.Server{olap.NewServer("s0")}
	d, err := olap.NewDeployment(olap.DeploymentConfig{
		Table:        olap.TableConfig{Name: "orders", Schema: schema, SegmentRows: 50},
		Servers:      servers,
		SegmentStore: objstore.NewMemStore(),
		Backup:       olap.BackupP2P,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 250; i++ {
		if err := d.Ingest(0, orderRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	d.WaitUploads()
	m := New(d, Config{Retention: time.Hour})
	stats := m.Sweep()
	if stats.Expired != 0 {
		t.Fatalf("retention expired %d segments of a timeless table", stats.Expired)
	}
	if got, _ := countRows(t, d, countQuery()); got != 250 {
		t.Errorf("rows = %d, want 250", got)
	}
}

func TestOffloadedSegmentsAnswerExactly(t *testing.T) {
	d, servers := newDeployment(t, nil, 100, false)
	ingestN(t, d, 1000)
	if err := d.Seal(0); err != nil {
		t.Fatal(err)
	}
	q := &olap.Query{
		GroupBy: []string{"city"},
		Aggs: []olap.AggSpec{
			{Kind: olap.AggSum, Column: "amount"},
			{Kind: olap.AggCount},
			{Kind: olap.AggDistinctCount, Column: "status"},
		},
	}
	baseline, err := olap.NewBroker(d).Execute(context.Background(), &olap.QueryRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	hotBytes := d.ResidentBytes()

	m := New(d, Config{MaxHotSegments: 2})
	stats := m.Sweep()
	if stats.Offloaded == 0 {
		t.Fatal("tiering offloaded nothing")
	}
	resident := 0
	for _, info := range d.SegmentInfos() {
		if info.Resident > 0 {
			resident++
		}
	}
	if resident > 2 {
		t.Errorf("resident segments = %d, want <= 2", resident)
	}
	if cold := d.ResidentBytes(); cold >= hotBytes {
		t.Errorf("resident bytes %d did not drop from %d", cold, hotBytes)
	}

	// Queries over offloaded segments reload transparently and match the
	// all-hot baseline exactly.
	got, err := olap.NewBroker(d).Execute(context.Background(), &olap.QueryRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rowsOf(got), rowsOf(baseline)) {
		t.Errorf("offloaded query differs:\n got %v\nwant %v", rowsOf(got), rowsOf(baseline))
	}
	if got.Stats.SegmentsReloaded == 0 {
		t.Error("query over cold segments reported no reloads")
	}
	if servers[0].Reloads()+servers[1].Reloads() == 0 {
		t.Error("servers recorded no reloads")
	}
	// The reloads re-entered the hot set; another sweep re-bounds it.
	m.Sweep()
	resident = 0
	for _, info := range d.SegmentInfos() {
		if info.Resident > 0 {
			resident++
		}
	}
	if resident > 2 {
		t.Errorf("resident segments after re-sweep = %d, want <= 2", resident)
	}
}

func TestOffloadGracefulWhenStoreDown(t *testing.T) {
	fault := objstore.NewFaultStore(objstore.NewMemStore())
	d, _ := newDeployment(t, fault, 100, false)
	ingestN(t, d, 500)
	if err := d.Seal(0); err != nil {
		t.Fatal(err)
	}
	d.WaitUploads()

	// Outage while everything is hot: nothing is offloaded (never drop
	// data without a durable copy), queries keep working.
	fault.SetDown(true)
	m := New(d, Config{MaxHotSegments: 1})
	stats := m.Sweep()
	if stats.Offloaded != 0 {
		t.Fatalf("offloaded %d segments during store outage", stats.Offloaded)
	}
	if stats.Errors == 0 || stats.LastErr == nil {
		t.Error("outage not surfaced in lifecycle stats")
	}
	if got, _ := countRows(t, d, countQuery()); got != 500 {
		t.Errorf("rows during outage = %d", got)
	}

	// Store recovers: tiering proceeds.
	fault.SetDown(false)
	if stats = m.Sweep(); stats.Offloaded == 0 {
		t.Fatal("tiering still stuck after store recovery")
	}

	// Outage with cold segments: queries needing a reload fail with
	// ErrSegmentUnavailable, but a query whose time filter keeps only the
	// hot/pruned set still succeeds — pruning skips cold segments before any
	// deep-store fetch.
	fault.SetDown(true)
	if _, err := olap.NewBroker(d).Execute(context.Background(), &olap.QueryRequest{Query: countQuery()}); !errors.Is(err, olap.ErrSegmentUnavailable) {
		t.Errorf("cold query during outage = %v, want ErrSegmentUnavailable", err)
	}
	infos := d.SegmentInfos()
	var hot *olap.SegmentInfo
	for i := range infos {
		if infos[i].Resident > 0 {
			hot = &infos[i]
			break
		}
	}
	if hot == nil {
		t.Fatal("no hot segment left")
	}
	q := countQuery()
	q.Filters = []olap.Filter{{Column: "ts", Op: olap.OpBetween, Value: hot.MinTime, Value2: hot.MaxTime}}
	res, err := olap.NewBroker(d).Execute(context.Background(), &olap.QueryRequest{Query: q})
	if err != nil {
		t.Fatalf("hot-window query during outage: %v", err)
	}
	if res.Stats.SegmentsPruned == 0 {
		t.Error("hot-window query pruned nothing")
	}
	if got := rowsOf(res)[0][0].(int64); got != int64(hot.NumRows) {
		t.Errorf("hot-window rows = %d, want %d", got, hot.NumRows)
	}
}

// A time filter prunes the segments outside it and answers exactly what the
// filter keeps of the ingested rows.
func TestTimePruningMatchesExplicitFilter(t *testing.T) {
	d, _ := newDeployment(t, nil, 100, false)
	ingestN(t, d, 1000)
	if err := d.Seal(0); err != nil {
		t.Fatal(err)
	}
	from, to := baseTs+200*1000, baseTs+350*1000
	q := &olap.Query{
		Filters: []olap.Filter{{Column: "ts", Op: olap.OpBetween, Value: from, Value2: to}},
		GroupBy: []string{"city"},
		Aggs:    []olap.AggSpec{{Kind: olap.AggSum, Column: "amount"}, {Kind: olap.AggCount}},
	}
	got, err := olap.NewBroker(d).Execute(context.Background(), &olap.QueryRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	sums, counts := map[string]float64{}, map[string]int64{}
	for i := 0; i < 1000; i++ {
		if r := orderRow(i); r.Long("ts") >= from && r.Long("ts") <= to {
			sums[r.String("city")] += r.Double("amount")
			counts[r.String("city")]++
		}
	}
	if got.Batch.Len != len(counts) {
		t.Fatalf("%d groups, want %d: %v", got.Batch.Len, len(counts), rowsOf(got))
	}
	for _, row := range rowsOf(got) {
		if city := row[0].(string); row[1] != sums[city] || row[2] != counts[city] {
			t.Errorf("group %v, want sum %v count %d", row, sums[city], counts[city])
		}
	}
	// 150s window over 1000s of data in 10 segments: at least half the
	// segments must be pruned, and the pruned ones are never scanned.
	if got.Stats.SegmentsPruned < 5 {
		t.Errorf("pruned = %d segments, want >= 5", got.Stats.SegmentsPruned)
	}
	if got.Stats.SegmentsScanned+got.Stats.SegmentsPruned != 10 {
		t.Errorf("scanned(%d) + pruned(%d) != 10", got.Stats.SegmentsScanned, got.Stats.SegmentsPruned)
	}
}

func TestCompactionMergesRuntSegments(t *testing.T) {
	d, _ := newDeployment(t, nil, 1000, false)
	// Force-seal 8 runt segments of 25 rows each.
	for i := 0; i < 200; i++ {
		if err := d.Ingest(0, orderRow(i)); err != nil {
			t.Fatal(err)
		}
		if (i+1)%25 == 0 {
			if err := d.Seal(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	d.WaitUploads()
	if n := len(d.SegmentInfos()); n != 8 {
		t.Fatalf("runt segments = %d, want 8", n)
	}
	q := &olap.Query{GroupBy: []string{"city"}, Aggs: []olap.AggSpec{{Kind: olap.AggSum, Column: "amount"}, {Kind: olap.AggCount}}}
	before, err := olap.NewBroker(d).Execute(context.Background(), &olap.QueryRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}

	m := New(d, Config{CompactAfter: 4, RetireGrace: time.Nanosecond})
	stats := m.Sweep()
	if stats.Compactions == 0 {
		t.Fatal("no compaction ran")
	}
	infos := d.SegmentInfos()
	if len(infos) >= 8 {
		t.Errorf("segments after compaction = %d, want < 8", len(infos))
	}
	var total int
	for _, info := range infos {
		total += info.NumRows
	}
	if total != 200 {
		t.Errorf("rows across segments = %d, want 200", total)
	}
	after, err := olap.NewBroker(d).Execute(context.Background(), &olap.QueryRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rowsOf(before), rowsOf(after)) {
		t.Errorf("compaction changed results:\n got %v\nwant %v", rowsOf(after), rowsOf(before))
	}
}

func TestCompactionUnderUpsert(t *testing.T) {
	const keys = 40
	d, _ := newDeployment(t, nil, 1000, true)
	upsertRow := func(i int) record.Record {
		r := orderRow(i)
		r["order_id"] = fmt.Sprintf("k-%03d", i%keys)
		return r
	}
	for i := 0; i < 200; i++ {
		if err := d.Ingest(0, upsertRow(i)); err != nil {
			t.Fatal(err)
		}
		if (i+1)%25 == 0 {
			if err := d.Seal(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	d.WaitUploads()

	m := New(d, Config{CompactAfter: 2, RetireGrace: time.Nanosecond})
	stats := m.Sweep()
	if stats.Compactions == 0 {
		t.Fatal("no compaction ran")
	}
	if got, _ := countRows(t, d, countQuery()); got != keys {
		t.Errorf("live rows after compaction = %d, want %d", got, keys)
	}

	// Updates after the merge supersede merged rows exactly.
	for i := 0; i < keys; i++ {
		if err := d.Ingest(0, upsertRow(i+1000)); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := countRows(t, d, countQuery()); got != keys {
		t.Errorf("live rows after post-merge updates = %d, want %d", got, keys)
	}
	sum, err := olap.NewBroker(d).Execute(context.Background(), &olap.QueryRequest{Query: &olap.Query{Aggs: []olap.AggSpec{{Kind: olap.AggSum, Column: "amount"}}}})
	if err != nil {
		t.Fatal(err)
	}
	wantSum := 0.0
	for i := 0; i < keys; i++ {
		wantSum += float64((i+1000)%50) + 0.5
	}
	if got := rowsOf(sum)[0][0].(float64); got != wantSum {
		t.Errorf("sum after updates = %v, want %v", got, wantSum)
	}
}

// TestCompactionConcurrentWithUpserts races continuing upserts against
// repeated compaction sweeps; with -race this exercises the swap-time
// revalidation path.
func TestCompactionConcurrentWithUpserts(t *testing.T) {
	const keys = 25
	d, _ := newDeployment(t, nil, 20, true)
	upsertRow := func(i int) record.Record {
		r := orderRow(i)
		r["order_id"] = fmt.Sprintf("k-%03d", i%keys)
		return r
	}
	m := New(d, Config{CompactAfter: 2, CompactMaxRows: 10_000, RetireGrace: time.Nanosecond})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			if err := d.Ingest(0, upsertRow(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	b := olap.NewBroker(d)
	for {
		m.Sweep()
		if _, err := b.Execute(context.Background(), &olap.QueryRequest{Query: countQuery()}); err != nil {
			t.Error(err)
		}
		select {
		case <-done:
			if got, _ := countRows(t, d, countQuery()); got != keys {
				t.Fatalf("live rows after concurrent compaction = %d, want %d", got, keys)
			}
			return
		default:
		}
	}
}

func TestBackgroundLoopBoundsHotSet(t *testing.T) {
	d, _ := newDeployment(t, nil, 50, false)
	m := New(d, Config{MaxHotSegments: 3, Interval: time.Millisecond})
	m.Start()
	defer m.Stop()
	for i := 0; i < 1500; i++ {
		if err := d.Ingest(0, orderRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	d.WaitUploads()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		resident := 0
		for _, info := range d.SegmentInfos() {
			if info.Resident > 0 {
				resident++
			}
		}
		if resident <= 3 {
			if got, _ := countRows(t, d, countQuery()); got != 1500 {
				t.Fatalf("rows with lifecycle = %d, want 1500", got)
			}
			m.Stop() // idempotent
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("background loop never bounded the hot set")
}
