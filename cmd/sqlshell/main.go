// Command sqlshell is an interactive federated SQL shell over a demo
// deployment: a Pinot table (pinot.orders) fed with synthetic order events
// and its archived twin (hive.orders). It demonstrates the §4.5 experience:
// one PrestoSQL dialect over fresh and historical data.
//
// Usage: echo "SELECT city, COUNT(*) FROM pinot.orders GROUP BY city" | sqlshell
// or run interactively and type queries terminated by newline; \q quits.
// -timeout bounds each query (0 = none); a timed-out query cancels its
// scatter-gather fan-out mid-flight via the engine's context path.
//
// Prefix any SELECT with EXPLAIN to see the pushdown, routing, top-K trim,
// materialized-view and result-cache decisions instead of the rows (the
// query executes and the real per-scan stats are reported). Prefix with
// EXPLAIN ANALYZE to additionally print the recorded span tree — every stage
// from the federated scan through the broker scatter down to each segment
// scan, with per-span durations and row counts. The demo Pinot brokers run
// with a result cache, so repeating an EXPLAIN flips its plan line from
// cache=miss to cache=hit:
//
//	sql> EXPLAIN SELECT order_id, SUM(amount) AS rev FROM pinot.orders GROUP BY order_id ORDER BY rev DESC LIMIT 10
//	plan:
//	  scan pinot.orders [aggregate-scan] pushdown=aggs+limit exec=materialized route=partition servers_contacted=3 cache=hit trim=server k=1000 groups_trimmed=17000 rows_moved=10 time=18µs
//	stats: rows_moved=10 fallbacks=0 segments_scanned=8 segments_cached=0 rows_scanned=20000 servers_contacted=3 partitions_pruned=0 segments_time_pruned=0 groups_trimmed=17000 rows_heap_kept=0 cache_hit=1 coalesced=0 cache_bytes=1024 shed=0 view_hit=0 view_staleness_ms=0 batches_streamed=1 peak_engine_bytes=390
//
// A result-cache miss can still skip most of the scan: the cache also
// keeps each sealed segment's partial, keyed by the filters as compiled
// against that segment's dictionary, so a query whose literal selects the
// same rows of a segment reads its partial (segments_cached) and scans only
// the segments the literal cuts differently, and the consuming ones. After
// the same query with amount > 40:
//
//	sql> EXPLAIN SELECT city, COUNT(*) AS n FROM pinot.orders WHERE amount > 41 GROUP BY city
//	plan:
//	  scan pinot.orders [aggregate-scan] pushdown=filters+aggs exec=materialized route=partition servers_contacted=3 cache=miss segments_cached=6 rows_moved=4 time=170µs
//	stats: rows_moved=4 fallbacks=0 segments_scanned=2 segments_cached=6 rows_scanned=2250 servers_contacted=3 partitions_pruned=0 segments_time_pruned=0 groups_trimmed=0 rows_heap_kept=0 cache_hit=0 coalesced=0 cache_bytes=3534 shed=0 view_hit=0 view_staleness_ms=0 batches_streamed=1 peak_engine_bytes=96
//
// Every plan line carries an exec= token: row scans stream across the
// connector boundary as column-major batches — the broker's stream from
// pinot, one archive part per pull from hive — so a selection shows
// exec=streaming with the number of batches pulled, and the stats line
// reports the peak engine-resident bytes — one in-flight batch, not the
// whole result:
//
//	sql> EXPLAIN SELECT order_id, city, amount FROM pinot.orders WHERE city = 'sf' AND amount > 40 LIMIT 5
//	plan:
//	  scan pinot.orders [row-scan] pushdown=filters+limit exec=streaming batches=1 route=partition servers_contacted=1 partitions_pruned=2 rows_moved=5 time=421µs
//	stats: rows_moved=5 fallbacks=0 segments_scanned=2 segments_cached=0 rows_scanned=2500 servers_contacted=1 partitions_pruned=2 segments_time_pruned=0 groups_trimmed=0 rows_heap_kept=0 cache_hit=0 coalesced=0 cache_bytes=0 shed=0 view_hit=0 view_staleness_ms=0 batches_streamed=1 peak_engine_bytes=285
//
// The demo also registers the city-revenue dashboard shape as a
// materialized view, maintained incrementally from the table's mutation
// feed. Unlike a cache entry — which any ingest invalidates — the view
// keeps serving at hit latency under writes; its plan line shows view=hit
// with no scan at all, even right after new rows land:
//
//	sql> EXPLAIN SELECT city, SUM(amount) AS revenue FROM pinot.orders GROUP BY city
//	plan:
//	  scan pinot.orders [aggregate-scan] pushdown=aggs exec=materialized view=hit rows_moved=4 time=18µs
//	stats: rows_moved=4 fallbacks=0 segments_scanned=0 segments_cached=0 rows_scanned=0 servers_contacted=0 partitions_pruned=0 segments_time_pruned=0 groups_trimmed=0 rows_heap_kept=0 cache_hit=0 coalesced=0 cache_bytes=1024 shed=0 view_hit=1 view_staleness_ms=0 batches_streamed=1 peak_engine_bytes=138
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fedsql"
	"repro/internal/metadata"
	"repro/internal/objstore"
	"repro/internal/obs"
	"repro/internal/olap"
	"repro/internal/olap/matview"
	"repro/internal/record"
	"repro/internal/sqlparse"
)

func main() {
	timeout := flag.Duration("timeout", 0, "per-query deadline (e.g. 500ms, 2s); 0 disables")
	flag.Parse()
	engine, deployment, err := buildDemo()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sqlshell:", err)
		os.Exit(1)
	}
	fmt.Println("catalogs:", strings.Join(engine.Catalogs(), ", "),
		"— tables: pinot.orders (fresh), hive.orders (archive). EXPLAIN <select> shows decisions. \\scale joins servers, \\cluster shows placement, \\q quits.")
	scanner := bufio.NewScanner(os.Stdin)
	fmt.Print("sql> ")
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "":
		case line == `\q`, line == "exit", line == "quit":
			return
		case line == `\cluster`:
			printCluster(deployment)
		case line == `\scale`:
			scaleDemo(engine, deployment, *timeout)
		case len(line) > 8 && strings.EqualFold(line[:8], "EXPLAIN "):
			rest := strings.TrimSpace(line[8:])
			analyze := len(rest) > 8 && strings.EqualFold(rest[:8], "ANALYZE ")
			if analyze {
				rest = strings.TrimSpace(rest[8:])
			}
			res, err := runQuery(engine, rest, *timeout)
			if err != nil {
				fmt.Println("error:", err)
			} else {
				printExplain(res)
				if analyze {
					printTrace(res)
				}
			}
		default:
			res, err := runQuery(engine, line, *timeout)
			if err != nil {
				fmt.Println("error:", err)
			} else {
				printResult(res)
			}
		}
		fmt.Print("sql> ")
	}
}

// runQuery executes one statement under the configured deadline, threading
// the context through Engine.QueryCtx so OLAP segment scans and federated
// join sides stop when time runs out.
func runQuery(engine *fedsql.Engine, sql string, timeout time.Duration) (*fedsql.Result, error) {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return engine.QueryCtx(ctx, sql)
}

func printResult(res *fedsql.Result) {
	for _, c := range res.Columns {
		fmt.Printf("%-18s", c)
	}
	fmt.Println()
	for _, row := range res.Rows {
		for _, v := range row {
			fmt.Printf("%-18v", v)
		}
		fmt.Println()
	}
	fmt.Printf("(%d rows)\n", len(res.Rows))
}

// printExplain renders the per-scan pushdown/routing decisions and the
// unified stats the query actually produced.
func printExplain(res *fedsql.Result) {
	fmt.Println("plan:")
	for _, line := range res.Plan {
		fmt.Println("  " + line)
	}
	st := res.Stats
	fmt.Printf("stats: rows_moved=%d fallbacks=%d segments_scanned=%d segments_cached=%d rows_scanned=%d servers_contacted=%d partitions_pruned=%d segments_time_pruned=%d groups_trimmed=%d rows_heap_kept=%d cache_hit=%d coalesced=%d cache_bytes=%d shed=%d view_hit=%d view_staleness_ms=%d batches_streamed=%d peak_engine_bytes=%d\n",
		st.RowsReturned, st.PushdownFallbacks, st.Exec.SegmentsScanned, st.Exec.SegmentsCached, st.Exec.RowsScanned,
		st.Exec.ServersContacted, st.Exec.PartitionsPruned, st.Exec.SegmentsPruned,
		st.Exec.GroupsTrimmed, st.Exec.RowsHeapKept,
		st.Exec.CacheHit, st.Exec.Coalesced, st.Exec.CacheMemBytes, st.Exec.Shed,
		st.Exec.ViewHit, st.Exec.ViewStalenessMs, st.BatchesStreamed, st.PeakEngineBytes)
	fmt.Printf("(%d rows)\n", len(res.Rows))
}

// printTrace renders the span tree a traced query recorded: every stage from
// the federated scan through the broker scatter down to each segment scan,
// with wall durations and row counts.
func printTrace(res *fedsql.Result) {
	if res.Trace == nil {
		fmt.Println("trace: (tracer not configured)")
		return
	}
	fmt.Println("trace:")
	for _, line := range strings.Split(strings.TrimRight(res.Trace.Render(), "\n"), "\n") {
		fmt.Println("  " + line)
	}
}

// printCluster renders the membership and replica-slot placement: which
// servers are active, how many segment replicas each holds, and how many
// segments are offloaded to the deep store.
func printCluster(d *olap.Deployment) {
	counts := make(map[int]int)
	offloaded := 0
	infos := d.SegmentInfos()
	for _, info := range infos {
		for _, ri := range info.Replicas {
			counts[ri]++
		}
		if info.Resident == 0 {
			offloaded++
		}
	}
	fmt.Printf("cluster: %d servers, %d sealed segments (%d offloaded)\n", d.NumServers(), len(infos), offloaded)
	for i := 0; i < d.NumServers(); i++ {
		state := "active"
		if d.Decommissioned(i) {
			state = "decommissioned"
		}
		fmt.Printf("  server %d: %-14s %d replica slots\n", i, state, counts[i])
	}
}

// scaleDemo is the elasticity walkthrough: join two servers and rebalance
// while a dashboard workload keeps querying — sticky planning moves only the
// balanced share of segment replicas, and no query ever errors or sees a
// segment twice.
func scaleDemo(engine *fedsql.Engine, d *olap.Deployment, timeout time.Duration) {
	before := d.NumServers()
	fmt.Printf("scaling pinot.orders %d -> %d servers with a live dashboard workload...\n", before, before+2)

	stop := make(chan struct{})
	var queries, errs atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := runQuery(engine, "SELECT city, SUM(amount) AS revenue, COUNT(*) FROM pinot.orders GROUP BY city", timeout); err != nil {
					errs.Add(1)
				} else {
					queries.Add(1)
				}
			}
		}()
	}

	// Let the dashboard ramp so queries genuinely overlap the moves.
	for queries.Load() == 0 && errs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	var applied, metaMoves int
	var bytesCopied int64
	var slots int
	for i := 0; i < 2; i++ {
		idx := d.AddServer(olap.NewServer(fmt.Sprintf("s%d", before+i)))
		rep, err := d.Rebalance(context.Background())
		if err != nil {
			fmt.Println("rebalance error:", err)
			break
		}
		applied += rep.Applied
		metaMoves += rep.MetadataMoves
		bytesCopied += rep.BytesCopied
		slots = rep.Slots
		fmt.Printf("  joined server %d: moved %d of %d replica slots (%.0f%%), %s copied, %d metadata-only\n",
			idx, rep.Applied, rep.Slots, 100*float64(rep.Applied)/float64(rep.Slots),
			fmtBytes(rep.BytesCopied), rep.MetadataMoves)
	}
	elapsed := time.Since(start)
	// Keep the workload flying a beat past the last move before stopping.
	tail := queries.Load() + 4
	for queries.Load() < tail && errs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	fmt.Printf("scale-out done in %v: %d slots moved of %d total, %s copied (%d metadata-only)\n",
		elapsed.Round(time.Microsecond), applied, slots, fmtBytes(bytesCopied), metaMoves)
	fmt.Printf("dashboard workload during rebalance: %d queries, %d errors\n", queries.Load(), errs.Load())
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

func demoSchema() *metadata.Schema {
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
		TimeField: "ts",
	}
}

func demoRows(n int) []record.Record {
	cities := []string{"sf", "nyc", "la", "chi"}
	statuses := []string{"placed", "cooking", "delivered"}
	rows := make([]record.Record, n)
	for i := range rows {
		rows[i] = record.Record{
			"order_id": fmt.Sprintf("o%06d", i),
			"city":     cities[i%4],
			"status":   statuses[i%3],
			"amount":   float64(i%80) + 0.99,
			"ts":       int64(1700000000000 + i*1000),
		}
	}
	return rows
}

// buildDemo wires the demo deployment: the Pinot table declares its
// partition function (city-hash over 4 partitions) and the connector routes
// with partition awareness, so EXPLAIN on a city-filtered query shows
// servers being skipped entirely.
func buildDemo() (*fedsql.Engine, *olap.Deployment, error) {
	const partitions = 4
	schema := demoSchema()
	rows := demoRows(20_000)
	servers := make([]*olap.Server, partitions)
	for i := range servers {
		servers[i] = olap.NewServer(fmt.Sprintf("s%d", i))
	}
	d, err := olap.NewDeployment(olap.DeploymentConfig{
		Table: olap.TableConfig{
			Name: "orders", Schema: schema, SegmentRows: 2500,
			Indexes:         olap.IndexConfig{InvertedColumns: []string{"city", "status"}},
			Replicas:        2,
			PartitionColumn: "city",
			Partitions:      partitions,
		},
		Servers:      servers,
		SegmentStore: objstore.NewMemStore(),
		Backup:       olap.BackupP2P,
	})
	if err != nil {
		return nil, nil, err
	}
	for _, r := range rows {
		if err := d.Ingest(olap.PartitionFor(r["city"], partitions), r); err != nil {
			return nil, nil, err
		}
	}
	pinot := fedsql.NewPinotConnector("pinot")
	pinot.Router = &olap.PartitionRouter{}
	// Dashboard traffic repeats the same handful of queries: give the demo
	// broker a result cache so a repeated EXPLAIN shows cache=hit, and a
	// materialized-view registry so the standing dashboard shape below
	// shows view=hit even while rows are being ingested.
	pinot.CacheMaxBytes = 8 << 20
	pinot.EnableViews = &matview.Config{MaxStaleness: 5 * time.Second}
	pinot.AddTable(d)
	// The city-revenue dashboard shape, maintained incrementally: EXPLAIN
	// "SELECT city, SUM(amount) AS revenue FROM pinot.orders GROUP BY city"
	// shows view=hit with zero segments scanned.
	if err := pinot.RegisterView(context.Background(), "orders", fedsql.AggregateQuery{
		GroupBy: []string{"city"},
		Aggs:    []sqlparse.SelectItem{{Func: sqlparse.FuncSum, Column: "amount", Alias: "revenue"}},
	}); err != nil {
		return nil, nil, err
	}

	store := objstore.NewMemStore()
	codec, err := record.NewCodec(schema)
	if err != nil {
		return nil, nil, err
	}
	w := objstore.NewRawLogWriter(store, "orders", codec)
	if err := w.Append(rows); err != nil {
		return nil, nil, err
	}
	if _, err := objstore.NewCompactor(store, "orders", codec).Compact(); err != nil {
		return nil, nil, err
	}
	hive := fedsql.NewArchiveConnector("hive", store)
	hive.AddTable("orders", schema)

	engine := fedsql.NewEngine()
	engine.Register(pinot)
	engine.Register(hive)
	// EXPLAIN ANALYZE renders the span tree this tracer records; queries
	// slower than the threshold also land in its slow-query ring.
	engine.Tracer = obs.NewTracer(obs.TracerConfig{
		Recent:        16,
		Slow:          8,
		SlowThreshold: 250 * time.Millisecond,
	})
	return engine, d, nil
}
