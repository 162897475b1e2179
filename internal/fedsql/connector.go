package fedsql

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/metadata"
	"repro/internal/objstore"
	"repro/internal/olap"
	"repro/internal/olap/matview"
	"repro/internal/olap/qcache"
	"repro/internal/record"
	"repro/internal/sqlparse"
)

// ErrPushdownUnsupported is returned by OpenAggregateScan (and the v2
// AggregateScan) when a connector cannot execute aggregate queries inside
// its backend. The engine falls back to a row scan + engine-side aggregation
// and counts the fallback in QueryStats.PushdownFallbacks.
var ErrPushdownUnsupported = errors.New("fedsql: connector does not execute aggregates")

// Capabilities advertises, fragment by fragment, what a connector can
// absorb. Every field is explicit: a connector that supports nothing must
// still say so (see ArchiveConnector.Capabilities) rather than leaning on
// the zero value, so readers of the planner can see each decision gate.
type Capabilities struct {
	// Filters: WHERE predicates execute inside the backend.
	Filters bool
	// Aggregations: aggregate functions execute inside via OpenAggregateScan.
	Aggregations bool
	// GroupBy: grouped aggregations execute inside (requires Aggregations).
	GroupBy bool
	// OrderBy: ORDER BY executes inside the backend.
	OrderBy bool
	// Limit: LIMIT executes inside the backend.
	Limit bool
}

// Pushdown is the row-scan fragment handed to a connector's OpenScan: a
// projection with filters and optional ordering/limit. Aggregations travel
// separately through OpenAggregateScan. Fields the connector did not
// advertise are guaranteed empty.
type Pushdown struct {
	// Columns is the projection (empty = all columns).
	Columns []string
	// Filters are WHERE conjuncts on this table.
	Filters []sqlparse.Predicate
	// OrderBy/Limit apply inside the backend.
	OrderBy []sqlparse.OrderItem
	Limit   int
}

// AggregateQuery is a whole aggregate query for connector-side execution:
// the fragment OpenAggregateScan pushes into the backend so only per-group
// aggregate rows cross the connector boundary, never raw rows.
type AggregateQuery struct {
	Filters []sqlparse.Predicate
	GroupBy []string
	Aggs    []sqlparse.SelectItem
	OrderBy []sqlparse.OrderItem
	Limit   int
}

// QueryStats unifies the old connector ScanStats and the OLAP layer's
// ExecStats into the one stats block a federated query reports: what
// crossed the connector boundary, which fragments executed inside the
// backend, and what the backend's execution and routing looked like.
type QueryStats struct {
	// RowsReturned is what crossed the connector boundary into the engine.
	RowsReturned int64
	// Pushed* indicate the fragment actually executed inside the backend.
	PushedFilters bool
	PushedAggs    bool
	PushedLimit   bool
	// PushdownFallbacks counts aggregate queries that fell back to row
	// scan + engine-side aggregation because the connector lacked the
	// capability (or its OpenAggregateScan refused).
	PushdownFallbacks int64
	// TrimK is the per-server top-K budget the backend applied to an
	// ORDER BY/LIMIT query (groups for aggregations, rows for selections);
	// 0 when the backend ran exact/untrimmed.
	TrimK int
	// Router names the backend routing strategy ("" when the backend has
	// none, e.g. the archive).
	Router string
	// Streamed marks that the scan's rows reached the engine as they were
	// produced (a broker stream, one archive part at a time) instead of
	// being whole in memory before the first batch was pulled (a finalized
	// aggregate response, a pushed-down ORDER BY's rows) — EXPLAIN's
	// exec=streaming vs exec=materialized.
	Streamed bool
	// BatchesStreamed counts the batches that crossed the boundary, from
	// either kind of source.
	BatchesStreamed int64
	// PeakEngineBytes estimates the largest engine-resident row footprint
	// the scan needed at any one moment: the whole result for materialized
	// sources, one in-flight batch for streaming ones.
	PeakEngineBytes int64
	// Exec carries the backend's execution counters (segment scans, time
	// pruning, server fan-out, partition pruning) when the backend is the
	// OLAP layer; zero otherwise.
	Exec olap.ExecStats
}

// Merge folds another scan's stats into this one (joins, subqueries):
// counters add, pushed flags OR (did *any* scan push), and the first
// non-empty router name wins.
func (s *QueryStats) Merge(o QueryStats) {
	s.RowsReturned += o.RowsReturned
	s.PushedFilters = s.PushedFilters || o.PushedFilters
	s.PushedAggs = s.PushedAggs || o.PushedAggs
	s.PushedLimit = s.PushedLimit || o.PushedLimit
	s.PushdownFallbacks += o.PushdownFallbacks
	if s.TrimK == 0 {
		s.TrimK = o.TrimK
	}
	if s.Router == "" {
		s.Router = o.Router
	}
	s.Streamed = s.Streamed || o.Streamed
	s.BatchesStreamed += o.BatchesStreamed
	// Scans of a join overlap, so the peaks could add; keeping the max is
	// the conservative (never over-claiming) report.
	if o.PeakEngineBytes > s.PeakEngineBytes {
		s.PeakEngineBytes = o.PeakEngineBytes
	}
	s.Exec.Add(o.Exec)
}

// Connector is the backend interface (Presto's Connector API): catalog
// metadata, declared capabilities, and the v2 slice-returning scan pair. The
// engine executes through StreamingConnector (iterator.go) only, and refuses
// a catalog without it; why Scan/AggregateScan remain is in DESIGN.md
// "Streaming execution". In-tree they are drains of the v3 methods, which
// the engine never calls.
type Connector interface {
	// Name returns the catalog name ("pinot", "hive", ...).
	Name() string
	// Tables lists the connector's table names.
	Tables() []string
	// Schema describes one table.
	Schema(table string) (*metadata.Schema, error)
	// Capabilities advertises pushdown support, explicitly per fragment.
	Capabilities() Capabilities
	// Scan executes the row-scan fragment and returns every row at once.
	Scan(ctx context.Context, table string, pd Pushdown) ([]record.Record, QueryStats, error)
	// AggregateScan executes a whole aggregate query inside the backend
	// and returns one row per group, named by SelectItem.OutputName.
	AggregateScan(ctx context.Context, table string, aq AggregateQuery) ([]record.Record, QueryStats, error)
}

// ---- Pinot connector ----

// PinotConnector exposes OLAP deployments as federated tables with full
// pushdown (§4.3.2: "predicate pushdowns and aggregation function pushdowns
// enable us to achieve sub-second query latencies"). OpenAggregateScan maps
// to the broker's scatter-gather, so a federated GROUP BY moves per-group
// aggregate rows across the connector boundary instead of raw rows. Every
// query it issues runs as the default tenant, and a pushed-down ORDER BY …
// LIMIT trims to its top K like Pinot's.
type PinotConnector struct {
	name    string
	brokers map[string]*olap.Broker
	schemas map[string]*metadata.Schema
	// DisablePushdown forces scan-only behavior — the E11/E18 baseline
	// ("our first version of this connector only included predicate
	// pushdown").
	DisablePushdown bool
	// Router selects the broker routing strategy for tables added after it
	// is set (nil = round-robin). E.g. &olap.PartitionRouter{} lets
	// partition-filtered federated queries skip servers entirely.
	Router olap.Router
	// CacheMaxBytes enables the broker result cache (with in-flight
	// deduplication) for tables added after it is set; 0 disables. Cached
	// entries invalidate automatically on any ingest/seal/compact/offload/
	// drop of the backing table.
	CacheMaxBytes int64
	// Admission enables per-tenant quotas and bounded queueing on brokers
	// created by AddTable; overloaded queries fail with olap.ErrOverloaded.
	Admission *qcache.AdmissionConfig
	// EnableViews attaches a materialized-view registry to tables added
	// after it is set: standing aggregate shapes registered via
	// RegisterView are maintained incrementally from the table's mutation
	// feed and served ahead of the result cache (EXPLAIN's view=hit line)
	// regardless of write rate. Nil disables views. Set before AddTable.
	EnableViews *matview.Config
	views       map[string]*matview.Registry
}

// NewPinotConnector creates an empty Pinot catalog.
func NewPinotConnector(name string) *PinotConnector {
	return &PinotConnector{
		name:    name,
		brokers: make(map[string]*olap.Broker),
		schemas: make(map[string]*metadata.Schema),
		views:   make(map[string]*matview.Registry),
	}
}

// AddTable registers a deployment under its table name.
func (p *PinotConnector) AddTable(d *olap.Deployment) {
	cfg := d.Table()
	var views olap.ViewServer
	if p.EnableViews != nil {
		reg := matview.NewRegistry(d, *p.EnableViews)
		p.views[cfg.Name] = reg
		views = reg
	}
	p.brokers[cfg.Name] = olap.NewBrokerWithOptions(d, olap.BrokerOptions{
		Router:        p.Router,
		CacheMaxBytes: p.CacheMaxBytes,
		Admission:     p.Admission,
		Views:         views,
	})
	p.schemas[cfg.Name] = cfg.Schema
}

// RegisterView registers a standing aggregate fragment as a materialized
// view on one table: the exact OLAP query OpenAggregateScan pushes down for
// this fragment is materialized once and maintained incrementally, so every
// later federated query with the same shape is served from the view. The
// connector must have been created with EnableViews set before AddTable.
func (p *PinotConnector) RegisterView(ctx context.Context, table string, aq AggregateQuery) error {
	reg, ok := p.views[table]
	if !ok {
		return fmt.Errorf("fedsql: views not enabled for pinot table %q", table)
	}
	q, _, err := p.aggQuery(table, aq)
	if err != nil {
		return err
	}
	_, err = reg.Register(ctx, &olap.QueryRequest{Query: q})
	return err
}

// ViewRegistry exposes one table's registry (nil when views are disabled),
// for stats and direct registration of non-SQL shapes.
func (p *PinotConnector) ViewRegistry(table string) *matview.Registry {
	return p.views[table]
}

// Name implements Connector.
func (p *PinotConnector) Name() string { return p.name }

// Tables implements Connector.
func (p *PinotConnector) Tables() []string {
	out := make([]string, 0, len(p.brokers))
	for t := range p.brokers {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Schema implements Connector.
func (p *PinotConnector) Schema(table string) (*metadata.Schema, error) {
	s, ok := p.schemas[table]
	if !ok {
		return nil, fmt.Errorf("fedsql: pinot table %q not found", table)
	}
	return s.Clone(), nil
}

// Capabilities implements Connector: every fragment runs inside the OLAP
// layer.
func (p *PinotConnector) Capabilities() Capabilities {
	if p.DisablePushdown {
		return Capabilities{}
	}
	return Capabilities{Filters: true, Aggregations: true, GroupBy: true, OrderBy: true, Limit: true}
}

// OpenScan implements StreamingConnector. An unordered row-scan fragment
// becomes an OLAP streaming query (Broker.ExecuteStream): batches flow from
// the servers' vectorized segment kernels straight to the engine — the first
// arrives while the slowest server is still scanning — and closing the
// iterator early (LIMIT satisfied, join done, query cancelled) stops the
// backend scan. A stream is consumed once, not shared, so it bypasses the
// broker's result cache, views and admission. A pushed-down ORDER BY cannot
// stream; it executes like an aggregate (executed), those services intact.
func (p *PinotConnector) OpenScan(ctx context.Context, table string, pd Pushdown) (RowIterator, error) {
	broker, ok := p.brokers[table]
	if !ok {
		return nil, fmt.Errorf("fedsql: pinot table %q not found", table)
	}
	q, stats, err := olapQuery(table, pd.Filters, pd.OrderBy, pd.Limit)
	if err != nil {
		return nil, err
	}
	q.Select = pd.Columns
	req := &olap.QueryRequest{Query: q}
	if len(q.OrderBy) > 0 {
		return executed(ctx, broker, req, stats)
	}
	stats.Streamed = true
	qs, err := broker.ExecuteStream(ctx, req)
	if err != nil {
		return nil, err
	}
	return &brokerIterator{qs: qs, stats: stats}, nil
}

// OpenAggregateScan implements StreamingConnector by executing the whole
// aggregate query in the OLAP layer (through the broker's cache, views and
// admission): servers ship mergeable partial-aggregate states to the broker,
// and only the finalized per-group rows cross the connector boundary.
func (p *PinotConnector) OpenAggregateScan(ctx context.Context, table string, aq AggregateQuery) (RowIterator, error) {
	if p.DisablePushdown {
		return nil, ErrPushdownUnsupported
	}
	broker, ok := p.brokers[table]
	if !ok {
		return nil, fmt.Errorf("fedsql: pinot table %q not found", table)
	}
	q, stats, err := p.aggQuery(table, aq)
	if err != nil {
		return nil, err
	}
	return executed(ctx, broker, &olap.QueryRequest{Query: q}, stats)
}

// executed runs a fragment the backend folds — an aggregate, an ordered scan
// — through Broker.ExecuteBatch: nothing can stream until the backend has seen
// every row, so the in-memory source serves the response's batch as it is,
// reading it only (a cached response shares its batch between callers).
func executed(ctx context.Context, broker *olap.Broker, req *olap.QueryRequest, stats QueryStats) (RowIterator, error) {
	resp, err := broker.ExecuteBatch(ctx, req)
	if err != nil {
		return nil, err
	}
	// The backend reports the top-K budget it actually applied (EXPLAIN's
	// trim=server k=N line); no connector-side re-derivation.
	stats.TrimK = resp.TrimK
	stats.RowsReturned = int64(resp.Batch.Len)
	stats.Router = resp.Route.Router
	stats.Exec = resp.Stats
	return newBatchIterator(resp.Batch, stats), nil
}

// Scan implements Connector (v2) as a drain of OpenScan.
func (p *PinotConnector) Scan(ctx context.Context, table string, pd Pushdown) ([]record.Record, QueryStats, error) {
	it, err := p.OpenScan(ctx, table, pd)
	return drainRecords(ctx, it, err)
}

// AggregateScan implements Connector (v2) as a drain of OpenAggregateScan.
func (p *PinotConnector) AggregateScan(ctx context.Context, table string, aq AggregateQuery) ([]record.Record, QueryStats, error) {
	it, err := p.OpenAggregateScan(ctx, table, aq)
	return drainRecords(ctx, it, err)
}

// brokerIterator adapts an olap.QueryStream to the RowIterator contract. The
// two layers share one batch type and one validity rule (until the next
// Next/Close call), so the stream's batch is handed over as it is.
type brokerIterator struct {
	qs    *olap.QueryStream
	stats QueryStats
}

func (b *brokerIterator) Columns() []string { return b.qs.Columns() }

func (b *brokerIterator) Next(ctx context.Context) (*Batch, error) {
	rb, err := b.qs.Next(ctx)
	if err != nil {
		return nil, err
	}
	b.stats.RowsReturned += int64(rb.Len)
	b.stats.BatchesStreamed++
	// The engine-resident footprint of a streaming scan is one batch.
	if bb := rb.Size(); bb > b.stats.PeakEngineBytes {
		b.stats.PeakEngineBytes = bb
	}
	return rb, nil
}

// Stats adds the backend's side — routing and execution counters — which the
// stream completes at end of scan or Close.
func (b *brokerIterator) Stats() QueryStats {
	st := b.stats
	st.Exec = b.qs.Stats()
	st.Router = b.qs.Route().Router
	return st
}

func (b *brokerIterator) Close() error { return b.qs.Close() }

// aggQuery translates an aggregate fragment into the OLAP query pushed into
// the broker — shared by OpenAggregateScan and RegisterView, so a registered
// view's shape is guaranteed to match the later pushed-down execution.
func (p *PinotConnector) aggQuery(table string, aq AggregateQuery) (*olap.Query, QueryStats, error) {
	q, stats, err := olapQuery(table, aq.Filters, aq.OrderBy, aq.Limit)
	if err != nil {
		return nil, QueryStats{}, err
	}
	q.GroupBy = aq.GroupBy
	stats.PushedAggs = true
	for _, a := range aq.Aggs {
		q.Aggs = append(q.Aggs, olap.AggSpec{Kind: a.Func.Agg(), Column: a.Column, As: a.OutputName()})
	}
	return q, stats, nil
}

// olapQuery translates what both fragments share — filters, ORDER BY, LIMIT
// — into an OLAP query, and marks in the stats what it pushed.
func olapQuery(table string, filters []sqlparse.Predicate, orderBy []sqlparse.OrderItem, limit int) (*olap.Query, QueryStats, error) {
	q := &olap.Query{Table: table, Limit: limit}
	for _, f := range filters {
		of, err := toOlapFilter(f)
		if err != nil {
			return nil, QueryStats{}, err
		}
		q.Filters = append(q.Filters, of)
	}
	for _, o := range orderBy {
		q.OrderBy = append(q.OrderBy, olap.OrderSpec{Column: o.Column, Desc: o.Desc})
	}
	return q, QueryStats{PushedFilters: len(filters) > 0, PushedLimit: limit > 0}, nil
}

func toOlapFilter(f sqlparse.Predicate) (olap.Filter, error) {
	out := olap.Filter{Column: f.Column, Value: f.Value, Value2: f.Value2, Values: f.Values}
	switch f.Op {
	case sqlparse.CmpEq:
		out.Op = olap.OpEq
	case sqlparse.CmpNe:
		out.Op = olap.OpNe
	case sqlparse.CmpLt:
		out.Op = olap.OpLt
	case sqlparse.CmpLe:
		out.Op = olap.OpLe
	case sqlparse.CmpGt:
		out.Op = olap.OpGt
	case sqlparse.CmpGe:
		out.Op = olap.OpGe
	case sqlparse.CmpIn:
		out.Op = olap.OpIn
	case sqlparse.CmpBetween:
		out.Op = olap.OpBetween
	default:
		return out, fmt.Errorf("fedsql: unsupported predicate op %d", f.Op)
	}
	return out, nil
}

// ---- Archive (Hive-like) connector ----

// ArchiveConnector exposes the object store's columnar archive as read-only
// tables. It advertises no pushdown: filters and aggregations run in the
// engine, like Presto over HDFS/Hive — the latency contrast in E11/E18.
type ArchiveConnector struct {
	name    string
	store   objstore.Store
	schemas map[string]*metadata.Schema
	vectors sync.Pool // *[]record.Vector: closed scans' columns, one scan's at a time
}

// NewArchiveConnector creates an archive catalog over the store.
func NewArchiveConnector(name string, store objstore.Store) *ArchiveConnector {
	return &ArchiveConnector{name: name, store: store, schemas: make(map[string]*metadata.Schema)}
}

// AddTable registers an archived dataset.
func (a *ArchiveConnector) AddTable(dataset string, schema *metadata.Schema) {
	a.schemas[dataset] = schema.Clone()
}

// Name implements Connector.
func (a *ArchiveConnector) Name() string { return a.name }

// Tables implements Connector.
func (a *ArchiveConnector) Tables() []string {
	out := make([]string, 0, len(a.schemas))
	for t := range a.schemas {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Schema implements Connector.
func (a *ArchiveConnector) Schema(table string) (*metadata.Schema, error) {
	s, ok := a.schemas[table]
	if !ok {
		return nil, fmt.Errorf("fedsql: archive table %q not found", table)
	}
	return s.Clone(), nil
}

// Capabilities implements Connector. The archive pushes nothing down —
// every fragment is declared unsupported so the engine plans full
// engine-side processing (and counts the aggregate fallback), instead of
// silently inheriting whatever the zero value happens to mean.
func (a *ArchiveConnector) Capabilities() Capabilities {
	return Capabilities{
		Filters:      false,
		Aggregations: false,
		GroupBy:      false,
		OrderBy:      false,
		Limit:        false,
	}
}

// OpenScan implements StreamingConnector: one archive part is read and
// decoded per pull, so a scan's resident state is one part's requested
// columns, never the whole table. pd carries at most a projection — the
// archive advertises nothing else — and the projection is applied while
// reading: a column nobody asked for is never decoded. The batch's vectors
// come from the connector's pool and go back at Close, so a scan reuses the
// arrays an earlier scan's parts were decoded into.
func (a *ArchiveConnector) OpenScan(ctx context.Context, table string, pd Pushdown) (RowIterator, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	schema, ok := a.schemas[table]
	if !ok {
		return nil, fmt.Errorf("fedsql: archive table %q not found", table)
	}
	reader := objstore.NewArchiveReader(a.store, table, schema)
	parts, err := reader.Parts()
	if err != nil {
		return nil, err
	}
	cols := pd.Columns
	if len(cols) == 0 {
		cols = schema.FieldNames()
	}
	vecs, _ := a.vectors.Get().(*[]record.Vector)
	if vecs == nil {
		vecs = new([]record.Vector)
	}
	if n := len(cols) - len(*vecs); n > 0 {
		*vecs = append(*vecs, make([]record.Vector, n)...)
	}
	return &archiveIterator{reader: reader, parts: parts, stats: QueryStats{Streamed: true}, pool: &a.vectors, vecs: vecs,
		batch: Batch{Columns: cols, Cols: (*vecs)[:len(cols)]}}, nil
}

// OpenAggregateScan implements StreamingConnector: the archive cannot
// aggregate, so the engine must pull rows and aggregate itself.
func (a *ArchiveConnector) OpenAggregateScan(ctx context.Context, table string, aq AggregateQuery) (RowIterator, error) {
	return nil, ErrPushdownUnsupported
}

// archiveIterator streams an archived dataset part by part; each part is
// one batch, decoded by the archive reader straight into the batch's typed
// vectors, reused from part to part and, through the pool, from scan to scan
// — no row is ever assembled on the way, and no value is boxed.
type archiveIterator struct {
	reader *objstore.ArchiveReader
	parts  []string
	stats  QueryStats
	pool   *sync.Pool
	vecs   *[]record.Vector // the batch's vectors until Close returns them
	batch  Batch
}

func (it *archiveIterator) Columns() []string { return it.batch.Columns }

func (it *archiveIterator) Next(ctx context.Context) (*Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(it.parts) == 0 {
		return nil, io.EOF
	}
	n, err := it.reader.ReadColumns(it.parts[0], it.batch.Columns, it.batch.Cols)
	if err != nil {
		return nil, err
	}
	it.parts = it.parts[1:]
	it.batch.Len = n
	it.stats.RowsReturned += int64(n)
	it.stats.BatchesStreamed++
	if bb := it.batch.Size(); bb > it.stats.PeakEngineBytes {
		it.stats.PeakEngineBytes = bb
	}
	return &it.batch, nil
}

func (it *archiveIterator) Stats() QueryStats { return it.stats }

// Close returns the vectors to the pool with every string and blob slot
// cleared up to capacity, so a pooled vector pins no dictionary string or
// blob of a part.
func (it *archiveIterator) Close() error {
	it.parts = nil
	if it.vecs != nil {
		for i := range *it.vecs {
			v := &(*it.vecs)[i]
			clear(v.Strs[:cap(v.Strs)])
			clear(v.Bytes[:cap(v.Bytes)])
		}
		it.pool.Put(it.vecs)
		it.vecs, it.batch.Cols = nil, nil
	}
	return nil
}

// Scan implements Connector (v2) as a drain of OpenScan.
func (a *ArchiveConnector) Scan(ctx context.Context, table string, pd Pushdown) ([]record.Record, QueryStats, error) {
	it, err := a.OpenScan(ctx, table, pd)
	return drainRecords(ctx, it, err)
}

// AggregateScan implements Connector (v2); see OpenAggregateScan.
func (a *ArchiveConnector) AggregateScan(ctx context.Context, table string, aq AggregateQuery) ([]record.Record, QueryStats, error) {
	return nil, QueryStats{}, ErrPushdownUnsupported
}
