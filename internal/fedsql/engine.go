package fedsql

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/sqlparse"
)

// Result is a federated query result.
type Result struct {
	Columns []string
	Rows    [][]any
	// Stats aggregates connector-side and backend execution statistics.
	Stats QueryStats
	// Plan holds one line per table scan describing the pushdown and
	// routing decisions taken — the payload of sqlshell's EXPLAIN. When the
	// engine has a Tracer, each line also carries the scan's elapsed time.
	Plan []string
	// Trace is the finished span tree of this query when the engine has a
	// Tracer (fedsql.query → scan → broker.execute → ... down to
	// segment.scan) — the payload of sqlshell's EXPLAIN ANALYZE.
	Trace *obs.TraceSummary
}

// Engine is the federated query engine: it parses SQL, resolves tables
// through registered connectors, plans pushdown per connector capabilities,
// and executes the remainder (joins, subqueries, residual filters and
// aggregations) as one pipeline of operators over batch iterators.
type Engine struct {
	connectors map[string]Connector
	defaultCat string
	// Tracer, when set, opens a fedsql.query root span per query; connector
	// scans and the backend broker pipeline record child spans, and the
	// finished tree is attached to Result.Trace.
	Tracer *obs.Tracer
}

// NewEngine creates an engine. The first registered connector becomes the
// default catalog for unqualified table names.
func NewEngine() *Engine {
	return &Engine{connectors: make(map[string]Connector)}
}

// Register adds a connector under its catalog name.
func (e *Engine) Register(c Connector) {
	if len(e.connectors) == 0 {
		e.defaultCat = c.Name()
	}
	e.connectors[c.Name()] = c
}

// SetDefaultCatalog changes the catalog used for unqualified table names.
func (e *Engine) SetDefaultCatalog(name string) error {
	if _, ok := e.connectors[name]; !ok {
		return fmt.Errorf("fedsql: unknown catalog %q", name)
	}
	e.defaultCat = name
	return nil
}

// Catalogs lists registered connector names, sorted.
func (e *Engine) Catalogs() []string {
	out := make([]string, 0, len(e.connectors))
	for n := range e.connectors {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Query parses and executes one SELECT with the background context.
func (e *Engine) Query(sql string) (*Result, error) {
	//lint:ignore ctxflow pre-PR-1 convenience entry point kept for callers with no context; QueryCtx is the cancellable API
	return e.QueryCtx(context.Background(), sql)
}

// QueryCtx parses and executes one SELECT under a caller context. The
// context flows into every connector scan, so cancelling it aborts
// backend-side work (e.g. the OLAP broker's parallel scatter-gather) too.
func (e *Engine) QueryCtx(ctx context.Context, sql string) (*Result, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	// Trace wiring: own a fedsql.query root unless the caller's context
	// already carries a span (then the query nests under it and the owner
	// finishes the trace).
	var root obs.Span
	if e.Tracer != nil && !obs.SpanFromContext(ctx).Active() {
		root = e.Tracer.StartTrace("fedsql.query")
		ctx = obs.ContextWithSpan(ctx, root)
	}
	res, err := e.execute(ctx, stmt)
	if root.Active() {
		if err != nil {
			root.SetAttr("error", err.Error())
		} else {
			root.SetRows(int64(len(res.Rows)))
		}
		sum := e.Tracer.FinishTraceSummary(root)
		if err == nil {
			res.Trace = sum
		}
	}
	return res, err
}

// relation is an unconsumed intermediate result — a table scan, a
// pushed-down aggregate, a subquery's result or a join's output: a batch
// iterator plus what its consumer still has to apply to it. Whoever holds the
// relation owns src.Close.
type relation struct {
	src RowIterator
	// star is what SELECT * expands to over this relation.
	star []string
	// residual predicates the backend did not absorb.
	residual []sqlparse.Predicate
	// aggregated marks that src already yields the final aggregate rows.
	aggregated bool
	// ordered marks that ORDER BY/LIMIT already applied in the backend.
	ordered bool
	// scan is the table scan src pulls from, still open: its stats, EXPLAIN
	// line and span are complete only once src is drained (finish). Nil for
	// a subquery.
	scan *scanMeta
	// stats and plan cover the work beneath the relation that has already
	// finished: a subquery's, a join's build side.
	stats QueryStats
	plan  []string
}

// scanMeta is the deferred EXPLAIN/tracing context of one open table scan.
type scanMeta struct {
	catalog, table, kind string
	residual             int
	// cols of the schema's width columns crossed the connector; width is 0
	// for an aggregate scan, whose rows are not the table's.
	cols, width int
	span        obs.Span
	start       time.Time
}

// kindFallback is the scan kind of an aggregate query that fell back to row
// scan + engine-side aggregation; finish counts it in PushdownFallbacks.
const kindFallback = "row-scan+engine-agg"

// finish ends the relation's open table scan after consume closed src — with
// err when the query failed — and returns the stats and plan of everything
// the relation covered.
func (rel *relation) finish(err error) (QueryStats, []string) {
	m := rel.scan
	if m == nil {
		return rel.stats, rel.plan
	}
	if err != nil {
		endScanSpan(m.span, 0, err)
		return rel.stats, rel.plan
	}
	stats := rel.src.Stats()
	if m.kind == kindFallback {
		stats.PushdownFallbacks++
	}
	line := planLine(m, stats, time.Since(m.start))
	endScanSpan(m.span, stats.RowsReturned, nil)
	stats.Merge(rel.stats)
	return stats, append([]string{line}, rel.plan...)
}

// execute runs one SELECT and boxes its rows: Result.Rows is the engine's
// edge, where typed vectors become cells.
func (e *Engine) execute(ctx context.Context, stmt *sqlparse.SelectStmt) (*Result, error) {
	out, stats, plan, err := e.run(ctx, stmt)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: out.Columns, Rows: out.AppendRows(nil), Stats: stats, Plan: plan}, nil
}

// run runs one SELECT through the pipeline every query shape shares:
// resolveRef yields the FROM clause as an iterator, consume drives it into
// typed output vectors.
func (e *Engine) run(ctx context.Context, stmt *sqlparse.SelectStmt) (*Batch, QueryStats, []string, error) {
	if err := ctx.Err(); err != nil {
		return nil, QueryStats{}, nil, err
	}
	if stmt.From == nil {
		return nil, QueryStats{}, nil, fmt.Errorf("fedsql: SELECT without FROM is not supported")
	}
	if stmt.Window != nil {
		return nil, QueryStats{}, nil, fmt.Errorf("fedsql: window functions belong to the streaming SQL layer (flinksql)")
	}
	rel, err := e.resolveRef(ctx, stmt.From, stmt)
	if err != nil {
		return nil, QueryStats{}, nil, err
	}
	out, err := rel.consume(ctx, stmt)
	stats, plan := rel.finish(err)
	if err != nil {
		return nil, QueryStats{}, nil, err
	}
	return out, stats, plan, nil
}

// consume drives the relation to its output rows: residual filter, then
// aggregate or project, then ORDER BY/LIMIT. An engine-side aggregation is
// itself a relation — its groups, laid out like a pushed-down aggregate's
// response — so both kinds reach collect the same way.
func (rel *relation) consume(ctx context.Context, stmt *sqlparse.SelectStmt) (*Batch, error) {
	defer rel.src.Close()
	filter := bindPredicates(rel.residual, rel.src.Columns())
	if !stmt.HasAggregates() || rel.aggregated {
		return collect(ctx, rel.src, filter, rel.star, stmt, rel.ordered)
	}
	groups, err := aggregate(ctx, rel.src, filter, stmt)
	if err != nil {
		return nil, err
	}
	defer groups.Close()
	return collect(ctx, groups, nil, groups.Columns(), stmt, false)
}

// collect is the pipeline's tail and the one place iterator output becomes
// output rows: it binds the projection to batch columns, appends the rows
// that pass filter to typed output vectors, which grow by doubling, and
// applies ORDER BY/LIMIT unless the backend already did. An unordered LIMIT
// stops pulling as soon as it is met — any stmt.Limit rows are a correct
// answer — and the caller's Close then cancels the backend scan.
func collect(ctx context.Context, src RowIterator, filter []boundPredicate, star []string, stmt *sqlparse.SelectStmt, ordered bool) (*Batch, error) {
	names, refs, err := projection(stmt, star)
	if err != nil {
		return nil, err
	}
	idx := bindColumns(src.Columns(), refs)
	out := &Batch{Columns: names, Cols: make([]record.Vector, len(names))}
	limit := 0
	if len(stmt.OrderBy) == 0 {
		limit = stmt.Limit
	}
	var sel []int32
	for limit == 0 || out.Len < limit {
		b, err := src.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		sel = filterRows(b, 0, b.Len, filter, sel)
		if limit > 0 {
			sel = sel[:min(len(sel), limit-out.Len)]
		}
		for ci, bi := range idx {
			if bi < 0 {
				out.Cols[ci].AppendNulls(len(sel))
				continue
			}
			out.Cols[ci].AppendRows(&b.Cols[bi], sel)
		}
		out.Len += len(sel)
	}
	if ordered {
		return out, nil
	}
	return orderAndLimit(out, stmt)
}

// findColumn binds one column reference to its position in cols, -1 (always
// NULL) when absent: the exact name first, else the first column with the
// same bare name — so o.city finds a scan's city, and city finds a join's
// o.city ahead of its c.city (the probe side's columns come first).
func findColumn(cols []string, name string) int {
	for i, c := range cols {
		if c == name {
			return i
		}
	}
	for i, c := range cols {
		if bareName(c) == bareName(name) {
			return i
		}
	}
	return -1
}

func bindColumns(cols, names []string) []int {
	idx := make([]int, len(names))
	for i, n := range names {
		idx[i] = findColumn(cols, n)
	}
	return idx
}

// boundPredicate is a WHERE conjunct compiled for typed cells and bound to
// its batch column.
type boundPredicate struct {
	col int
	sqlparse.Compiled
}

func bindPredicates(preds []sqlparse.Predicate, cols []string) []boundPredicate {
	out := make([]boundPredicate, len(preds))
	for i, p := range preds {
		out[i] = boundPredicate{findColumn(cols, qualName(p.Table, p.Column)), p.Compile()}
	}
	return out
}

// filterRows returns the rows [from, to) of b that pass every bound
// predicate, in sel's storage, each column read as cells of its type; a NULL
// or missing column satisfies none.
func filterRows(b *Batch, from, to int, filter []boundPredicate, sel []int32) []int32 {
	sel = slices.Grow(sel[:0], to-from)
	for r := from; r < to; r++ {
		sel = append(sel, int32(r))
	}
	for i := range filter {
		p := &filter[i]
		if p.col < 0 {
			return sel[:0]
		}
		v, k := &b.Cols[p.col], 0
		for _, r := range sel {
			if p.MatchesValue(v.Value(int(r)), v.Type) {
				sel[k] = r
				k++
			}
		}
		sel = sel[:k]
	}
	return sel
}

func (e *Engine) resolveRef(ctx context.Context, ref *sqlparse.TableRef, stmt *sqlparse.SelectStmt) (*relation, error) {
	switch {
	case ref.Join != nil:
		return e.resolveJoin(ctx, ref.Join, stmt)
	case ref.Sub != nil:
		sub, stats, plan, err := e.run(ctx, ref.Sub)
		if err != nil {
			return nil, err
		}
		// The subquery's rows are whole in memory before the first is pulled.
		stats.PeakEngineBytes = max(stats.PeakEngineBytes, sub.Size())
		return &relation{
			src:  newBatchIterator(*sub, QueryStats{}),
			star: sub.Columns, stats: stats, plan: plan,
			// Outer predicates apply in the engine.
			residual: predicatesFor(stmt.Where, ref.RefName(), true),
		}, nil
	default:
		return e.scanTable(ctx, ref, stmt)
	}
}

// scanTable plans pushdown for a single-table query: aggregate queries go
// through OpenAggregateScan when the connector declares the needed
// fragments, falling back to row scan + engine-side aggregation otherwise
// (counted in QueryStats.PushdownFallbacks); plain selections go through
// OpenScan with filter/projection/order/limit pushdown per capability.
func (e *Engine) scanTable(ctx context.Context, ref *sqlparse.TableRef, stmt *sqlparse.SelectStmt) (*relation, error) {
	catalog := ref.Qualifier
	if catalog == "" {
		catalog = e.defaultCat
	}
	c, ok := e.connectors[catalog]
	if !ok {
		return nil, fmt.Errorf("fedsql: unknown catalog %q", catalog)
	}
	conn, ok := c.(StreamingConnector)
	if !ok {
		return nil, fmt.Errorf("fedsql: catalog %q does not implement StreamingConnector (Connector v3)", catalog)
	}
	caps := conn.Capabilities()
	var pushFilters []sqlparse.Predicate
	var residual []sqlparse.Predicate

	mine := predicatesFor(stmt.Where, ref.RefName(), true)
	if caps.Filters {
		for _, p := range mine {
			cp := p
			cp.Table = ""
			pushFilters = append(pushFilters, cp)
		}
	} else {
		residual = mine
	}
	orderBy, limit, ordered := pushOrderLimit(stmt, caps, residual)
	// The schema says which referenced names are columns of this table and
	// how wide an unprojected row is; without one the scan is unprojected.
	schema := e.tableSchema(ref)
	kind, pd := "row-scan", Pushdown{Filters: pushFilters}
	if stmt.HasAggregates() {
		// Aggregate pushdown: the whole aggregate query executes inside the
		// backend when the connector declares the needed fragments and
		// every filter was absorbed — only per-group aggregate rows cross
		// the connector boundary then, never raw rows.
		if caps.Aggregations && len(residual) == 0 && (len(stmt.GroupBy) == 0 || caps.GroupBy) {
			aq := AggregateQuery{Filters: pushFilters, GroupBy: stripQualifiers(stmt.GroupBy), OrderBy: orderBy, Limit: limit}
			for _, it := range stmt.Items {
				if it.Func == sqlparse.FuncNone {
					continue // plain group-by columns come back via GroupBy
				}
				item := it
				item.Table = ""
				aq.Aggs = append(aq.Aggs, item)
			}
			rel, err := openRelation(ctx, catalog, ref.Name, "aggregate-scan", nil, func(ctx context.Context) (RowIterator, error) {
				return conn.OpenAggregateScan(ctx, ref.Name, aq)
			})
			if err == nil {
				rel.aggregated, rel.ordered = true, ordered
				return rel, nil
			}
			if !errors.Is(err, ErrPushdownUnsupported) {
				return nil, err
			}
			// A capable-looking connector refused: fall through to the
			// row-scan fallback below.
		}
		// Fallback: stream the rows the aggregation reads (with whatever
		// filter pushdown the backend offers) and aggregate in the engine,
		// batch-at-a-time.
		kind, ordered = kindFallback, false
		pd.Columns = fallbackColumns(stmt, residual, schema)
	} else {
		pd.OrderBy, pd.Limit = orderBy, limit
		pd.Columns = selectionColumns(stmt, residual)
	}
	rel, err := openRelation(ctx, catalog, ref.Name, kind, residual, func(ctx context.Context) (RowIterator, error) {
		return conn.OpenScan(ctx, ref.Name, pd)
	})
	if err != nil {
		return nil, err
	}
	rel.ordered = ordered
	if schema != nil {
		rel.scan.width = len(schema.Fields)
	}
	return rel, nil
}

// pushOrderLimit decides which of the statement's ORDER BY and LIMIT the
// backend applies — nothing while a residual filter remains, and no LIMIT
// ahead of an ORDER BY the engine still has to apply — and reports whether
// that is all of both, so the engine's own orderAndLimit pass can be skipped.
func pushOrderLimit(stmt *sqlparse.SelectStmt, caps Capabilities, residual []sqlparse.Predicate) (orderBy []sqlparse.OrderItem, limit int, ordered bool) {
	if len(residual) > 0 {
		return nil, 0, false
	}
	if caps.OrderBy {
		orderBy = stmt.OrderBy
	}
	if caps.Limit && len(orderBy) == len(stmt.OrderBy) {
		limit = stmt.Limit
	}
	ordered = len(orderBy) == len(stmt.OrderBy) && limit == stmt.Limit && (len(orderBy) > 0 || limit > 0)
	return orderBy, limit, ordered
}

// openRelation opens one table scan under its span and wraps the iterator as
// an unconsumed relation. The plan line and span close when the consumer has
// drained it (finish) — stats exist only then. SELECT * expands to the sorted
// iterator columns: a connector's column order is its own business.
func openRelation(ctx context.Context, catalog, table, kind string, residual []sqlparse.Predicate, open func(context.Context) (RowIterator, error)) (*relation, error) {
	sp, sctx := scanSpan(ctx, catalog, table, kind)
	start := time.Now()
	it, err := open(sctx)
	if err != nil {
		endScanSpan(sp, 0, err)
		return nil, err
	}
	star := append([]string(nil), it.Columns()...)
	sort.Strings(star)
	return &relation{src: it, star: star, residual: residual,
		scan: &scanMeta{catalog: catalog, table: table, kind: kind, residual: len(residual), cols: len(star), span: sp, start: start}}, nil
}

// scanSpan opens the scan child span for one connector call (no-op without
// a trace in ctx).
func scanSpan(ctx context.Context, catalog, table, kind string) (obs.Span, context.Context) {
	sp, sctx := obs.StartSpan(ctx, "scan")
	if sp.Active() {
		sp.SetAttr("catalog", catalog)
		sp.SetAttr("table", table)
		sp.SetAttr("kind", kind)
	}
	return sp, sctx
}

func endScanSpan(sp obs.Span, rows int64, err error) {
	if !sp.Active() {
		return
	}
	if err != nil {
		sp.SetAttr("error", err.Error())
	} else {
		sp.SetRows(rows)
	}
	sp.End()
}

// planLine renders one EXPLAIN line describing a table scan's pushdown and
// routing decisions, plus the scan's elapsed wall time.
func planLine(m *scanMeta, st QueryStats, elapsed time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scan %s.%s [%s]", m.catalog, m.table, m.kind)
	var pushed []string
	if st.PushedFilters {
		pushed = append(pushed, "filters")
	}
	if st.PushedAggs {
		pushed = append(pushed, "aggs")
	}
	if st.PushedLimit {
		pushed = append(pushed, "limit")
	}
	if len(pushed) > 0 {
		fmt.Fprintf(&b, " pushdown=%s", strings.Join(pushed, "+"))
	} else {
		b.WriteString(" pushdown=none")
	}
	// Projection: how many of the table's columns a row scan moved.
	if m.width > 0 {
		fmt.Fprintf(&b, " cols=%d/%d", m.cols, m.width)
	}
	// Whether rows reached the engine as the backend produced them.
	if st.Streamed {
		fmt.Fprintf(&b, " exec=streaming batches=%d", st.BatchesStreamed)
	} else {
		b.WriteString(" exec=materialized")
	}
	if m.residual > 0 {
		fmt.Fprintf(&b, " residual_filters=%d", m.residual)
	}
	if st.PushdownFallbacks > 0 {
		fmt.Fprintf(&b, " fallbacks=%d", st.PushdownFallbacks)
	}
	if st.Router != "" {
		fmt.Fprintf(&b, " route=%s servers_contacted=%d", st.Router, st.Exec.ServersContacted)
		if st.Exec.PartitionsPruned > 0 {
			fmt.Fprintf(&b, " partitions_pruned=%d", st.Exec.PartitionsPruned)
		}
		if st.Exec.SegmentsPruned > 0 {
			fmt.Fprintf(&b, " segments_time_pruned=%d", st.Exec.SegmentsPruned)
		}
	}
	// Materialized-view decision comes first: a view hit answered ahead of
	// the result cache (no routing, no scan), optionally with the staleness
	// bound of a snapshot served mid-re-materialization.
	if st.Exec.ViewHit > 0 {
		b.WriteString(" view=hit")
		if st.Exec.ViewStalenessMs > 0 {
			fmt.Fprintf(&b, " view_staleness_ms=%d", st.Exec.ViewStalenessMs)
		}
	}
	// Result-cache decision: shown whenever the backend has a cache (its
	// resident bytes are reported even on a miss) — except on a view hit,
	// which answered before the cache was ever consulted.
	switch {
	case st.Exec.ViewHit > 0:
	case st.Exec.CacheHit > 0:
		b.WriteString(" cache=hit")
	case st.Exec.Coalesced > 0:
		b.WriteString(" cache=coalesced")
	case st.Exec.CacheMemBytes > 0:
		b.WriteString(" cache=miss")
	}
	// Sealed segments answered from the cache's per-segment partials, on a
	// result-cache miss.
	if st.Exec.SegmentsCached > 0 {
		fmt.Fprintf(&b, " segments_cached=%d", st.Exec.SegmentsCached)
	}
	if st.TrimK > 0 {
		fmt.Fprintf(&b, " trim=server k=%d", st.TrimK)
		if st.Exec.GroupsTrimmed > 0 {
			fmt.Fprintf(&b, " groups_trimmed=%d", st.Exec.GroupsTrimmed)
		}
	}
	fmt.Fprintf(&b, " rows_moved=%d", st.RowsReturned)
	if elapsed > 0 {
		fmt.Fprintf(&b, " time=%s", elapsed.Round(time.Microsecond))
	}
	return b.String()
}

// resolveJoin opens a hash join as a relation. The right side is the build
// side: its statement runs to completion into typed vectors and the join
// table over them (joinTable), concurrently with opening the left side so
// both backends' scatter-gathers overlap. The left side is the probe side and
// stays an iterator — its rows flow through joinIterator as the consumer
// pulls and are never held as a joined slice.
func (e *Engine) resolveJoin(ctx context.Context, j *sqlparse.JoinSpec, stmt *sqlparse.SelectStmt) (*relation, error) {
	// Each side runs as its own statement: the columns the join's consumer
	// can reach on that side, under the predicates qualified with its name.
	// Predicates with no side qualifier run after the join.
	after := predicatesFor(stmt.Where, "", false)
	refs, all := references(stmt, after)
	leftSchema, rightSchema := e.tableSchema(j.Left), e.tableSchema(j.Right)
	sideStmt := func(ref *sqlparse.TableRef, schema *metadata.Schema, key string, other *sqlparse.TableRef, otherSchema *metadata.Schema) *sqlparse.SelectStmt {
		side := &sqlparse.SelectStmt{From: ref, Where: predicatesFor(stmt.Where, ref.RefName(), false)}
		if !all && schema != nil {
			for _, c := range sideColumns(refs, key, ref.RefName(), schema, other.RefName(), otherSchema) {
				side.Items = append(side.Items, sqlparse.SelectItem{Column: c})
			}
		}
		if len(side.Items) == 0 {
			side.Items = []sqlparse.SelectItem{{Star: true}}
		}
		return side
	}
	leftStmt := sideStmt(j.Left, leftSchema, j.LeftCol, j.Right, rightSchema)
	rightStmt := sideStmt(j.Right, rightSchema, j.RightCol, j.Left, leftSchema)
	ctx, cancel := context.WithCancel(ctx)
	var (
		wg         sync.WaitGroup
		build      *Batch
		buildStats QueryStats
		buildPlan  []string
		buildErr   error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		build, buildStats, buildPlan, buildErr = e.run(ctx, rightStmt)
		if buildErr != nil {
			cancel() // abort the probe side
		}
	}()
	// Opening the probe side starts its backend scan immediately; batches
	// buffer in the stream while the build side materializes.
	probe, probeErr := e.resolveRef(ctx, j.Left, leftStmt)
	if probeErr != nil {
		cancel()
	}
	wg.Wait()
	// Prefer the side that actually failed: the other side usually reports
	// context.Canceled only because our cancel() aborted it.
	err := buildErr
	if err == nil || (probeErr != nil && errors.Is(err, context.Canceled)) {
		err = probeErr
	}
	if err != nil {
		cancel()
		if probeErr == nil {
			probe.src.Close()
			probe.finish(err)
		}
		return nil, err
	}

	it := &joinIterator{
		probe:    probe.src,
		cancel:   cancel,
		filter:   bindPredicates(probe.residual, probe.src.Columns()),
		probeKey: findColumn(probe.src.Columns(), j.LeftCol),
		build:    newJoinTable(build, findColumn(build.Columns, j.RightCol)),
	}
	// Output columns are alias.column for both sides, probe side first (a
	// side that is itself a join is qualified already); SELECT * is the
	// sorted union of their bare names.
	for _, c := range probe.src.Columns() {
		it.batch.Columns = append(it.batch.Columns, qualName(j.Left.RefName(), c))
	}
	for _, c := range build.Columns {
		it.batch.Columns = append(it.batch.Columns, qualName(j.Right.RefName(), c))
	}
	it.batch.Cols = make([]record.Vector, len(it.batch.Columns))
	star := stripQualifiers(it.batch.Columns)
	sort.Strings(star)
	star = slices.Compact(star)

	stats := probe.stats
	stats.Merge(buildStats)
	return &relation{src: it, star: star, scan: probe.scan, stats: stats,
		plan:     append(append([]string(nil), probe.plan...), buildPlan...),
		residual: after}, nil
}

// joinTable is a hash join's build side: its rows as they were collected,
// typed, a record.KeyIndex of their key cells, and the rows of each key
// chained in row order; a NULL key joins nothing.
type joinTable struct {
	rows  *Batch
	index record.KeyIndex
	head  []int32 // the first row of each key
	next  []int32 // the following row with the same key, -1 after the last
}

func newJoinTable(rows *Batch, key int) *joinTable {
	t := &joinTable{rows: rows, head: make([]int32, 0, rows.Len), next: make([]int32, rows.Len)}
	if key < 0 {
		return t
	}
	v := rows.Cols[key : key+1]
	t.index.Reserve(v, rows.Len)
	// Chained last row first, so each chain runs in row order.
	for r := rows.Len - 1; r >= 0; r-- {
		if v[0].IsNull(r) {
			continue
		}
		t.next[r] = -1
		if k, seen := t.index.Add(v, r); seen {
			t.next[r], t.head[k] = t.head[k], int32(r)
		} else {
			t.head = append(t.head, int32(r))
		}
	}
	return t
}

// first returns the first build row whose key equals row r of key, or -1.
func (t *joinTable) first(key []record.Vector, r int) int32 {
	if k, ok := t.index.Find(key, r); ok {
		return t.head[k]
	}
	return -1
}

// joinIterator is the hash-join operator: each probe batch becomes one
// output batch holding, for every probe row that passes the probe side's
// residual filter, one row per build row with an equal key (joinTable). The
// matches are found first, as row pairs, and then gathered column by column
// into typed output vectors from both sides. SELECT * over the join and bare
// column references resolve through findColumn: the probe side wins a clash.
type joinIterator struct {
	probe     RowIterator
	cancel    context.CancelFunc // releases the join's context; see Close
	filter    []boundPredicate
	probeKey  int
	build     *joinTable
	sel       []int32
	probeRows []int32 // the current batch's matches: probe row,
	buildRows []int32 // and build row
	batch     Batch
}

func (j *joinIterator) Columns() []string { return j.batch.Columns }

func (j *joinIterator) Next(ctx context.Context) (*Batch, error) {
	for {
		b, err := j.probe.Next(ctx)
		if err != nil {
			return nil, err
		}
		j.probeRows, j.buildRows = j.probeRows[:0], j.buildRows[:0]
		if j.probeKey >= 0 {
			j.sel = filterRows(b, 0, b.Len, j.filter, j.sel)
			// Sized for one match per row, the common case of a dimension.
			j.probeRows, j.buildRows = slices.Grow(j.probeRows, len(j.sel)), slices.Grow(j.buildRows, len(j.sel))
			key := b.Cols[j.probeKey : j.probeKey+1]
			for _, r := range j.sel {
				for br := j.build.first(key, int(r)); br >= 0; br = j.build.next[br] {
					j.probeRows = append(j.probeRows, r)
					j.buildRows = append(j.buildRows, br)
				}
			}
		}
		if len(j.probeRows) == 0 {
			continue
		}
		for ci := range j.batch.Cols {
			j.batch.Cols[ci].Reset(metadata.TypeInvalid) // takes its source's type
		}
		for ci := range b.Cols {
			j.batch.Cols[ci].AppendRows(&b.Cols[ci], j.probeRows)
		}
		for ci := range j.build.rows.Cols {
			j.batch.Cols[len(b.Cols)+ci].AppendRows(&j.build.rows.Cols[ci], j.buildRows)
		}
		j.batch.Len = len(j.probeRows)
		return &j.batch, nil
	}
}

func (j *joinIterator) Stats() QueryStats { return j.probe.Stats() }

func (j *joinIterator) Close() error {
	err := j.probe.Close()
	j.cancel()
	return err
}

// predicatesFor selects WHERE conjuncts for a table ref. includeUnqualified
// adds predicates with no qualifier (single-table queries).
func predicatesFor(where []sqlparse.Predicate, refName string, includeUnqualified bool) []sqlparse.Predicate {
	var out []sqlparse.Predicate
	for _, p := range where {
		if p.Table == refName || (includeUnqualified && p.Table == "") {
			out = append(out, p)
		}
	}
	return out
}

func stripQualifiers(cols []string) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = bareName(c)
	}
	return out
}

// bareName strips a column reference's qualifiers: o.city → city.
func bareName(col string) string { return col[strings.LastIndexByte(col, '.')+1:] }

// colRef is one column reference of a statement: o.city is {"o", "city"}.
type colRef struct{ table, column string }

// references lists the columns stmt reads from its FROM relation — select
// items, aggregate inputs, GROUP BY terms — plus those of preds, the
// predicates the engine will apply to that relation's rows. all reports a
// SELECT *, which reads everything. ORDER BY is absent on purpose: it binds
// to result columns.
func references(stmt *sqlparse.SelectStmt, preds []sqlparse.Predicate) (refs []colRef, all bool) {
	for _, it := range stmt.Items {
		if it.Star {
			return nil, true
		}
		if it.Column != "" { // COUNT(*) reads no column
			refs = append(refs, colRef{it.Table, it.Column})
		}
	}
	for _, g := range stmt.GroupBy {
		dot := strings.LastIndexByte(g, '.')
		refs = append(refs, colRef{g[:max(dot, 0)], g[dot+1:]})
	}
	for _, p := range preds {
		refs = append(refs, colRef{p.Table, p.Column})
	}
	return refs, false
}

func appendUnique(cols []string, c string) []string {
	if slices.Contains(cols, c) {
		return cols
	}
	return append(cols, c)
}

// tableSchema describes a FROM source that is a plain table; nil for a join
// or a subquery, whose columns only running it tells, and for a table its
// catalog cannot describe (the scan reports that).
func (e *Engine) tableSchema(ref *sqlparse.TableRef) *metadata.Schema {
	if ref.Join != nil || ref.Sub != nil {
		return nil
	}
	catalog := ref.Qualifier
	if catalog == "" {
		catalog = e.defaultCat
	}
	conn, ok := e.connectors[catalog]
	if !ok {
		return nil
	}
	schema, _ := conn.Schema(ref.Name) // nil with the error
	return schema
}

// selectionColumns is the projection a plain selection pushes down: the
// select items, the ORDER BY terms (a backend that orders must return what
// it orders by) and the columns of the residual predicates the engine still
// has to apply. nil, all columns, for SELECT *. Names pass as written: a
// backend rejects one it does not know.
func selectionColumns(stmt *sqlparse.SelectStmt, residual []sqlparse.Predicate) []string {
	var cols []string
	for _, it := range stmt.Items {
		if it.Star {
			return nil
		}
		cols = appendUnique(cols, it.Column)
	}
	for _, o := range stmt.OrderBy {
		cols = appendUnique(cols, bareName(o.Column))
	}
	for _, p := range residual {
		cols = appendUnique(cols, p.Column)
	}
	return cols
}

// fallbackColumns is the projection of the row scan beneath an engine-side
// aggregation: whatever the statement and its residual predicates read that
// the schema has. A name the schema lacks binds to NULL, as it does over all
// columns. A statement that reads nothing — COUNT(*) — still counts rows,
// so it asks for one column: the first that is not a blob, the one type a
// backend may not serve. nil, all columns, for SELECT * or without a schema.
func fallbackColumns(stmt *sqlparse.SelectStmt, residual []sqlparse.Predicate, schema *metadata.Schema) []string {
	refs, all := references(stmt, residual)
	if all || schema == nil {
		return nil
	}
	var cols []string
	for _, r := range refs {
		if schema.FieldIndex(r.column) >= 0 {
			cols = appendUnique(cols, r.column)
		}
	}
	if len(cols) > 0 {
		return cols
	}
	for _, f := range schema.Fields {
		if f.Type != metadata.TypeBytes {
			return []string{f.Name}
		}
	}
	return nil
}

// sideColumns is the projection of the join side named side: its join key,
// and every reference that findColumn can bind to it. A reference binds to
// the exact alias.column first and else to the first column with the same
// bare name, so a side can skip a column it has only when the reference names
// the other side and that side is known to have it; an unqualified name is
// fetched on every side that has it.
func sideColumns(refs []colRef, key, side string, schema *metadata.Schema, other string, otherSchema *metadata.Schema) []string {
	var cols []string
	if k := bareName(key); schema.FieldIndex(k) >= 0 {
		cols = append(cols, k)
	}
	for _, r := range refs {
		elsewhere := r.table == other && r.table != side && otherSchema != nil && otherSchema.FieldIndex(r.column) >= 0
		if !elsewhere && schema.FieldIndex(r.column) >= 0 {
			cols = appendUnique(cols, r.column)
		}
	}
	return cols
}

// aggWindow is the rows of a batch aggregate folds at a time.
const aggWindow = 1024

// aggregate is the engine-side hash aggregation: it folds the rows of src
// that pass filter into one accumulator set per group, batch by batch — the
// peak engine footprint is one batch plus the group table, not the input —
// and returns the groups as an in-memory relation laid out like a pushed-down
// aggregate's response: the GROUP BY columns, then one column per aggregate
// named by OutputName, rows in the order pushdown returns groups (key order,
// record.Vector.KeyCompare: ascending GROUP BY values, NULL first). A batch
// is walked in windows of aggWindow rows: a row finds its group in a
// record.KeyIndex of its typed GROUP BY cells, and each aggregate then folds
// its input vector for the window (fold). The window's selection and group
// arrays live on the stack, so no array grows with the input.
func aggregate(ctx context.Context, src RowIterator, filter []boundPredicate, stmt *sqlparse.SelectStmt) (RowIterator, error) {
	var aggs []sqlparse.SelectItem
	var inputs []string
	for _, it := range stmt.Items {
		if it.Func != sqlparse.FuncNone {
			aggs = append(aggs, it)
			inputs = append(inputs, qualName(it.Table, it.Column))
		}
	}
	groupIdx := bindColumns(src.Columns(), stmt.GroupBy)
	inputIdx := bindColumns(src.Columns(), inputs)
	var (
		index  record.KeyIndex
		keys   = make([]record.Vector, len(groupIdx)) // a batch's GROUP BY cells
		values = make([]record.Vector, len(groupIdx)) // group g's GROUP BY values are row g
		n      int                                    // groups
		states []record.Agg                           // group g's aggregates are states[g*len(aggs):][:len(aggs)]
		window [aggWindow]int32                       // a window's selected rows
		ids    [aggWindow]int32                       // the group of each
		one    = make([]int32, 1)
	)
	for {
		b, err := src.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for i, gi := range groupIdx {
			if gi >= 0 {
				keys[i] = b.Cols[gi]
				continue
			}
			keys[i].Reset(metadata.TypeInvalid) // a missing column: NULL in every row
			keys[i].AppendNulls(b.Len)
		}
		for from := 0; from < b.Len; from += aggWindow {
			sel := filterRows(b, from, min(from+aggWindow, b.Len), filter, window[:0])
			groups := ids[:len(sel)]
			for j, r := range sel {
				g, found := index.Add(keys, int(r))
				if !found {
					// The group's values are copied once per group, not per row.
					one[0] = r
					for i := range keys {
						values[i].AppendRows(&keys[i], one)
					}
					n++
					for range aggs {
						states = append(states, record.Agg{})
					}
				}
				groups[j] = int32(g)
			}
			for i, it := range aggs {
				if err := fold(states, len(aggs), i, it, b, inputIdx[i], sel, groups); err != nil {
					return nil, err
				}
			}
		}
	}
	if n == 0 && len(stmt.GroupBy) == 0 {
		n = 1
		states = make([]record.Agg, len(aggs))
	}
	// Groups come out as a pushed-down aggregate's do, in key order: by each
	// GROUP BY value under record.Vector.KeyCompare, which no two groups tie.
	order := make([]int32, n)
	for g := range order {
		order[g] = int32(g)
	}
	slices.SortFunc(order, func(a, b int32) int {
		for i := range values {
			if c := values[i].KeyCompare(int(a), &values[i], int(b)); c != 0 {
				return c
			}
		}
		return 0
	})
	out := Batch{Columns: append([]string(nil), stmt.GroupBy...), Cols: make([]record.Vector, len(groupIdx)+len(aggs)), Len: len(order)}
	for i := range groupIdx {
		out.Cols[i].AppendRows(&values[i], order)
	}
	for i, it := range aggs {
		out.Columns = append(out.Columns, it.OutputName())
		v := &out.Cols[len(groupIdx)+i]
		kind := it.Func.Agg()
		v.Reset(kind.FinalType())
		for _, g := range order {
			states[int(g)*len(aggs)+i].AppendFinal(v, kind)
		}
	}
	return newBatchIterator(out, QueryStats{}), nil
}

// fold folds aggregate ai's input, batch column col (-1 is NULL), of the
// selected rows into their groups' states: row sel[j] into group groups[j].
// The column's type is switched on once per batch; a number is read straight
// from Floats or Ints. SUM/AVG/MIN/MAX over a string or blob column is an
// error, as in the OLAP layer, never coerced to 0, so the engine-side
// fallback stays equivalent to pushdown.
func fold(states []record.Agg, naggs, ai int, it sqlparse.SelectItem, b *Batch, col int, sel, groups []int32) error {
	st := func(j int) *record.Agg { return &states[int(groups[j])*naggs+ai] }
	if col < 0 {
		if it.Func == sqlparse.FuncCount && it.Column == "" { // COUNT(*)
			for j := range sel {
				st(j).Count++
			}
		}
		return nil
	}
	v := &b.Cols[col]
	switch {
	case it.Func == sqlparse.FuncCount:
		for j, r := range sel {
			if !v.IsNull(int(r)) {
				st(j).Count++
			}
		}
	case v.Type == metadata.TypeDouble:
		for j, r := range sel {
			if !v.IsNull(int(r)) {
				st(j).Add(v.Floats[r])
			}
		}
	case v.Type == metadata.TypeLong || v.Type == metadata.TypeTimestamp || v.Type == metadata.TypeBool:
		for j, r := range sel {
			if !v.IsNull(int(r)) {
				st(j).Add(float64(v.Ints[r]))
			}
		}
	case v.Type == metadata.TypeString || v.Type == metadata.TypeBytes:
		return fmt.Errorf("fedsql: %s over a %s column is not supported; use COUNT", it.OutputName(), v.Type)
	}
	return nil
}

func qualName(table, column string) string {
	if table != "" {
		return table + "." + column
	}
	return column
}

// projection derives the result's column names and, beside each, the source
// column it is read from: a plain item reads its (qualified) column under
// its alias, an aggregate item reads the column the aggregation — pushed
// down or engine-side — named by OutputName, and * reads star.
func projection(stmt *sqlparse.SelectStmt, star []string) (names, refs []string, err error) {
	for _, it := range stmt.Items {
		switch {
		case it.Star:
			names = append(names, star...)
			refs = append(refs, star...)
		case it.Func != sqlparse.FuncNone:
			names = append(names, it.OutputName())
			refs = append(refs, it.OutputName())
		default:
			ref := qualName(it.Table, it.Column)
			if it.Alias != "" {
				names = append(names, it.Alias)
			} else {
				names = append(names, ref)
			}
			refs = append(refs, ref)
		}
	}
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("fedsql: empty projection")
	}
	return names, refs, nil
}

// orderAndLimit applies ORDER BY / LIMIT to collected rows: row positions
// sort stably by the typed cells (record.Vector.Compare), and the first LIMIT of them
// are gathered into the output.
func orderAndLimit(out *Batch, stmt *sqlparse.SelectStmt) (*Batch, error) {
	n := out.Len
	if stmt.Limit > 0 {
		n = min(n, stmt.Limit)
	}
	if len(stmt.OrderBy) == 0 {
		out.Slice(0, n)
		return out, nil
	}
	idx := make([]int, len(stmt.OrderBy))
	for i, o := range stmt.OrderBy {
		if idx[i] = findColumn(out.Columns, o.Column); idx[i] < 0 {
			return nil, fmt.Errorf("fedsql: ORDER BY column %q not in projection", o.Column)
		}
	}
	perm := make([]int32, out.Len)
	for r := range perm {
		perm[r] = int32(r)
	}
	sort.SliceStable(perm, func(a, b int) bool {
		for i, o := range stmt.OrderBy {
			if c := out.Cols[idx[i]].Compare(int(perm[a]), int(perm[b])); c != 0 {
				return (c < 0) != o.Desc
			}
		}
		return false
	})
	sorted := &Batch{Columns: out.Columns, Cols: make([]record.Vector, len(out.Cols)), Len: n}
	for ci := range out.Cols {
		sorted.Cols[ci].AppendRows(&out.Cols[ci], perm[:n])
	}
	return sorted, nil
}
