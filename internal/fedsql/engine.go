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
	out, stats, plan, err := e.run(ctx, stmt, new(Batch))
	if err != nil {
		return nil, err
	}
	return &Result{Columns: out.Columns, Rows: out.AppendRows(nil), Stats: stats, Plan: plan}, nil
}

// run runs one SELECT through the pipeline every query shape shares:
// resolveRef yields the FROM clause as an iterator, consume drives it into
// typed output vectors: dst's, reused, and dst is what run returns unless an
// ORDER BY gathers the rows into a sorted copy (collect).
func (e *Engine) run(ctx context.Context, stmt *sqlparse.SelectStmt, dst *Batch) (*Batch, QueryStats, []string, error) {
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
	out, err := rel.consume(ctx, stmt, dst)
	stats, plan := rel.finish(err)
	if err != nil {
		return nil, QueryStats{}, nil, err
	}
	return out, stats, plan, nil
}

// consume drives the relation to its output rows in dst's vectors: residual
// filter, then aggregate or project, then ORDER BY/LIMIT. An engine-side
// aggregation is itself a relation — its groups, laid out like a pushed-down
// aggregate's response — so both kinds reach collect the same way.
func (rel *relation) consume(ctx context.Context, stmt *sqlparse.SelectStmt, dst *Batch) (*Batch, error) {
	defer rel.src.Close()
	filter := bindPredicates(rel.residual, rel.src.Columns())
	if !stmt.HasAggregates() || rel.aggregated {
		return collect(ctx, rel.src, filter, rel.star, stmt, rel.ordered, dst)
	}
	groups, err := aggregate(ctx, rel.src, filter, stmt)
	if err != nil {
		return nil, err
	}
	defer groups.Close()
	return collect(ctx, groups, nil, groups.Columns(), stmt, false, dst)
}

// collect is the pipeline's tail and the one place iterator output becomes
// output rows: it binds the projection to batch columns, appends the rows
// that pass filter to out's typed vectors — emptied, their arrays kept, and
// grown by doubling — and applies ORDER BY/LIMIT unless the backend already
// did. An unordered LIMIT stops pulling as soon as it is met — any
// stmt.Limit rows are a correct answer — and the caller's Close then
// cancels the backend scan.
func collect(ctx context.Context, src RowIterator, filter []boundPredicate, star []string, stmt *sqlparse.SelectStmt, ordered bool, out *Batch) (*Batch, error) {
	names, refs, err := projection(stmt, star)
	if err != nil {
		return nil, err
	}
	idx := bindColumns(src.Columns(), refs)
	out.Columns, out.Len = names, 0
	out.Cols = slices.Grow(out.Cols[:0], len(names))[:len(names)]
	for ci := range out.Cols {
		out.Cols[ci].Reset(metadata.TypeInvalid) // takes its source's type
	}
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
		sub, stats, plan, err := e.run(ctx, ref.Sub, new(Batch))
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
// side: its statement runs to completion into the typed vectors of a join
// table taken from the pool (joinTable), concurrently with opening the left
// side so both backends' scatter-gathers overlap. The left side is the probe
// side and stays an iterator — its rows flow through joinIterator as the
// consumer pulls and are never held as a joined slice.
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
		t          = joinTables.Get().(*joinTable)
		buildStats QueryStats
		buildPlan  []string
		buildErr   error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		// A side statement has no ORDER BY: run leaves its rows in t.rows.
		_, buildStats, buildPlan, buildErr = e.run(ctx, rightStmt, &t.rows)
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
		t.release()
		return nil, err
	}

	t.index(findColumn(t.rows.Columns, j.RightCol))
	it := &joinIterator{
		probe:    probe.src,
		cancel:   cancel,
		filter:   bindPredicates(probe.residual, probe.src.Columns()),
		probeKey: findColumn(probe.src.Columns(), j.LeftCol),
		build:    t,
	}
	// Output columns are alias.column for both sides, probe side first (a
	// side that is itself a join is qualified already); SELECT * is the
	// sorted union of their bare names.
	for _, c := range probe.src.Columns() {
		it.batch.Columns = append(it.batch.Columns, qualName(j.Left.RefName(), c))
	}
	for _, c := range t.rows.Columns {
		it.batch.Columns = append(it.batch.Columns, qualName(j.Right.RefName(), c))
	}
	t.out = slices.Grow(t.out[:0], len(it.batch.Columns))[:len(it.batch.Columns)]
	it.batch.Cols = t.out
	star := stripQualifiers(it.batch.Columns)
	sort.Strings(star)
	star = slices.Compact(star)

	stats := probe.stats
	stats.Merge(buildStats)
	return &relation{src: it, star: star, scan: probe.scan, stats: stats,
		plan:     append(append([]string(nil), probe.plan...), buildPlan...),
		residual: after}, nil
}

// joinTable is a hash join's build side and the join's working memory: the
// build rows as they were collected, typed, a record.KeyIndex of their key
// cells, and the rows of each key chained in row order (a NULL key joins
// nothing); then, for each probe batch, its selection, its matches and the
// joined output vectors. Tables come from joinTables and go back at the
// join's Close, so a query reuses the arrays and the index an earlier join
// grew and, once they are large enough, allocates none of them.
type joinTable struct {
	rows      Batch
	keys      record.KeyIndex
	head      []int32 // the first row of each key
	next      []int32 // the following row with the same key, -1 after the last
	sel       []int32
	probeRows []int32 // the current probe batch's matches: probe row,
	buildRows []int32 // and build row
	out       []record.Vector
}

var joinTables = sync.Pool{New: func() any { return new(joinTable) }}

// index indexes the collected rows by their column key; -1 (no such
// column) leaves the index empty, so nothing joins.
func (t *joinTable) index(key int) {
	t.head = t.head[:0]
	if key < 0 {
		return
	}
	n := t.rows.Len
	t.next = slices.Grow(t.next[:0], n)[:n]
	v := t.rows.Cols[key : key+1]
	t.keys.Reserve(v, n)
	// Chained last row first, so each chain runs in row order.
	for r := n - 1; r >= 0; r-- {
		if v[0].IsNull(r) {
			continue
		}
		t.next[r] = -1
		if k, seen := t.keys.Add(v, r); seen {
			t.next[r], t.head[k] = t.head[k], int32(r)
		} else {
			t.head = append(t.head, int32(r))
		}
	}
}

// first returns the first build row whose key equals row r of key, or -1.
func (t *joinTable) first(key []record.Vector, r int) int32 {
	if k, ok := t.keys.Find(key, r); ok {
		return t.head[k]
	}
	return -1
}

// release returns the table to joinTables with every string and blob slot
// of its vectors and index cleared, so a pooled table pins no dictionary or
// deep-store object.
func (t *joinTable) release() {
	clearVectors(t.rows.Cols[:cap(t.rows.Cols)])
	clearVectors(t.out[:cap(t.out)])
	t.rows.Columns = nil
	t.keys.Reset()
	joinTables.Put(t)
}

// clearVectors clears every string and blob slot of vs up to capacity, so a
// pooled vector pins nothing it was filled from.
func clearVectors(vs []record.Vector) {
	for i := range vs {
		clear(vs[i].Strs[:cap(vs[i].Strs)])
		clear(vs[i].Bytes[:cap(vs[i].Bytes)])
	}
}

// joinIterator is the hash-join operator: each probe batch becomes one
// output batch holding, for every probe row that passes the probe side's
// residual filter, one row per build row with an equal key (joinTable). The
// matches are found first, as row pairs, and then gathered column by column
// into typed output vectors from both sides. SELECT * over the join and bare
// column references resolve through findColumn: the probe side wins a clash.
type joinIterator struct {
	probe    RowIterator        // kept past Close: relation.finish reads its Stats
	cancel   context.CancelFunc // releases the join's context; see Close
	filter   []boundPredicate
	probeKey int
	build    *joinTable // nil once Close has returned it to the pool
	batch    Batch      // the output; its vectors are build.out
}

func (j *joinIterator) Columns() []string { return j.batch.Columns }

func (j *joinIterator) Next(ctx context.Context) (*Batch, error) {
	t := j.build
	if t == nil {
		return nil, io.EOF
	}
	for {
		b, err := j.probe.Next(ctx)
		if err != nil {
			return nil, err
		}
		t.probeRows, t.buildRows = t.probeRows[:0], t.buildRows[:0]
		if j.probeKey >= 0 {
			t.sel = filterRows(b, 0, b.Len, j.filter, t.sel)
			// Sized for one match per row, the common case of a dimension.
			t.probeRows, t.buildRows = slices.Grow(t.probeRows, len(t.sel)), slices.Grow(t.buildRows, len(t.sel))
			key := b.Cols[j.probeKey : j.probeKey+1]
			for _, r := range t.sel {
				for br := t.first(key, int(r)); br >= 0; br = t.next[br] {
					t.probeRows = append(t.probeRows, r)
					t.buildRows = append(t.buildRows, br)
				}
			}
		}
		if len(t.probeRows) == 0 {
			continue
		}
		for ci := range j.batch.Cols {
			j.batch.Cols[ci].Reset(metadata.TypeInvalid) // takes its source's type
		}
		for ci := range b.Cols {
			j.batch.Cols[ci].AppendRows(&b.Cols[ci], t.probeRows)
		}
		for ci := range t.rows.Cols {
			j.batch.Cols[len(b.Cols)+ci].AppendRows(&t.rows.Cols[ci], t.buildRows)
		}
		j.batch.Len = len(t.probeRows)
		return &j.batch, nil
	}
}

func (j *joinIterator) Stats() QueryStats { return j.probe.Stats() }

// Close closes the probe side, releases the join's context and returns the
// join table to the pool, once.
func (j *joinIterator) Close() error {
	err := j.probe.Close()
	j.cancel()
	if j.build != nil {
		j.build.release()
		j.build, j.batch.Cols = nil, nil
	}
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
