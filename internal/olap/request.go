package olap

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/olap/qcache"
	"repro/internal/record"
)

// ErrTooManySegments is returned when a query would scan more sealed
// segments than its MaxSegments budget allows.
var ErrTooManySegments = errors.New("olap: query exceeds MaxSegments")

// QueryRequest is one typed broker query with its per-request options. Its
// deadline is the caller's context's; workers and routing are the broker's
// (BrokerOptions).
type QueryRequest struct {
	// Query is the structured query (required).
	Query *Query
	// MaxSegments fails the request with ErrTooManySegments when the routed
	// sealed-segment fan-out exceeds it; 0 means unlimited.
	MaxSegments int
	// TrimExact disables the bounded top-K path for ORDER BY/LIMIT queries.
	// The default (false) trims candidates at segments and servers — fast,
	// exactly like Pinot, and for grouped aggregations potentially inexact
	// under pathological cross-server skew (a group trimmed on one server
	// may survive on another). TrimExact: true ships every row and group,
	// making results byte-identical to a full sort at full fan-out cost.
	TrimExact bool
	// TrimSize overrides the minimum group budget trimmed grouped top-K
	// aggregations keep per segment and server (0 = DefaultGroupTrimSize);
	// the kept count is max(5·(Limit+Offset), TrimSize).
	TrimSize int
	// Tenant names the workload issuing this request, for the broker's
	// per-tenant admission quotas ("" is the default tenant). Tenants are
	// an admission concept only: cached results are shared across tenants,
	// since the rows are identical.
	Tenant string
}

// RouteInfo reports how a request was routed, for EXPLAIN output.
type RouteInfo struct {
	// Router is the strategy name ("round-robin", "replica-group",
	// "partition").
	Router string
	// ReplicaGroup is the replica set a replica-group-aware router
	// preferred (-1 otherwise).
	ReplicaGroup int
	// SegmentsRouted counts sealed segments assigned to servers.
	SegmentsRouted int
	// ServersContacted / PartitionsPruned mirror the response stats.
	ServersContacted int
	PartitionsPruned int
}

// QueryResponse is the typed result of Broker.ExecuteBatch and Execute.
//
// Batch holds the answer's rows in typed column vectors, as the partials and
// scans produced them; it is what the cache keeps and the SQL engine reads.
// It is read-only: on a broker with a result cache, hits and coalesced
// responses share the cached batch (only the response struct and its Stats
// are per-caller copies). Callers that need to mutate or sort in place must
// copy the vectors first.
type QueryResponse struct {
	Batch record.Batch
	// Columns and Rows are Batch as names and boxed cells, which
	// Broker.Execute fills per call (Rows is the caller's own) and
	// ExecuteBatch, the cache and Segment.Execute leave nil. The pipeline
	// benchmark's harness test reads them.
	Columns []string
	Rows    [][]any
	Stats   ExecStats
	Route   RouteInfo
	// TrimK is the per-server top-K candidate budget the bounded ORDER
	// BY/LIMIT path applied (groups for aggregations, Limit+Offset rows for
	// selections); 0 when the query ran exact/untrimmed.
	TrimK int
}

// Execute is ExecuteBatch with the answer also boxed into Columns and Rows,
// for a caller that reads cells.
func (b *Broker) Execute(ctx context.Context, req *QueryRequest) (*QueryResponse, error) {
	resp, err := b.ExecuteBatch(ctx, req)
	if err != nil {
		return nil, err
	}
	resp.Columns, resp.Rows = resp.Batch.Columns, resp.Batch.AppendRows(nil) // resp is this caller's own
	return resp, nil
}

// ExecuteBatch runs one typed request and answers in Batch alone: admit it
// (per-tenant quota, bounded execution queue — see brokercache.go), serve it
// from the result cache when the table generation still matches, coalesce it
// onto an identical in-flight execution when one exists, and otherwise route
// (with the broker's Router), scatter one subquery per assigned server plus
// one scan per routed consuming partition, and merge the partial-aggregate
// states as they stream back. A scatter that fails because
// a routed server went down between routing and execution is re-routed once
// against the new liveness state before the error surfaces. Overload is
// reported as a typed ErrOverloaded, never by queueing without bound.
func (b *Broker) ExecuteBatch(ctx context.Context, req *QueryRequest) (*QueryResponse, error) {
	if err := b.prepare(ctx, req); err != nil {
		return nil, err
	}
	// Trace wiring: nest under a caller-provided span (the fedsql case), or
	// own a fresh trace when the broker has a tracer. The cache-hit fast
	// path then costs one pooled trace and its summary — E22 reports the
	// ratio as trace_overhead_x.
	span := obs.SpanFromContext(ctx)
	var ownedRoot obs.Span
	switch {
	case span.Active():
		span, ctx = obs.StartSpan(ctx, "broker.execute")
	case b.opts.Tracer != nil:
		ownedRoot = b.opts.Tracer.StartTrace("broker.execute")
		span = ownedRoot
		ctx = obs.ContextWithSpan(ctx, span)
	}
	resp, err := b.executeShared(ctx, req, req.Query)
	if span.Active() {
		if err != nil {
			span.SetAttr("error", err.Error())
		} else {
			span.SetRows(int64(resp.Batch.Len))
		}
		if ownedRoot.Active() {
			b.opts.Tracer.FinishTrace(ownedRoot) // ends the root itself
		} else {
			span.End()
		}
	}
	return resp, err
}

// prepare checks one request for every entry point: a request without a
// query, an ended context, a column the table cannot serve in its role and a
// type-invalid aggregation are rejected here, before any scan is scheduled,
// so the error surfaces even when routing or time bounds prune every
// segment.
func (b *Broker) prepare(ctx context.Context, req *QueryRequest) error {
	if req == nil || req.Query == nil {
		return fmt.Errorf("olap: nil query request")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return b.checkColumns(req.Query)
}

// checkColumns rejects a query naming a column the table cannot serve in
// that role (UnknownColumnError) and an aggregation its column's type does
// not define, as a scan of any segment would.
func (b *Broker) checkColumns(q *Query) error {
	schema := b.d.cfg.Schema
	known := func(role, name string) error {
		if f, ok := schema.Field(name); !ok || f.Type == metadata.TypeBytes {
			return &UnknownColumnError{Role: role, Column: name}
		}
		return nil
	}
	var err error // the first of the checks below to fail
	for _, f := range q.Filters {
		err = cmp.Or(err, known("filter", f.Column))
	}
	if len(q.Aggs) == 0 {
		for _, name := range q.Select {
			err = cmp.Or(err, known("select", name))
		}
		return err
	}
	for _, name := range q.GroupBy {
		err = cmp.Or(err, known("group-by", name))
	}
	for _, a := range q.Aggs {
		if a.Column != "" {
			f, _ := schema.Field(a.Column)
			err = cmp.Or(err, known("aggregation", a.Column), aggTypeError(a.Kind, a.Column, f.Type))
		}
	}
	return err
}

// scatterPlan is one routing round's decision: which servers scan which
// sealed segments, which consuming partitions are scanned beside them, and
// with what options and time bounds.
type scatterPlan struct {
	plan      *RoutePlan
	router    string
	servers   []int // assigned servers, ascending
	consuming []consumingScan
	contacted int // distinct servers either kind of scan touches
	opts      ExecOptions
	// bounds hold every row the query's filters on the time column keep:
	// servers prune the sealed segments outside them.
	bounds   timeBounds
	snapshot *querySnapshot
}

// route reports the plan as the RouteInfo of a response or stream.
func (sp *scatterPlan) route() RouteInfo {
	return RouteInfo{
		Router:           sp.router,
		ReplicaGroup:     sp.plan.ReplicaGroup,
		SegmentsRouted:   sp.plan.SegmentCount(),
		ServersContacted: sp.contacted,
		PartitionsPruned: sp.plan.PartitionsPruned,
	}
}

// planScatter routes one request under a route span, which also names the
// sink the round will run into: it snapshots the routable state, asks the
// router, enforces the MaxSegments budget, resolves the routed consuming
// partitions against the snapshot and derives the query's time bounds.
func (b *Broker) planScatter(ctx context.Context, req *QueryRequest, q *Query, sink string) (*scatterPlan, error) {
	router := b.opts.Router
	routeSp, _ := obs.StartSpan(ctx, "route")
	routeSp.SetAttr("router", router.Name())
	routeSp.SetAttr("sink", sink)
	view, snapshot := b.routeView()
	plan, err := router.Route(view, q)
	if err != nil {
		routeSp.End()
		return nil, err
	}
	sortPlan(plan)
	routeSp.End()
	if req.MaxSegments > 0 {
		if n := plan.SegmentCount(); n > req.MaxSegments {
			return nil, fmt.Errorf("%w: %d segments routed, budget %d", ErrTooManySegments, n, req.MaxSegments)
		}
	}
	sp := &scatterPlan{plan: plan, router: router.Name(), snapshot: snapshot, opts: ExecOptions{
		Workers:   b.opts.Workers,
		TrimExact: req.TrimExact,
		TrimSize:  req.TrimSize,
	}, bounds: queryTimeBounds(q.Filters, b.d.cfg.Schema.TimeField)}
	contacted := make(map[int]bool, len(plan.Assignment)+len(plan.Consuming))
	for si := range plan.Assignment {
		sp.servers = append(sp.servers, si)
		contacted[si] = true
	}
	sort.Ints(sp.servers)
	// Keep only the consuming scans the router routed (partition pruning);
	// the stores were snapshotted atomically with the placement in
	// routeView, so a Seal racing this query can never drop rows between
	// the sealed and consuming views. A store whose times the time bounds
	// miss is skipped, by the rule sealed segments are pruned by
	// (Server.snapshotSegments); the snapshot is this query's own.
	for _, part := range plan.Consuming {
		if cs, ok := snapshot.consuming[part]; ok {
			cs.units = slices.DeleteFunc(cs.units, func(u scanUnit) bool { return !sp.bounds.overlaps(u.rows.minTime, u.rows.maxTime) })
			sp.consuming = append(sp.consuming, cs)
			contacted[cs.owner] = true
		}
	}
	sp.contacted = len(contacted)
	return sp, nil
}

// A sink is where a scatter round puts what its producers find. There are
// two because there are two kinds of answer: foldSink (aggregates and ordered
// selections cannot emit a row before they have seen every row) and batchSink
// (a stream of unordered selection rows must not hold the rows it has seen).
// Everything around the sink is the scatter's, the same for both.
type sink interface {
	// producer opens the share of one routed server or (consuming) one
	// routed consuming partition.
	producer(consuming bool) producer
	// close is called once, after the last producer has exited.
	close()
}

// A producer is one scatter goroutine's share of a sink.
type producer interface {
	// scan runs one unit into the sink and returns its scan stats; more =
	// false says the sink has had enough, which ends the share.
	scan(ctx context.Context, u scanUnit) (st ExecStats, more bool, err error)
	// finish ends the share: st sums its units' scan stats and its segment
	// snapshot's counters (pruned, reloaded); err is what stopped it.
	finish(st ExecStats, err error) error
}

// scanUnit is one unit of a producer's share: a sealed segment, or (seg nil)
// the prefix snapshot of a consuming store — with its upsert validity bitmap
// and, for a sealed segment, the validity version that names it.
type scanUnit struct {
	seg     *Segment
	rows    *scanSet
	valid   *Bitmap
	version uint64
}

// scatter launches one routing round: one goroutine per routed server
// (Server.scanSegments) and per routed consuming partition
// (consumingScan.scanUnits), each running its share of sk under a
// server.scan or consuming.scan span. The returned context is the round's: it
// ends — with the cause — when a producer fails (the first error wins and
// stops the others), when the request's context ends, or when the terminal
// consuming the sink cancels it because it is done. sk.close runs once the
// last producer has exited, which is how a terminal waits for them. Span
// handles are generation-stamped: a producer outliving the trace writes no-ops.
func (b *Broker) scatter(ctx context.Context, sp *scatterPlan, sk sink) (context.Context, context.CancelCauseFunc) {
	ctx, cancel := context.WithCancelCause(ctx)
	var pending atomic.Int32
	pending.Store(int32(len(sp.servers) + len(sp.consuming) + 1))
	release := func() {
		if pending.Add(-1) == 0 {
			sk.close()
		}
	}
	run := func(name string, consuming bool, share func(ctx context.Context, span obs.Span, out producer) (ExecStats, error)) {
		defer release()
		span, sctx := obs.StartSpan(ctx, name)
		out := sk.producer(consuming)
		st, err := share(sctx, span, out)
		if err = out.finish(st, err); err != nil {
			span.SetAttr("error", err.Error())
			cancel(err)
		} else {
			span.SetRows(st.RowsScanned)
		}
		span.End()
	}
	for _, si := range sp.servers {
		srv, segs := b.d.serverAt(si), sp.plan.Assignment[si]
		go run("server.scan", false, func(ctx context.Context, span obs.Span, out producer) (ExecStats, error) {
			span.SetAttr("server", srv.Name())
			return srv.scanSegments(ctx, segs, sp.snapshot.valid, sp.bounds, sp.opts, out)
		})
	}
	for _, cs := range sp.consuming {
		owner := b.d.serverAt(cs.owner)
		go run("consuming.scan", true, func(ctx context.Context, span obs.Span, out producer) (ExecStats, error) {
			// What goes in (the span's rows are what came out) and the access
			// path: consuming segments carry no index, it is always the kernels.
			if span.Active() {
				span.SetAttr("partition", strconv.Itoa(cs.part))
				span.SetAttr("rows_in", strconv.Itoa(cs.rowsIn()))
				span.SetAttr("access", "kernel")
			}
			if owner.Down() {
				return ExecStats{}, fmt.Errorf("%w: consuming partition %d owner %s", ErrServerDown, cs.part, owner.Name())
			}
			return cs.scanUnits(ctx, out)
		})
	}
	release()
	return ctx, cancel
}

// rerouted runs one routing round and, when it failed because a routed
// server went down after routing (or a rebalance or compaction swap retired
// the routed copy), runs it once more: a fresh snapshot steers the retry to
// the current placement, unless the strategy pins the segment on the failed
// server (upsert owner routing).
func rerouted[T any](ctx context.Context, round func() (T, error)) (T, error) {
	v, err := round()
	if err != nil && (errors.Is(err, ErrServerDown) || errors.Is(err, ErrSegmentUnavailable)) && ctx.Err() == nil {
		v, err = round()
	}
	return v, err
}

// executeRouted performs one routing round into the sink the query shape
// needs: an unordered selection collects the batch stream (any Limit+Offset
// matching rows answer it, so the round stops as soon as they are in);
// everything else folds, and the merged partial is finalized.
func (b *Broker) executeRouted(ctx context.Context, req *QueryRequest, q *Query) (*QueryResponse, error) {
	if streamable(q) {
		qs, err := b.openStream(ctx, req, q)
		if err != nil {
			return nil, err
		}
		defer qs.Close()
		mergeSp, _ := obs.StartSpan(ctx, "merge")
		defer mergeSp.End()
		out := record.Batch{Columns: qs.Columns(), Cols: make([]record.Vector, len(qs.Columns()))}
		var all []int32 // 0, 1, …: every row of a stream batch
		for {
			rb, err := qs.Next(ctx)
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			for len(all) < rb.Len {
				all = append(all, int32(len(all)))
			}
			for c := range rb.Cols {
				out.Cols[c].AppendRows(&rb.Cols[c], all[:rb.Len])
			}
			out.Len += rb.Len
		}
		qs.Close() // joins the producers: the stats below are complete
		mergeSp.SetRows(int64(out.Len))
		return &QueryResponse{Batch: out, Stats: qs.Stats(), Route: qs.Route()}, nil
	}
	g, err := b.fold(ctx, req, q)
	if err != nil {
		return nil, err
	}
	finSp, _ := obs.StartSpan(ctx, "finalize")
	res, err := g.acc.Finalize(q)
	finSp.End()
	if err != nil {
		return nil, err
	}
	res.Stats.ServersContacted = g.sp.contacted
	res.Stats.PartitionsPruned = g.sp.plan.PartitionsPruned
	res.Route = g.sp.route()
	if g.tp != nil {
		if len(q.Aggs) > 0 {
			res.TrimK = g.tp.groupK
		} else {
			res.TrimK = g.tp.rowK
		}
	}
	return res, nil
}

// MaterializePartial executes one request and returns the merged mergeable
// partial state instead of a finalized response, together with the
// generation the routing snapshot was taken at — the primitive the matview
// registry uses to (re)materialize a standing view. The snapshot generation
// is read inside the same critical section that captures the routable data,
// so the returned partial contains exactly the mutations with
// ViewMutation.Seq at or below it. Trimming is forced exact: a view's state
// must cover every group, never a top-K candidate subset. The request runs
// directly (no cache, no coalescing, no admission), with the broker's usual
// one re-route.
func (b *Broker) MaterializePartial(ctx context.Context, req *QueryRequest) (*Partial, int64, error) {
	if err := b.prepare(ctx, req); err != nil {
		return nil, 0, err
	}
	r2 := *req
	r2.TrimExact = true
	g, err := rerouted(ctx, func() (*folded, error) { return b.fold(ctx, &r2, req.Query) })
	if err != nil {
		return nil, 0, err
	}
	return g.acc, g.sp.snapshot.gen, nil
}

// folded is one routing round's merged, unfinalized output: the partial
// contains exactly the mutations with seq <= sp.snapshot.gen.
type folded struct {
	acc *Partial
	sp  *scatterPlan
	tp  *topKPlan
}

// foldSink is the sink of aggregates and ordered selections: every unit
// answers with a Partial; a producer merges its units' once it has them all
// and trims the merge to the query's top-K bound before it crosses to the
// broker, so at most groupK groups / rowK rows per producer do
// (GroupsShipped/RowsShipped count them).
type foldSink struct {
	q       *Query
	tp      *topKPlan // nil: exact, untrimmed execution
	results chan *Partial
	// cache, when set, holds sealed units' partials across queries (see
	// segmentKey): an aggregate on a broker with a cache.
	cache *qcache.Cache
}

func (f *foldSink) close() { close(f.results) }

func (f *foldSink) producer(consuming bool) producer {
	p := &foldProducer{sink: f, unitTP: f.tp}
	if consuming && len(f.q.Aggs) > 0 {
		// A consuming unit answers an aggregate exactly: groups trim once, on
		// the partition's merged partial. (A selection's top-K cut is exact.)
		p.unitTP = nil
	}
	return p
}

// foldProducer collects one producer's units' partials — runs — and merges
// them once, at finish. The mutex orders the collection of a server's pooled
// segment scans.
type foldProducer struct {
	sink   *foldSink
	unitTP *topKPlan
	mu     sync.Mutex
	own    []*Partial // the runs the producer scanned
	shared []*Partial // the cache's: read, never written
}

func (p *foldProducer) scan(_ context.Context, u scanUnit) (ExecStats, bool, error) {
	var part *Partial
	var err error
	switch {
	case u.seg == nil:
		part, err = u.rows.executePartial(p.sink.q, u.valid, p.unitTP)
	case p.sink.cache != nil:
		return p.scanCached(u)
	default:
		part, err = u.seg.executePartialTrim(p.sink.q, u.valid, p.unitTP)
	}
	if err != nil {
		return ExecStats{}, false, err
	}
	p.add(part, false)
	return part.stats, true, nil
}

// scanCached answers a sealed unit from the partial the cache holds for it,
// or scans the unit and caches its partial. A hit counts in SegmentsCached
// and nothing else. Either way the partial is shared with later queries, so
// it is a run the merge reads and never writes.
func (p *foldProducer) scanCached(u scanUnit) (ExecStats, bool, error) {
	var buf [128]byte
	key, ok := segmentKey(buf[:0], u, p.sink.q, p.unitTP)
	if ok {
		if v, hit := p.sink.cache.GetSegment(key); hit {
			p.add(v.(*Partial), true)
			return ExecStats{SegmentsCached: 1}, true, nil
		}
	}
	part, err := u.seg.executePartialTrim(p.sink.q, u.valid, p.unitTP)
	if err != nil {
		return ExecStats{}, false, err
	}
	if ok {
		p.sink.cache.PutSegment(u.seg.Name, u.version, string(key), part, part.size())
	}
	p.add(part, ok)
	return part.stats, true, nil
}

// add collects one unit's partial; shared marks one the cache holds.
func (p *foldProducer) add(part *Partial, shared bool) {
	p.mu.Lock()
	if shared {
		p.shared = append(p.shared, part)
	} else {
		p.own = append(p.own, part)
	}
	p.mu.Unlock()
}

// finish merges the producer's runs into one table it owns, so the top-K
// trim cuts it in place, and ships it.
func (p *foldProducer) finish(st ExecStats, err error) error {
	if err != nil {
		return err
	}
	acc := merged(p.sink.q, append(p.own, p.shared...), len(p.own))
	acc.stats = st
	acc.trimTopK(p.sink.q, p.sink.tp)
	if acc.agg {
		acc.stats.GroupsShipped = int64(acc.n)
	} else {
		acc.stats.RowsShipped = int64(acc.n)
	}
	p.sink.results <- acc
	return nil
}

// fold performs one routing round into a foldSink, collecting the
// producers' partials as they arrive and merging them once, at the end of
// the round, without finalizing. Under default trimming the merge holds
// O(K · producers) state instead of O(groups) — the top-K memory bound. On a
// failure or the request's deadline it returns at once, without waiting for
// scans still in flight.
func (b *Broker) fold(ctx context.Context, req *QueryRequest, q *Query) (*folded, error) {
	sp, err := b.planScatter(ctx, req, q, "fold")
	if err != nil {
		return nil, err
	}
	g := &folded{sp: sp}
	if !sp.opts.TrimExact {
		g.tp = planTopK(q, sp.opts.TrimSize)
	}
	// One slot per producer: a producer never blocks on a terminal that left.
	sk := &foldSink{q: q, tp: g.tp, results: make(chan *Partial, len(sp.servers)+len(sp.consuming))}
	if b.cache != nil && len(q.Aggs) > 0 {
		sk.cache = b.cache
	}
	sctx, cancel := b.scatter(ctx, sp, sk)
	defer cancel(nil)
	mergeSp, _ := obs.StartSpan(ctx, "merge")
	defer mergeSp.End()
	var runs []*Partial // each a producer's own, shipped to the broker
	for {
		select {
		case <-sctx.Done():
			return nil, context.Cause(sctx)
		case p, ok := <-sk.results:
			if ok {
				runs = append(runs, p)
				continue
			}
			// A producer that failed cancelled the round before it exited.
			if err := context.Cause(sctx); err != nil {
				return nil, err
			}
			g.acc = merged(q, runs, len(runs))
			if !g.acc.agg && g.acc.cols == nil {
				// Every unit was pruned: no scan named the columns.
				g.acc.cols = b.selection(q)
				g.acc.keys = make([]record.Vector, len(g.acc.cols))
			}
			mergeSp.SetRows(int64(g.acc.n))
			return g, nil
		}
	}
}

// consumingScan is one partition's unsealed rows as a query sees them: the
// prefix snapshots of its stores — any frozen ones mid-seal first, then the
// live one — each with its upsert validity bitmap, captured under the
// deployment lock and scanned, outside it, on the partition owner.
type consumingScan struct {
	owner int
	part  int
	units []scanUnit
}

// rowsIn is the number of rows the scan examines.
func (cs *consumingScan) rowsIn() int {
	n := 0
	for _, u := range cs.units {
		n += u.rows.n
	}
	return n
}

// scanUnits runs the partition's share of a scatter: its stores, one after
// the other through the segment kernels, until out has had enough.
func (cs *consumingScan) scanUnits(ctx context.Context, out producer) (ExecStats, error) {
	var stats ExecStats
	for _, u := range cs.units {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		st, more, err := out.scan(ctx, u)
		stats.Add(st)
		if err != nil || !more {
			return stats, err
		}
	}
	return stats, nil
}

// querySnapshot is the execution state captured atomically with the route
// view: the consuming stores' prefix snapshots per partition and the sealed
// segments' validity bitmaps. Capturing them in the same critical section
// that reads the sealed placement guarantees every row is in exactly one of
// the two views even while Seal runs concurrently, and that an upsert
// supersede is either wholly in the snapshot (old row masked, new row
// scanned) or wholly after it.
type querySnapshot struct {
	consuming map[int]consumingScan
	// valid maps a sealed segment to its shared upsert validity; a segment
	// absent from it has every row valid at version 0 (nil for non-upsert
	// tables).
	valid map[string]validity
	// gen is the generation read inside the critical section: because
	// visible-data mutations bump the generation in their own critical
	// sections, this snapshot contains exactly the mutations with
	// ViewMutation.Seq <= gen (see AddMutationHook).
	gen int64
}

// validity is a sealed segment's upsert validity as a query snapshot
// captures it: the shared bitmap (nil: every row valid) and the version that
// names it (segMeta.version).
type validity struct {
	bits    *Bitmap
	version uint64
}

// routeView snapshots the routable cluster state for a Router, together
// with the consuming stores and the sealed segments' validity bitmaps (one
// atomic view of sealed + consuming data under the deployment lock,
// O(columns) per store — no row or bitmap is copied); liveness and hosting
// are live closures over the servers.
func (b *Broker) routeView() (*RouteView, *querySnapshot) {
	d := b.d
	d.mu.Lock()
	view := &RouteView{
		Upsert:          d.cfg.Upsert,
		PartitionColumn: d.cfg.PartitionColumn,
		Partitions:      d.cfg.Partitions,
		Replicas:        d.cfg.Replicas,
		NumServers:      d.NumServers(),
	}
	snapshot := &querySnapshot{
		consuming: make(map[int]consumingScan, len(d.consuming)),
		gen:       d.gen.Load(),
	}
	view.Segments = make([]SegmentRoute, 0, len(d.placement))
	for name, replicas := range d.placement {
		part := -1
		if m := d.segMeta[name]; m != nil {
			part = m.partition
			if v := m.share(); v != nil {
				if snapshot.valid == nil {
					snapshot.valid = make(map[string]validity)
				}
				snapshot.valid[name] = validity{bits: v, version: m.version}
			}
		}
		view.Segments = append(view.Segments, SegmentRoute{
			Name:      name,
			Partition: part,
			Replicas:  append([]int(nil), replicas...),
		})
	}
	// One scan per partition holding unsealed rows: stores mid-seal first
	// (their rows stay visible until the sealed segment enters routing — the
	// seal swap is atomic under this same lock), then the live store.
	addUnit := func(part int, ms *mutableSegment) {
		if ms.n == 0 {
			return
		}
		cs, ok := snapshot.consuming[part]
		if !ok {
			view.ConsumingPartitions = append(view.ConsumingPartitions, part)
			cs = consumingScan{owner: d.partitionOwner[part], part: part}
		}
		cs.units = append(cs.units, scanUnit{rows: ms.snapshot(), valid: ms.validSnapshot()})
		snapshot.consuming[part] = cs
	}
	for part, stores := range d.sealing {
		for _, ms := range stores {
			addUnit(part, ms)
		}
	}
	for part, ms := range d.consuming {
		addUnit(part, ms)
	}
	d.mu.Unlock()
	sort.Slice(view.Segments, func(i, j int) bool { return view.Segments[i].Name < view.Segments[j].Name })
	sort.Ints(view.ConsumingPartitions)
	view.Live = func(i int) bool { return !d.serverAt(i).Down() }
	// Hosts counts retired copies: a snapshot that routed just before a
	// rebalance or compaction swap may name a replica whose copy was retired
	// in the meantime — the retired copy still answers exactly during the
	// grace window, so the router must not prune the segment's only live
	// replica.
	view.Has = func(i int, seg string) bool { return d.serverAt(i).Hosts(seg) }
	view.ServerName = func(i int) string { return d.serverAt(i).Name() }
	return view, snapshot
}

// defaultRouter serves brokers with no configured strategy: the v1
// behavior (partition-owner for upsert, rotating live replica otherwise).
var defaultRouter Router = &RoundRobinRouter{}
