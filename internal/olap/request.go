package olap

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/metadata"
	"repro/internal/obs"
)

// This file is the typed request/response half of the Query API v2: one
// QueryRequest carries the structured query plus per-request execution
// options, and one QueryResponse carries the rows plus the execution and
// routing stats EXPLAIN-style consumers need. Broker.Query/QueryCtx remain
// as thin conveniences over Execute.

// ErrTooManySegments is returned when a query would scan more sealed
// segments than its MaxSegments budget allows.
var ErrTooManySegments = errors.New("olap: query exceeds MaxSegments")

// Consistency selects how a query treats segments offloaded to the deep
// store.
type Consistency int

const (
	// ConsistencyFull (the default) transparently reloads offloaded
	// segments so the query sees every sealed row.
	ConsistencyFull Consistency = iota
	// ConsistencyHot skips offloaded segments without touching the deep
	// store: a latency-bounded answer over the hot set only, reported via
	// ExecStats.SegmentsSkipped.
	ConsistencyHot
)

// String names the consistency mode.
func (c Consistency) String() string {
	if c == ConsistencyHot {
		return "hot"
	}
	return "full"
}

// QueryRequest is one typed broker query with its per-request options.
// Zero-valued options inherit the broker's defaults.
type QueryRequest struct {
	// Query is the structured query (required).
	Query *Query
	// Timeout bounds this request; 0 inherits BrokerOptions.Timeout.
	Timeout time.Duration
	// Workers bounds the per-server segment-scan pool; 0 inherits
	// BrokerOptions.Workers.
	Workers int
	// MaxSegments fails the request with ErrTooManySegments when the routed
	// sealed-segment fan-out exceeds it; 0 means unlimited.
	MaxSegments int
	// Time restricts the query to a time window, overriding Query.Time
	// when set.
	Time *TimeRange
	// Consistency selects full (reload offloaded segments) or hot-only
	// execution.
	Consistency Consistency
	// Router overrides the broker's routing strategy for this request.
	Router Router
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

// QueryResponse is the typed result of Broker.Execute.
//
// Rows are read-only: on a broker with a result cache, hits and coalesced
// responses alias the shared cached row data (only the response struct and
// its Stats are per-caller copies). Callers that need to mutate or sort in
// place must copy the rows first.
type QueryResponse struct {
	Columns []string
	Rows    [][]any
	Stats   ExecStats
	Route   RouteInfo
	// TrimK is the per-server top-K candidate budget the bounded ORDER
	// BY/LIMIT path applied (groups for aggregations, Limit+Offset rows for
	// selections); 0 when the query ran exact/untrimmed.
	TrimK int
}

// Execute runs one typed request: admit it (per-tenant quota, bounded
// execution queue — see brokercache.go), serve it from the result cache when
// the table generation still matches, coalesce it onto an identical
// in-flight execution when one exists, and otherwise route (with the
// request's or broker's Router), scatter one subquery per assigned server
// plus one scan per routed consuming partition, and merge the
// partial-aggregate states as they stream back. A scatter that fails because
// a routed server went down between routing and execution is re-routed once
// against the new liveness state before the error surfaces. Overload is
// reported as a typed ErrOverloaded, never by queueing without bound.
func (b *Broker) Execute(ctx context.Context, req *QueryRequest) (*QueryResponse, error) {
	ctx, cancel, q, router, err := b.prepare(ctx, req)
	if err != nil {
		return nil, err
	}
	defer cancel()
	// Trace wiring: nest under a caller-provided span (the fedsql case), or
	// own a fresh trace when the broker has a tracer. The cache-hit fast
	// path then costs one pooled trace and its summary — benchjson gates
	// the ratio as obs_overhead.
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
	resp, err := b.executeShared(ctx, req, q, router)
	if span.Active() {
		if err != nil {
			span.SetAttr("error", err.Error())
		} else {
			span.SetRows(int64(len(resp.Rows)))
		}
		if ownedRoot.Active() {
			b.opts.Tracer.FinishTrace(ownedRoot) // ends the root itself
		} else {
			span.End()
		}
	}
	return resp, err
}

// prepare normalises one request for every entry point: the query with the
// request's time window laid over it, the effective router, and a context
// bounded by the effective timeout whose cancel the caller must call.
// Type-invalid aggregations are rejected here, before any scan is scheduled,
// so the error surfaces even when routing prunes every segment.
func (b *Broker) prepare(ctx context.Context, req *QueryRequest) (context.Context, context.CancelFunc, *Query, Router, error) {
	if req == nil || req.Query == nil {
		return nil, nil, nil, nil, fmt.Errorf("olap: nil query request")
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, nil, err
	}
	q := req.Query
	if req.Time != nil {
		q2 := *q
		q2.Time = req.Time
		q = &q2
	}
	for _, a := range q.Aggs {
		if a.Column == "" {
			continue
		}
		if f, ok := b.d.cfg.Schema.Field(a.Column); ok {
			if err := aggTypeError(a.Kind, a.Column, f.Type); err != nil {
				return nil, nil, nil, nil, err
			}
		}
	}
	router := req.Router
	if router == nil {
		router = b.opts.Router
	}
	if router == nil {
		router = defaultRouter
	}
	timeout := req.Timeout
	if timeout == 0 {
		timeout = b.opts.Timeout
	}
	cancel := context.CancelFunc(func() {})
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	}
	return ctx, cancel, q, router, nil
}

// scatterPlan is one routing round's decision: which servers scan which
// sealed segments, which consuming partitions are scanned beside them, and
// with what options.
type scatterPlan struct {
	plan      *RoutePlan
	servers   []int // assigned servers, ascending
	consuming []consumingScan
	contacted int // distinct servers either kind of scan touches
	opts      ExecOptions
	snapshot  *querySnapshot
}

// planScatter routes one request under a route span: it snapshots the
// routable state, asks the router, enforces the MaxSegments budget and
// resolves the routed consuming partitions against the snapshot.
func (b *Broker) planScatter(ctx context.Context, req *QueryRequest, q *Query, router Router) (*scatterPlan, error) {
	routeSp, _ := obs.StartSpan(ctx, "route")
	routeSp.SetAttr("router", router.Name())
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
	sp := &scatterPlan{plan: plan, snapshot: snapshot, opts: ExecOptions{
		Workers:   req.Workers,
		HotOnly:   req.Consistency == ConsistencyHot,
		TrimExact: req.TrimExact,
		TrimSize:  req.TrimSize,
	}}
	if sp.opts.Workers == 0 {
		sp.opts.Workers = b.opts.Workers
	}
	contacted := make(map[int]bool, len(plan.Assignment)+len(plan.Consuming))
	for si := range plan.Assignment {
		sp.servers = append(sp.servers, si)
		contacted[si] = true
	}
	sort.Ints(sp.servers)
	// Keep only the consuming scans the router routed (partition pruning);
	// the stores were snapshotted atomically with the placement in
	// routeView, so a Seal racing this query can never drop rows between
	// the sealed and consuming views.
	for _, part := range plan.Consuming {
		if cs, ok := snapshot.consuming[part]; ok {
			sp.consuming = append(sp.consuming, cs)
			contacted[cs.owner] = true
		}
	}
	sp.contacted = len(contacted)
	return sp, nil
}

// executeRouted performs one route + scatter-gather round and finalizes the
// merged partial into a user-facing response.
func (b *Broker) executeRouted(ctx context.Context, req *QueryRequest, q *Query, router Router) (*QueryResponse, error) {
	g, err := b.gather(ctx, req, q, router)
	if err != nil {
		return nil, err
	}
	finSp, _ := obs.StartSpan(ctx, "finalize")
	res, err := g.acc.Finalize(q)
	finSp.End()
	if err != nil {
		return nil, err
	}
	res.Stats.ServersContacted = g.contacted
	res.Stats.PartitionsPruned = g.plan.PartitionsPruned
	trimK := 0
	if g.tp != nil {
		if len(q.Aggs) > 0 {
			trimK = g.tp.groupK
		} else {
			trimK = g.tp.rowK
		}
	}
	return &QueryResponse{
		Columns: res.Columns,
		Rows:    res.Rows,
		Stats:   res.Stats,
		TrimK:   trimK,
		Route: RouteInfo{
			Router:           router.Name(),
			ReplicaGroup:     g.plan.ReplicaGroup,
			SegmentsRouted:   g.plan.SegmentCount(),
			ServersContacted: g.contacted,
			PartitionsPruned: g.plan.PartitionsPruned,
		},
	}, nil
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
// one re-route on ErrServerDown.
func (b *Broker) MaterializePartial(ctx context.Context, req *QueryRequest) (*Partial, int64, error) {
	ctx, cancel, q, router, err := b.prepare(ctx, req)
	if err != nil {
		return nil, 0, err
	}
	defer cancel()
	r2 := *req
	r2.TrimExact = true
	req = &r2
	g, err := b.gather(ctx, req, q, router)
	if err != nil && errors.Is(err, ErrServerDown) && ctx.Err() == nil {
		g, err = b.gather(ctx, req, q, router)
	}
	if err != nil {
		return nil, 0, err
	}
	return g.acc, g.snapGen, nil
}

// gatherResult is one route + scatter round's merged, unfinalized output.
type gatherResult struct {
	acc       *Partial
	plan      *RoutePlan
	tp        *topKPlan
	contacted int
	// snapGen is the generation read inside routeView's critical section:
	// the gathered data contains exactly the mutations with seq <= snapGen.
	snapGen int64
}

// gather performs one route + scatter round, merging partial states as they
// stream back, without finalizing.
func (b *Broker) gather(ctx context.Context, req *QueryRequest, q *Query, router Router) (*gatherResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	sp, err := b.planScatter(ctx, req, q, router)
	if err != nil {
		return nil, err
	}
	plan, servers, consuming, execOpts := sp.plan, sp.servers, sp.consuming, sp.opts
	// The same plan the servers derive from ExecOptions, used here to trim
	// consuming-partition partials and to report the applied budget.
	var tp *topKPlan
	if !req.TrimExact {
		tp = planTopK(q, req.TrimSize)
	}

	// Scatter: one subquery per assigned server plus one scan per routed
	// consuming partition, all concurrent. Gather: merge partial states as
	// they stream back.
	units := len(servers) + len(consuming)
	results := make(chan *Partial, units)
	errs := make(chan error, units)
	for _, si := range servers {
		go func(si int, segs []string) {
			// The span handle is generation-stamped: if early termination
			// finishes (and recycles) the trace while this goroutine is still
			// scanning, its span ops degrade to safe no-ops.
			sp, sctx := obs.StartSpan(ctx, "server.scan")
			sp.SetAttr("server", b.d.serverAt(si).Name())
			p, err := b.d.serverAt(si).ExecuteOn(sctx, q, segs, execOpts)
			if err != nil {
				sp.SetAttr("error", err.Error())
				sp.End()
				errs <- err
				return
			}
			sp.SetRows(p.stats.RowsScanned)
			sp.End()
			results <- p
		}(si, plan.Assignment[si])
	}
	for _, cs := range consuming {
		go func(cs consumingScan) {
			if b.d.serverAt(cs.owner).Down() {
				errs <- fmt.Errorf("%w: consuming partition %d owner %s", ErrServerDown, cs.part, b.d.serverAt(cs.owner).Name())
				return
			}
			sp, sctx := obs.StartSpan(ctx, "consuming.scan")
			p, err := cs.executePartial(sctx, q, tp)
			if err != nil {
				cs.annotate(sp, 0, err)
				sp.End()
				errs <- err
				return
			}
			cs.annotate(sp, p.stats.RowsScanned, nil)
			sp.End()
			results <- p
		}(cs)
	}

	// Gather: under default trimming each server partial carries at most
	// groupK groups / Limit+Offset rows, so the streaming merge holds
	// O(K · servers) state instead of O(groups) — the top-K memory bound.
	acc := newPartial(q)
	limit := earlyLimit(q)
	mergeSp, _ := obs.StartSpan(ctx, "merge")
	for served := 0; served < units; served++ {
		select {
		case <-ctx.Done():
			mergeSp.End()
			return nil, ctx.Err()
		case err := <-errs:
			mergeSp.End()
			return nil, err // defer cancel() aborts in-flight subqueries
		case p := <-results:
			acc.Merge(p)
			if limit > 0 && acc.Rows() >= limit {
				served = units // early termination; cancel remaining work
			}
		}
	}
	mergeSp.SetRows(int64(acc.Rows()))
	mergeSp.End()
	return &gatherResult{acc: acc, plan: plan, tp: tp, contacted: sp.contacted, snapGen: sp.snapshot.gen}, nil
}

// consumingScan is one partition's unsealed rows as a query sees them: the
// prefix snapshots of its stores — any frozen ones mid-seal first, then the
// live one — each with its upsert validity bitmap, captured under the
// deployment lock and scanned, outside it, on the partition owner.
type consumingScan struct {
	owner int
	part  int
	units []consumingUnit
}

// consumingUnit is one store's share of a consumingScan.
type consumingUnit struct {
	rows  *scanSet
	valid *Bitmap // nil = every row valid
}

// rowsIn is the number of rows the scan examines.
func (cs *consumingScan) rowsIn() int {
	n := 0
	for _, u := range cs.units {
		n += u.rows.n
	}
	return n
}

// annotate stamps a consuming.scan / consuming.stream span: which
// partition, how many rows went in and came out, and the access path
// (consuming segments carry no index, so it is always the kernels).
func (cs *consumingScan) annotate(sp obs.Span, matched int64, err error) {
	if !sp.Active() {
		return
	}
	sp.SetAttr("partition", strconv.Itoa(cs.part))
	sp.SetAttr("rows_in", strconv.Itoa(cs.rowsIn()))
	sp.SetAttr("access", "kernel")
	if err != nil {
		sp.SetAttr("error", err.Error())
		return
	}
	sp.SetRows(matched)
}

// executePartial scans the partition's units through the segment kernels
// and merges their partials. Each unit answers exactly; the top-K bound
// applies to the merged partial, the same bound server partials obey, so
// the gather phase stays O(K · fan-out) even for tables with a large
// consuming tail — and the shipped units count toward the boundary stats.
func (cs *consumingScan) executePartial(ctx context.Context, q *Query, tp *topKPlan) (*Partial, error) {
	// Groups trim once, on the merged partial; an ordered selection may keep
	// its bounded heap per unit, which is exact.
	unitTP := tp
	if len(q.Aggs) > 0 {
		unitTP = nil
	}
	limit := earlyLimit(q)
	var acc *Partial
	for _, u := range cs.units {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p, err := u.rows.executePartial(q, u.valid, unitTP)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = p // the usual case is one unit: no copy
		} else {
			acc.Merge(p)
		}
		if limit > 0 && acc.Rows() >= limit {
			break
		}
	}
	acc.trimTopK(q, tp)
	if acc.agg {
		acc.stats.GroupsShipped = int64(len(acc.groups))
	} else {
		acc.stats.RowsShipped = int64(len(acc.rows))
	}
	return acc, nil
}

// querySnapshot is the execution state captured atomically with the route
// view: the consuming stores' prefix snapshots per partition. Capturing
// them in the same critical section that reads the sealed placement
// guarantees every row is in exactly one of the two views even while Seal
// runs concurrently.
type querySnapshot struct {
	consuming map[int]consumingScan
	schema    *metadata.Schema
	// gen is the generation read inside the critical section: because
	// visible-data mutations bump the generation in their own critical
	// sections, this snapshot contains exactly the mutations with
	// ViewMutation.Seq <= gen (see AddMutationHook).
	gen int64
}

// routeView snapshots the routable cluster state for a Router, together
// with the consuming stores (one atomic view of sealed + consuming data
// under the deployment lock, O(columns) per store — no row is copied);
// liveness and hosting are live closures over the servers.
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
	view.Segments = make([]SegmentRoute, 0, len(d.placement))
	for name, replicas := range d.placement {
		part := -1
		if m := d.segMeta[name]; m != nil {
			part = m.partition
		}
		view.Segments = append(view.Segments, SegmentRoute{
			Name:      name,
			Partition: part,
			Replicas:  append([]int(nil), replicas...),
		})
	}
	snapshot := &querySnapshot{
		consuming: make(map[int]consumingScan, len(d.consuming)),
		schema:    d.cfg.Schema,
		gen:       d.gen.Load(),
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
		cs.units = append(cs.units, consumingUnit{rows: ms.snapshot(), valid: ms.validSnapshot()})
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
	// Hosts, not HasSegment: a snapshot that routed just before a rebalance
	// or compaction swap may name a replica whose copy was retired in the
	// meantime — the retired copy still answers exactly during the grace
	// window, so the router must not prune the segment's only live replica.
	view.Has = func(i int, seg string) bool { return d.serverAt(i).Hosts(seg) }
	view.ServerName = func(i int) string { return d.serverAt(i).Name() }
	return view, snapshot
}

// defaultRouter serves brokers with no configured strategy: the v1
// behavior (partition-owner for upsert, rotating live replica otherwise).
var defaultRouter Router = &RoundRobinRouter{}
