package olap

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/olap/qcache"
)

// This file threads the qcache subsystem through the broker: result caching
// keyed by a canonical request hash plus the table's generation fingerprint,
// per-segment partials keyed by what they were computed from (segmentKey),
// in-flight deduplication of identical queries, and per-tenant admission
// control with bounded queueing. The design invariant that keeps cached
// results exact is ordering: the generation is read BEFORE the execution
// snapshots any data, so an entry can only ever be stored under a generation
// at or below the data it contains — a mutation racing the execution has
// already bumped past the stored fingerprint and the next Get invalidates.
// Per-segment partials need no generation: a sealed segment is immutable but
// for its validity, whose version is in the key, captured in the same
// snapshot as the bitmap the scan reads.

// ErrOverloaded is returned when admission control sheds a query: the
// tenant's token bucket is empty, the broker queue is full, or the deadline
// expired while queued. It aliases qcache.ErrOverloaded so errors.Is works
// through either package.
var ErrOverloaded = qcache.ErrOverloaded

// Generation returns the table's mutation fingerprint: a counter bumped by
// every ingest, seal, compaction, drop and recovery. Result-cache
// entries record the generation observed before their execution and are
// invalidated on any mismatch.
func (d *Deployment) Generation() int64 { return d.gen.Load() }

// bumpGen marks a data mutation, invalidating every cached result for the
// table.
func (d *Deployment) bumpGen() { d.gen.Add(1) }

// ViewServer serves registered materialized-view shapes for a broker; the
// canonical implementation is *matview.Registry (internal/olap/matview).
// ServeView returns the view's finalized response for a canonical ViewKey
// with the answer's staleness in milliseconds (0 = exact at serve time), or
// ok=false when the shape is not registered or the view is mid-
// re-materialization past its staleness bound (the broker then falls
// through to the cache and the scatter-gather path). The returned response
// is shared: the broker hands each caller a struct copy and the rows stay
// read-only, exactly like cache hits.
type ViewServer interface {
	ServeView(key string) (resp *QueryResponse, stalenessMs int64, ok bool)
}

// CacheStats reports the broker cache's counters (zero when the cache is
// disabled), after reconciling the resident-memory gauges: result entries
// invalidated by a generation bump are normally dropped lazily — only when
// their own key is next queried — so an in-flight execution that completes
// after a mutation (or a warmed set the mutation orphaned) would keep its
// dead bytes in the gauge indefinitely; and a segment entry whose segment
// was compacted away, retired or expired, or whose validity moved on, can
// never hit again. Sweeping both here keeps Entries/Bytes and
// SegmentEntries/SegmentBytes an honest account of memory that can still
// serve a hit.
func (b *Broker) CacheStats() qcache.CacheStats {
	if b.cache == nil {
		return qcache.CacheStats{}
	}
	b.cache.SweepStale(b.d.Generation())
	live := b.d.segmentVersions()
	b.cache.SweepSegments(func(seg string, version uint64) bool {
		v, ok := live[seg]
		return ok && v == version
	})
	return b.cache.Stats()
}

// segmentVersions maps every placed sealed segment to its validity version.
func (d *Deployment) segmentVersions() map[string]uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	live := make(map[string]uint64, len(d.placement))
	for name := range d.placement {
		var v uint64
		if m := d.segMeta[name]; m != nil {
			v = m.version
		}
		live[name] = v
	}
	return live
}

// AdmissionStats reports the broker's admission counters (zero when
// admission control is disabled).
func (b *Broker) AdmissionStats() qcache.AdmissionStats {
	if b.admit == nil {
		return qcache.AdmissionStats{}
	}
	return b.admit.Stats()
}

// executeShared is the shared-traffic half of Execute: tenant quota, result
// cache, and in-flight deduplication, in that order. Every caller — leader,
// coalesced follower, or cache hit — receives its own QueryResponse struct
// (independent ExecStats snapshot); only the row data is shared, read-only.
func (b *Broker) executeShared(ctx context.Context, req *QueryRequest, q *Query) (*QueryResponse, error) {
	if b.admit != nil {
		if err := b.admit.ChargeTenant(req.Tenant); err != nil {
			return nil, fmt.Errorf("olap: %w", err)
		}
	}
	// Registered materialized views answer ahead of the qcache lookup: a
	// view's state is maintained incrementally from the mutation feed, so —
	// unlike cache entries, which any ingest invalidates — it keeps serving
	// at hit latency regardless of write rate. A view hit never fills the
	// cache: the same shape must not be double-served.
	if b.views != nil {
		if resp, stale, ok := b.views.ServeView(ViewKey(b.d.cfg.Name, q)); ok {
			// Recorded as a root attribute, not a child span: the view path
			// answers at hit latency and must stay inside the overhead budget.
			obs.SpanFromContext(ctx).SetAttr("view", "hit")
			return b.respondView(resp, stale), nil
		}
	}
	if b.cache == nil { // the flight group comes with the cache
		if b.admit == nil {
			return b.executeAdmitted(ctx, req, q, nil)
		}
		// Admission without a cache still reports Queued and the Shed
		// gauge through respond().
		queued := false
		resp, err := b.executeAdmitted(ctx, req, q, &queued)
		if err != nil {
			return nil, err
		}
		return b.respond(resp, false, false, queued), nil
	}

	key := requestKey(b.d.cfg.Name, req, q)
	// Generation BEFORE any execution snapshot: entries stored under this
	// fingerprint can never mask a mutation that lands mid-execution.
	gen := b.d.Generation()
	if v, ok := b.cache.Get(key, gen); ok {
		// A root attribute, not a child span: the hit path is the
		// tracing-overhead budget (E22 trace_overhead_x, DESIGN.md).
		obs.SpanFromContext(ctx).SetAttr("cache", "hit")
		return b.respond(v.(*QueryResponse), true, false, false), nil
	}
	obs.SpanFromContext(ctx).SetAttr("cache", "miss")

	// queued/lateHit are only written by the exec closure, which runs in
	// this goroutine (flight leaders run fn synchronously; followers never
	// run it) — no cross-goroutine sharing.
	queued := false
	lateHit := false
	exec := func() (any, error) {
		// Double-check the cache: between this caller's miss above and its
		// flight registration, a previous leader may have completed and
		// Put (the leader removes its flight entry only after Put), so a
		// late-arriving leader finds the entry here instead of executing
		// the scatter-gather a second time.
		if v, ok := b.cache.Get(key, gen); ok {
			lateHit = true
			return v, nil
		}
		resp, err := b.executeAdmitted(ctx, req, q, &queued)
		if err != nil {
			return nil, err
		}
		if b.d.Generation() == gen {
			// Dead-on-arrival guard: if the table mutated while this
			// execution ran, the entry could never serve a hit (every
			// future Get carries a newer generation) yet it would sit in
			// the cache — and in the memory gauge — until its key happens
			// to be re-queried. The generation bump already evicted this
			// in-flight result; don't store it. A mutation racing past
			// this check still lands a dead entry, which the CacheStats
			// sweep reconciles.
			b.cache.Put(key, gen, resp, responseSize(resp))
		}
		return resp, nil
	}
	// The flight key includes the generation: a query arriving after a
	// mutation never coalesces onto a pre-mutation execution, so coalescing
	// preserves read-your-writes.
	fkey := key + "|g" + strconv.FormatInt(gen, 10)
	for attempt := 0; ; attempt++ {
		v, shared, err := b.flight.Do(ctx, fkey, exec)
		if shared {
			obs.SpanFromContext(ctx).SetAttr("coalesced", "true")
		}
		if err != nil {
			// A follower must not inherit the leader's private deadline:
			// the flight key is the query's, not the caller's context, so a
			// short-deadline leader can die of its own context while this
			// caller's is fine. Rejoin the flight instead of executing
			// directly — of all the released followers, one becomes the
			// new leader and the rest coalesce again, so the retry stays
			// a single execution rather than a thundering herd.
			if shared && ctx.Err() == nil && attempt < 3 &&
				(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
				continue
			}
			return nil, err
		}
		return b.respond(v.(*QueryResponse), lateHit, shared, !shared && queued), nil
	}
}

// executeAdmitted runs one real execution through the bounded concurrency
// gate (cache hits and coalesced followers never reach it) with the broker's
// one re-route (rerouted). queuedOut, when non-nil, reports whether the
// execution waited for a slot.
func (b *Broker) executeAdmitted(ctx context.Context, req *QueryRequest, q *Query, queuedOut *bool) (*QueryResponse, error) {
	if b.admit != nil {
		sp, _ := obs.StartSpan(ctx, "admission.queue")
		release, queued, err := b.admit.AcquireSlot(ctx)
		if queued {
			sp.SetAttr("queued", "true")
		}
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("olap: %w", err)
		}
		defer release()
		if queuedOut != nil {
			*queuedOut = queued
		}
	}
	return rerouted(ctx, func() (*QueryResponse, error) { return b.executeRouted(ctx, req, q) })
}

// respond hands one caller its own copy of a (possibly shared) response.
// The struct copy gives every caller an independent ExecStats snapshot —
// coalesced callers and cache hits must never share a mutable stats block —
// while the row data stays shared, read-only by contract.
func (b *Broker) respond(src *QueryResponse, hit, coalesced, queued bool) *QueryResponse {
	out := *src
	if hit {
		out.Stats.CacheHit = 1
	}
	if coalesced {
		out.Stats.Coalesced = 1
	}
	if queued {
		out.Stats.Queued = 1
	}
	if b.cache != nil {
		out.Stats.CacheMemBytes = b.cache.Bytes()
	}
	if b.admit != nil {
		out.Stats.Shed = b.admit.Shed()
	}
	return &out
}

// respondView hands one caller its copy of a view-served response: ViewHit
// set, staleness reported, gauges sampled — and, like respond, an
// independent ExecStats snapshot over shared read-only rows.
func (b *Broker) respondView(src *QueryResponse, stalenessMs int64) *QueryResponse {
	out := *src
	out.Stats.ViewHit = 1
	out.Stats.ViewStalenessMs = stalenessMs
	if b.cache != nil {
		out.Stats.CacheMemBytes = b.cache.Bytes()
	}
	if b.admit != nil {
		out.Stats.Shed = b.admit.Shed()
	}
	return &out
}

// requestKey canonicalizes everything that can change a request's result
// rows: the full query shape (filters, group-by, aggregations, projection,
// order, limit/offset) plus the result-affecting request options (trim mode
// and budget, segment budget). The tenant is deliberately excluded — it
// never changes the rows, so tenants share cache entries — and the router
// is the broker's, the same for every entry of its cache. The encoding is injective: every list carries
// its length, every variable-length string is length-prefixed
// (keyStr/keyValue), and the remaining fields are fixed-format integers — so
// no string content, including separator characters, can forge another
// request's key.
func requestKey(table string, req *QueryRequest, q *Query) string {
	var sb strings.Builder
	sb.Grow(160)
	keyStr(&sb, table)
	fmt.Fprintf(&sb, "x%v,ts%d,ms%d,", req.TrimExact, req.TrimSize, req.MaxSegments)
	keyQueryShape(&sb, q)
	return sb.String()
}

// ViewKey canonicalizes the result identity of a query for the
// materialized-view registry: the table plus the full query shape. Unlike
// requestKey it deliberately excludes the execution options (router, trim
// mode and budget, segment budget): a view's answer is exact and
// routing-independent, so every router and trim setting maps to the same
// registered view.
func ViewKey(table string, q *Query) string {
	var sb strings.Builder
	sb.Grow(160)
	keyStr(&sb, table)
	keyQueryShape(&sb, q)
	return sb.String()
}

// keyQueryShape writes the injective encoding of everything in the query
// itself that can change its result rows — shared by requestKey and
// ViewKey.
func keyQueryShape(sb *strings.Builder, q *Query) {
	fmt.Fprintf(sb, "F%d,", len(q.Filters))
	for _, f := range q.Filters {
		fmt.Fprintf(sb, "%d,", f.Op)
		keyStr(sb, f.Column)
		keyValue(sb, f.Value)
		keyValue(sb, f.Value2)
		fmt.Fprintf(sb, "V%d,", len(f.Values))
		for _, v := range f.Values {
			keyValue(sb, v)
		}
	}
	fmt.Fprintf(sb, "G%d,", len(q.GroupBy))
	for _, g := range q.GroupBy {
		keyStr(sb, g)
	}
	fmt.Fprintf(sb, "A%d,", len(q.Aggs))
	for _, a := range q.Aggs {
		fmt.Fprintf(sb, "%d,", a.Kind)
		keyStr(sb, a.Column)
		keyStr(sb, a.As)
	}
	fmt.Fprintf(sb, "S%d,", len(q.Select))
	for _, s := range q.Select {
		keyStr(sb, s)
	}
	fmt.Fprintf(sb, "O%d,", len(q.OrderBy))
	for _, o := range q.OrderBy {
		fmt.Fprintf(sb, "%v,", o.Desc)
		keyStr(sb, o.Column)
	}
	fmt.Fprintf(sb, "l%d,%d", q.Limit, q.Offset)
}

// keyStr writes one length-prefixed string field; the prefix makes the
// encoding unambiguous regardless of the string's content.
func keyStr(sb *strings.Builder, s string) {
	fmt.Fprintf(sb, "%d:%s,", len(s), s)
}

// keyValue writes one filter literal with a type tag and length prefix, so
// values that compare differently can never alias one cache key.
func keyValue(sb *strings.Builder, v any) {
	if v == nil {
		sb.WriteString("_,")
		return
	}
	s := fmt.Sprint(v)
	fmt.Fprintf(sb, "%T:%d:%s,", v, len(s), s)
}

// segmentKey appends to buf the cache key of a sealed unit's partial under
// q and its unit trim plan tp, and reports false when a filter does not
// compile against the segment (the scan then reports why). Segment entries
// are generation-free, so the key holds everything the partial depends on:
//
//   - the segment's name and validity version (segMeta.version), which
//     together name the rows it can return — compaction renames, a move or
//     an offload keeps both;
//   - every filter the segment's scan applies (unitFilters: a time range
//     holding the whole segment is dropped), as compileCodePred compiles it
//     against the segment's dictionary, with its column — code ranges, not
//     literals, so literals that select the same codes share the entry, and
//     a sliding `ts >= now - 10s` names no filter on the segments it covers;
//   - whether the star-tree answers, the group-by columns, the aggregations'
//     kinds and columns, and the trim plan.
//
// It is built by appends (no fmt) into the caller's buffer: for equality
// and range filters, the kinds a dashboard uses, the key allocates nothing.
func segmentKey(buf []byte, u scanUnit, q *Query, tp *topKPlan) ([]byte, bool) {
	seg := u.seg
	buf = append(buf, 'P') // result keys start with a digit
	buf = appendKeyStr(buf, seg.Name)
	buf = binary.AppendUvarint(buf, u.version)
	filters := unitFilters(q.Filters, seg.Schema, seg.MinTime, seg.MaxTime)
	buf = append(buf, boolByte(seg.treeEligible(q, filters, u.valid)))
	buf = binary.AppendUvarint(buf, uint64(len(filters)))
	for _, f := range filters {
		c := seg.Columns[f.Column]
		if c == nil {
			return buf, false
		}
		pr, err := compileCodePred(&c.Dict, f)
		if err != nil {
			return buf, false
		}
		buf = appendKeyStr(buf, f.Column)
		buf = pr.appendKey(buf)
	}
	buf = binary.AppendUvarint(buf, uint64(len(q.GroupBy)))
	for _, g := range q.GroupBy {
		buf = appendKeyStr(buf, g)
	}
	buf = binary.AppendUvarint(buf, uint64(len(q.Aggs)))
	for _, a := range q.Aggs {
		buf = append(buf, byte(a.Kind))
		buf = appendKeyStr(buf, a.Column)
	}
	if tp == nil {
		return append(buf, 0), true
	}
	buf = append(buf, 1, byte(tp.aggKind), boolByte(tp.desc))
	for _, v := range [...]int{tp.rowK, tp.groupK, tp.valIdx, tp.aggIdx} {
		buf = binary.AppendVarint(buf, int64(v))
	}
	return buf, true
}

// appendKey appends the compiled predicate's identity: its kind and the
// codes it keeps.
func (pr *codePred) appendKey(buf []byte) []byte {
	buf = append(buf, byte(pr.kind))
	switch pr.kind {
	case predEq:
		buf = binary.AppendVarint(buf, int64(pr.eq))
	case predNe:
		buf = binary.AppendVarint(buf, int64(pr.eq))
		buf = binary.AppendVarint(buf, int64(pr.null))
	case predRange:
		buf = binary.AppendVarint(buf, int64(pr.lo))
		buf = binary.AppendVarint(buf, int64(pr.hi))
	case predIn:
		buf = binary.AppendUvarint(buf, uint64(len(pr.in)))
		var bits byte
		for code, in := range pr.in {
			if in {
				bits |= 1 << (code % 8)
			}
			if code%8 == 7 || code == len(pr.in)-1 {
				buf = append(buf, bits)
				bits = 0
			}
		}
	}
	return buf
}

// appendKeyStr appends one length-prefixed string.
func appendKeyStr(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// boolByte encodes a flag as one key byte.
func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// responseSize approximates a response's resident footprint for the cache's
// byte accounting: slice headers plus per-value estimates (strings by
// length, everything else as one word).
func responseSize(resp *QueryResponse) int64 {
	size := int64(128) // struct, stats, route
	for _, c := range resp.Columns {
		size += int64(len(c)) + 16
	}
	for _, row := range resp.Rows {
		size += 24 // slice header
		for _, v := range row {
			size += 16
			if s, ok := v.(string); ok {
				size += int64(len(s))
			}
		}
	}
	return size
}
