package olap

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/olap/qcache"
	"repro/internal/record"
)

func countReq() *QueryRequest {
	return &QueryRequest{Query: &Query{Aggs: []AggSpec{{Kind: AggCount}}}}
}

// TestRequestKeyInjective: semantically different requests must never share
// a cache key, even with adversarial string literals that contain the
// encoding's separator characters.
func TestRequestKeyInjective(t *testing.T) {
	key := func(q *Query) string { return requestKey("t", &QueryRequest{}, q) }
	pairs := [][2]*Query{
		{
			// A literal forging the nil marker + an IN list vs a plain Eq.
			{Filters: []Filter{{Column: "c", Op: OpEq, Value: "x~_"}}},
			{Filters: []Filter{{Column: "c", Op: OpEq, Value: "x", Values: []any{nil}}}},
		},
		{
			// Same bytes, different value types.
			{Filters: []Filter{{Column: "c", Op: OpEq, Value: "3"}}},
			{Filters: []Filter{{Column: "c", Op: OpEq, Value: int64(3)}}},
		},
		{
			// Column content must not bleed into the next field.
			{GroupBy: []string{"a,b"}},
			{GroupBy: []string{"a", "b"}},
		},
		{
			{Select: []string{"a", ""}},
			{Select: []string{"a"}},
		},
		{
			{Filters: []Filter{{Column: "c", Op: OpBetween, Value: 1.0, Value2: 2.0}}},
			{Filters: []Filter{{Column: "c", Op: OpBetween, Value: 1.0}, {Column: "c", Op: OpLe, Value: 2.0}}},
		},
	}
	for i, p := range pairs {
		if key(p[0]) == key(p[1]) {
			t.Errorf("pair %d collides: %q", i, key(p[0]))
		}
	}
	// And the same request keys identically (cache can actually hit).
	q := &Query{Filters: []Filter{{Column: "c", Op: OpEq, Value: "x"}}, GroupBy: []string{"g"},
		Aggs: []AggSpec{{Kind: AggSum, Column: "amount"}}, Limit: 5}
	if key(q) != key(q) {
		t.Error("identical queries must share a key")
	}
}

func TestResultCacheHitAndIngestInvalidation(t *testing.T) {
	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ingestOrders(t, d, 220, 2)
	b := NewBrokerWithOptions(d, BrokerOptions{CacheMaxBytes: 1 << 20})

	r1, err := b.Execute(context.Background(), countReq())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.CacheHit != 0 {
		t.Fatal("first execution must miss")
	}
	r2, err := b.Execute(context.Background(), countReq())
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.CacheHit != 1 {
		t.Fatal("second identical execution must hit")
	}
	if !reflect.DeepEqual(r1.Rows, r2.Rows) {
		t.Fatalf("hit rows differ: %v vs %v", r1.Rows, r2.Rows)
	}
	if r2.Stats.CacheMemBytes <= 0 {
		t.Fatal("hit must report resident cache bytes")
	}
	// Misses counts 2 per cold execution: the pre-flight probe plus the
	// leader's double-check inside the flight.
	if st := b.CacheStats(); st.Hits != 1 || st.Misses == 0 {
		t.Fatalf("cache stats %+v", st)
	}

	// One more ingested row bumps the generation: the next identical query
	// must re-execute and see the new row.
	extra := orderRows(221)[220]
	if err := d.Ingest(0, extra); err != nil {
		t.Fatal(err)
	}
	r3, err := b.Execute(context.Background(), countReq())
	if err != nil {
		t.Fatal(err)
	}
	if r3.Stats.CacheHit != 0 {
		t.Fatal("post-ingest query must not be served from the stale cache")
	}
	if got := r3.Rows[0][0].(int64); got != 221 {
		t.Fatalf("post-ingest count = %d, want 221", got)
	}
	if st := b.CacheStats(); st.Invalidations == 0 {
		t.Fatalf("expected a generation invalidation, got %+v", st)
	}
}

func TestMaintenanceInvalidatesCache(t *testing.T) {
	d, _ := newDeployment(t, 2, 2, false, BackupP2P, nil)
	ingestOrders(t, d, 200, 2)
	for p := 0; p < 2; p++ {
		if err := d.Seal(p); err != nil {
			t.Fatal(err)
		}
	}
	d.WaitUploads()
	b := NewBrokerWithOptions(d, BrokerOptions{CacheMaxBytes: 1 << 20})

	execute := func() *QueryResponse {
		t.Helper()
		r, err := b.Execute(context.Background(), countReq())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	baseline := execute()
	if execute().Stats.CacheHit != 1 {
		t.Fatal("warm cache expected")
	}

	// Compaction swaps segments: same rows, new generation.
	var part0 []string
	for _, info := range d.SegmentInfos() {
		if info.Partition == 0 {
			part0 = append(part0, info.Name)
		}
	}
	if len(part0) < 2 {
		t.Fatalf("need >=2 sealed segments on partition 0, have %v", part0)
	}
	genBefore := d.Generation()
	if _, err := d.Compact(part0[:2]); err != nil {
		t.Fatal(err)
	}
	if d.Generation() <= genBefore {
		t.Fatal("compaction must bump the generation")
	}
	r := execute()
	if r.Stats.CacheHit != 0 {
		t.Fatal("compaction must invalidate cached results")
	}
	if !reflect.DeepEqual(r.Rows, baseline.Rows) {
		t.Fatalf("compaction changed results: %v vs %v", r.Rows, baseline.Rows)
	}

	// Offload changes residency, not rows: the generation stays and the
	// cached answer keeps serving.
	d.AttachLoaders()
	infos := d.SegmentInfos()
	genBefore = d.Generation()
	if _, err := d.OffloadSegment(infos[0].Name); err != nil {
		t.Fatal(err)
	}
	if d.Generation() != genBefore {
		t.Fatal("offload must leave the generation alone")
	}
	if r := execute(); r.Stats.CacheHit != 1 || !reflect.DeepEqual(r.Rows, baseline.Rows) {
		t.Fatalf("after offload: hit %d, rows %v, want the cached %v", r.Stats.CacheHit, r.Rows, baseline.Rows)
	}

	// Drop removes rows: cache invalidates and the count shrinks.
	infos = d.SegmentInfos()
	dropped := infos[0]
	genBefore = d.Generation()
	d.DropSegment(dropped.Name, false)
	if d.Generation() <= genBefore {
		t.Fatal("drop must bump the generation")
	}
	r = execute()
	if r.Stats.CacheHit != 0 {
		t.Fatal("drop must invalidate cached results")
	}
	want := baseline.Rows[0][0].(int64) - int64(dropped.NumRows)
	if got := r.Rows[0][0].(int64); got != want {
		t.Fatalf("post-drop count = %d, want %d", got, want)
	}
}

func TestConcurrentIdenticalQueriesExecuteOnce(t *testing.T) {
	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ingestOrders(t, d, 300, 2)
	b := NewBrokerWithOptions(d, BrokerOptions{CacheMaxBytes: 1 << 20})

	const n = 128
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		gate  = make(chan struct{})
		resps [n]*QueryResponse
		errs  [n]error
	)
	start.Add(n)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer done.Done()
			start.Done()
			<-gate
			resps[i], errs[i] = b.Execute(context.Background(), &QueryRequest{Query: &Query{
				GroupBy: []string{"city"},
				Aggs:    []AggSpec{{Kind: AggSum, Column: "amount"}, {Kind: AggCount}},
			}})
		}(i)
	}
	start.Wait()
	close(gate)
	done.Wait()

	executions := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(resps[i].Rows, resps[0].Rows) {
			t.Fatalf("caller %d got different rows", i)
		}
		if resps[i].Stats.CacheHit == 0 && resps[i].Stats.Coalesced == 0 {
			executions++
		}
	}
	if executions != 1 {
		t.Fatalf("%d concurrent identical queries ran %d executions, want 1", n, executions)
	}
}

// TestCoalescedStatsSnapshotsIndependent guards the shared-response path:
// every coalesced caller (and cache hit) must receive its own ExecStats
// snapshot. Each caller mutates its response's stats concurrently; a shared
// mutable struct would trip the race detector and corrupt counters.
func TestCoalescedStatsSnapshotsIndependent(t *testing.T) {
	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ingestOrders(t, d, 200, 2)
	b := NewBrokerWithOptions(d, BrokerOptions{CacheMaxBytes: 1 << 20})

	const n = 64
	var wg sync.WaitGroup
	wg.Add(n)
	sawShared := atomic.Int64{}
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			resp, err := b.Execute(context.Background(), countReq())
			if err != nil {
				t.Error(err)
				return
			}
			if resp.Stats.CacheHit == 1 || resp.Stats.Coalesced == 1 {
				sawShared.Add(1)
			}
			base := resp.Stats.RowsScanned
			for j := 0; j < 1000; j++ {
				resp.Stats.Add(ExecStats{RowsScanned: 1})
			}
			if resp.Stats.RowsScanned != base+1000 {
				t.Errorf("stats not independent: %d", resp.Stats.RowsScanned)
			}
		}()
	}
	wg.Wait()
	if sawShared.Load() == 0 {
		t.Fatal("expected at least one shared (hit/coalesced) response")
	}
	// The pristine cached entry must be unaffected by caller-side mutation.
	resp, err := b.Execute(context.Background(), countReq())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats.CacheHit != 1 || resp.Stats.RowsScanned != 200 {
		t.Fatalf("cached entry corrupted: %+v", resp.Stats)
	}
}

func TestAdmissionTenantQuotaTyped(t *testing.T) {
	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ingestOrders(t, d, 100, 2)
	b := NewBrokerWithOptions(d, BrokerOptions{
		Admission: &qcache.AdmissionConfig{
			TenantOverrides: map[string]qcache.TenantQuota{
				"batch": {Rate: 0.0001, Burst: 2},
			},
		},
	})
	req := func(tenant string) *QueryRequest {
		r := countReq()
		r.Tenant = tenant
		return r
	}
	for i := 0; i < 2; i++ {
		if _, err := b.Execute(context.Background(), req("batch")); err != nil {
			t.Fatalf("within burst: %v", err)
		}
	}
	_, err := b.Execute(context.Background(), req("batch"))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want typed ErrOverloaded, got %v", err)
	}
	if !errors.Is(err, qcache.ErrOverloaded) {
		t.Fatal("olap.ErrOverloaded must alias qcache.ErrOverloaded")
	}
	// Other tenants are isolated from the shed tenant — and an
	// admission-only broker (no cache) still surfaces the Shed gauge.
	resp, err := b.Execute(context.Background(), req("dash"))
	if err != nil {
		t.Fatalf("tenant isolation: %v", err)
	}
	if resp.Stats.Shed != 1 {
		t.Fatalf("admission-only broker must report the shed gauge, got %+v", resp.Stats)
	}
	if st := b.AdmissionStats(); st.Shed != 1 {
		t.Fatalf("admission stats %+v", st)
	}
}

// slowFirstRouter delays its first Route call (signalling entry), so a test
// can hold a flight leader mid-execution deterministically.
type slowFirstRouter struct {
	inner   Router
	once    sync.Once
	started chan struct{}
	delay   time.Duration
}

func (r *slowFirstRouter) Name() string { return "slow-first" }

func (r *slowFirstRouter) Route(v *RouteView, q *Query) (*RoutePlan, error) {
	first := false
	r.once.Do(func() { first = true; close(r.started) })
	if first {
		time.Sleep(r.delay)
	}
	return r.inner.Route(v, q)
}

// TestFollowerNotPoisonedByLeaderDeadline: the flight key is the query's,
// not the caller's context, so a short-deadline leader can die of its own context while coalesced
// followers are fine — they must re-execute instead of inheriting the
// leader's deadline error.
func TestFollowerNotPoisonedByLeaderDeadline(t *testing.T) {
	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ingestOrders(t, d, 100, 2)
	router := &slowFirstRouter{inner: &RoundRobinRouter{}, started: make(chan struct{}), delay: 200 * time.Millisecond}
	b := NewBrokerWithOptions(d, BrokerOptions{CacheMaxBytes: 1 << 20, Router: router})

	leaderErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		_, err := b.Execute(ctx, countReq())
		leaderErr <- err
	}()
	<-router.started // leader is inside its flight execution now

	resp, err := b.Execute(context.Background(), countReq()) // no deadline
	if err != nil {
		t.Fatalf("follower inherited the leader's deadline: %v", err)
	}
	if got := resp.Rows[0][0].(int64); got != 100 {
		t.Fatalf("follower count = %d, want 100", got)
	}
	if err := <-leaderErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("leader should have timed out, got %v", err)
	}
}

func TestCacheMemoryBounded(t *testing.T) {
	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ingestOrders(t, d, 200, 2)
	const bound = 4096
	b := NewBrokerWithOptions(d, BrokerOptions{CacheMaxBytes: bound})
	for i := 0; i < 200; i++ {
		req := &QueryRequest{Query: &Query{
			Filters: []Filter{{Column: "items", Op: OpLe, Value: int64(i)}},
			Aggs:    []AggSpec{{Kind: AggCount}},
		}}
		if _, err := b.Execute(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		if got := b.CacheStats().Bytes; got > bound {
			t.Fatalf("cache bytes %d exceed bound %d", got, bound)
		}
	}
	if st := b.CacheStats(); st.Evictions == 0 {
		t.Fatalf("expected evictions under a tight bound, got %+v", st)
	}
}

// TestCachedExecuteNeverStaleUnderMutation is the invalidation-race
// guarantee: under concurrent ingest, seal and compaction, a cached Execute
// must never return a count missing rows that were fully ingested before
// the query was issued. Run under -race.
func TestCachedExecuteNeverStaleUnderMutation(t *testing.T) {
	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
	b := NewBrokerWithOptions(d, BrokerOptions{CacheMaxBytes: 1 << 20})

	const totalRows = 3_000
	var committed atomic.Int64
	mutDone := make(chan struct{})
	go func() {
		defer close(mutDone)
		rows := make([]record.Record, totalRows)
		cities := []string{"sf", "nyc", "la", "chi"}
		for i := range rows {
			rows[i] = record.Record{
				"order_id": fmt.Sprintf("m-%05d", i),
				"city":     cities[i%4],
				"status":   "placed",
				"amount":   float64(i),
				"items":    int64(1),
				"ts":       int64(1700000000000 + i),
			}
		}
		for i, r := range rows {
			if err := d.Ingest(i%2, r); err != nil {
				t.Error(err)
				return
			}
			committed.Add(1)
			// Periodic maintenance: seal, then compact partition 0's
			// sealed segments back into one.
			if i%500 == 499 {
				if err := d.Seal(i % 2); err != nil {
					t.Error(err)
					return
				}
				var part0 []string
				for _, info := range d.SegmentInfos() {
					if info.Partition == 0 {
						part0 = append(part0, info.Name)
					}
				}
				if len(part0) >= 2 {
					if _, err := d.Compact(part0); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-mutDone:
					return
				default:
				}
				before := committed.Load()
				resp, err := b.Execute(context.Background(), countReq())
				if err != nil {
					t.Error(err)
					return
				}
				got := resp.Rows[0][0].(int64)
				if got < before {
					t.Errorf("stale response: count %d < %d rows committed before the query", got, before)
					return
				}
			}
		}()
	}
	<-mutDone
	wg.Wait()

	// Quiesced: the final count is exact and cacheable again.
	resp, err := b.Execute(context.Background(), countReq())
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Rows[0][0].(int64); got != totalRows {
		t.Fatalf("final count %d, want %d", got, totalRows)
	}
	resp, err = b.Execute(context.Background(), countReq())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats.CacheHit != 1 {
		t.Fatal("quiesced table should serve from cache")
	}
}

// fakeViews is a canned ViewServer: it answers exactly one ViewKey. The
// broker-side view plumbing (serve-before-cache, no cache fill, stats
// surface) is tested here against the interface alone; the real registry's
// answers are gated by the differential harness in internal/olap/matview.
type fakeViews struct {
	key   string
	resp  *QueryResponse
	stale int64
}

func (f *fakeViews) ServeView(key string) (*QueryResponse, int64, bool) {
	if key == f.key {
		//lint:ignore statscopy test double honoring the ViewServer contract: the broker copies before attaching per-query stats
		return f.resp, f.stale, true
	}
	return nil, 0, false
}

// TestViewHitBypassesCacheFill: a registered shape is never double-served —
// the view answers ahead of the cache and must not fill it (the same rows
// living under both a view and a cache entry would double memory and could
// serve the cache's copy after Unregister). Unregistered shapes keep the
// exact PR 5 cache behavior, and hot-consistency requests never consult
// views.
func TestViewHitBypassesCacheFill(t *testing.T) {
	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ingestOrders(t, d, 100, 2)
	fake := &fakeViews{
		key:   ViewKey("orders", countReq().Query),
		resp:  &QueryResponse{Columns: []string{"count"}, Rows: [][]any{{int64(100)}}},
		stale: 7,
	}
	b := NewBrokerWithOptions(d, BrokerOptions{CacheMaxBytes: 1 << 20, Views: fake})

	for i := 0; i < 2; i++ {
		resp, err := b.Execute(context.Background(), countReq())
		if err != nil {
			t.Fatal(err)
		}
		if resp.Stats.ViewHit != 1 || resp.Stats.CacheHit != 0 {
			t.Fatalf("serve %d: want a pure view hit, got %+v", i, resp.Stats)
		}
		if resp.Stats.ViewStalenessMs != 7 {
			t.Fatalf("staleness must pass through, got %d", resp.Stats.ViewStalenessMs)
		}
		if got := resp.Rows[0][0].(int64); got != 100 {
			t.Fatalf("view rows not served: %v", resp.Rows)
		}
	}
	if st := b.CacheStats(); st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("view hits must not touch the cache: %+v", st)
	}

	// An unregistered shape misses the view server and keeps PR 5 caching.
	other := &QueryRequest{Query: &Query{GroupBy: []string{"city"},
		Aggs: []AggSpec{{Kind: AggSum, Column: "amount"}}}}
	r1, err := b.Execute(context.Background(), other)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.ViewHit != 0 || r1.Stats.CacheHit != 0 {
		t.Fatalf("unregistered first execution: %+v", r1.Stats)
	}
	r2, err := b.Execute(context.Background(), other)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.ViewHit != 0 || r2.Stats.CacheHit != 1 {
		t.Fatalf("unregistered second execution must cache-hit: %+v", r2.Stats)
	}
}

// TestCacheStatsSweepsGenerationOrphans: entries orphaned by a generation
// bump are normally dropped lazily — only when their own key is re-queried
// — so a warmed set would keep its dead bytes in the Entries/Bytes gauge
// indefinitely. CacheStats must reconcile the gauge by sweeping them.
func TestCacheStatsSweepsGenerationOrphans(t *testing.T) {
	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ingestOrders(t, d, 200, 2)
	b := NewBrokerWithOptions(d, BrokerOptions{CacheMaxBytes: 1 << 20})

	const warmed = 10
	for i := 0; i < warmed; i++ {
		req := &QueryRequest{Query: &Query{
			Filters: []Filter{{Column: "items", Op: OpEq, Value: int64(i + 1)}},
			Aggs:    []AggSpec{{Kind: AggCount}},
		}}
		if _, err := b.Execute(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	if st := b.CacheStats(); st.Entries != warmed || st.Bytes == 0 {
		t.Fatalf("warm set not resident: %+v", st)
	}

	// One ingested row orphans every entry without touching their keys.
	extra := orderRows(201)[200]
	if err := d.Ingest(0, extra); err != nil {
		t.Fatal(err)
	}
	st := b.CacheStats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("gauge still counts dead entries after the bump: %+v", st)
	}
	if st.Invalidations < warmed {
		t.Fatalf("sweep must account the drops as invalidations: %+v", st)
	}
}

// TestInFlightCompletionAfterMutationNotCached: an execution that was in
// flight when a mutation landed must not store its result — every future
// Get carries a newer generation, so the entry could never serve a hit and
// would only sit in the memory gauge (dead on arrival).
func TestInFlightCompletionAfterMutationNotCached(t *testing.T) {
	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ingestOrders(t, d, 100, 2)
	router := &slowFirstRouter{inner: &RoundRobinRouter{}, started: make(chan struct{}), delay: 150 * time.Millisecond}
	b := NewBrokerWithOptions(d, BrokerOptions{CacheMaxBytes: 1 << 20, Router: router})

	leaderDone := make(chan *QueryResponse, 1)
	go func() {
		resp, err := b.Execute(context.Background(), countReq())
		if err != nil {
			t.Error(err)
		}
		leaderDone <- resp
	}()
	<-router.started // leader snapshotted its data, now stalled mid-flight

	extra := orderRows(101)[100]
	if err := d.Ingest(0, extra); err != nil {
		t.Fatal(err)
	}
	resp := <-leaderDone
	if resp == nil {
		t.Fatal("leader failed")
	}
	if got := resp.Rows[0][0].(int64); got != 100 {
		t.Fatalf("leader snapshot count = %d, want 100 (pre-ingest)", got)
	}
	// Raw cache stats (no CacheStats sweep): the DOA guard itself must have
	// refused the Put.
	if st := b.cache.Stats(); st.Entries != 0 {
		t.Fatalf("dead-on-arrival entry landed in the cache: %+v", st)
	}
	// And the next identical query re-executes against the new data.
	r, err := b.Execute(context.Background(), countReq())
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.CacheHit != 0 {
		t.Fatal("post-mutation query must not be served from a stale entry")
	}
	if got := r.Rows[0][0].(int64); got != 101 {
		t.Fatalf("post-mutation count = %d, want 101", got)
	}
}

// TestSegmentPartialCache holds the per-segment partial cache to its keying
// rule: a sealed segment's partial is reused exactly when the segment, its
// validity version, the filters as compiled against its dictionary, the
// query shape and the trim plan all match — and every answer equals an
// uncached broker's.
func TestSegmentPartialCache(t *testing.T) {
	const t0 = int64(1700000000000) // orderRows' first ts; one row a second
	ctx := context.Background()
	shape := func(filters ...Filter) *Query {
		return &Query{Filters: filters, GroupBy: []string{"city"},
			Aggs: []AggSpec{{Kind: AggCount, As: "n"}, {Kind: AggSum, Column: "amount", As: "total"}}}
	}
	// budget gives every request its own result-cache key (the segment
	// budget is far above any fan-out), so each runs the scatter.
	budget := 1 << 20
	exec := func(b *Broker, req *QueryRequest) *QueryResponse {
		t.Helper()
		budget++
		req.MaxSegments = budget
		resp, err := b.Execute(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	same := func(what string, got, want *QueryResponse) {
		t.Helper()
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("%s: rows %v, uncached %v", what, got.Rows, want.Rows)
		}
	}

	t.Run("compiled ranges share, a cut misses", func(t *testing.T) {
		d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
		ingestOrders(t, d, 220, 2) // 4 sealed segments of 50 rows, 20 consuming rows
		b, ref := NewBrokerWithOptions(d, BrokerOptions{CacheMaxBytes: 1 << 20}), NewBroker(d)
		below := func(ts int64) *QueryRequest {
			return &QueryRequest{Query: shape(Filter{Column: "ts", Op: OpGe, Value: ts})}
		}
		first := exec(b, below(t0-5000))
		if first.Stats.SegmentsScanned != 4 || first.Stats.SegmentsCached != 0 {
			t.Fatalf("cold: %+v", first.Stats)
		}
		// Another literal below every row compiles to the whole dictionary
		// on every segment: all four partials are reused, only the
		// consuming rows are scanned.
		second := exec(b, below(t0-1000))
		if st := second.Stats; st.SegmentsCached != 4 || st.SegmentsScanned != 0 || st.RowsScanned != 20 {
			t.Fatalf("same code range: %+v", st)
		}
		same("same code range", second, exec(ref, below(t0-1000)))
		// ts >= t0+50s cuts each partition's first segment (rows 0..99)
		// and lies below its second (rows 100..199).
		cut := exec(b, below(t0+50_000))
		if st := cut.Stats; st.SegmentsScanned != 2 || st.SegmentsCached != 2 {
			t.Fatalf("cut: %+v", st)
		}
		same("cut", cut, exec(ref, below(t0+50_000)))

		// A compacted segment misses under its new name; the inputs'
		// entries are swept.
		var inputs []string
		for _, info := range d.SegmentInfos() {
			if info.Partition == 0 {
				inputs = append(inputs, info.Name)
			}
		}
		res, err := d.Compact(inputs)
		if err != nil {
			t.Fatal(err)
		}
		merged := exec(b, below(t0-1000))
		if st := merged.Stats; st.SegmentsScanned != 1 || st.SegmentsCached != 2 {
			t.Fatalf("after compacting %v into %s: %+v", inputs, res.Merged, st)
		}
		same("compacted", merged, exec(ref, below(t0-1000)))
		// Left: the whole-range partials of partition 1's two segments and
		// of the merged one, and the cut partial of partition 1's first.
		if st := b.CacheStats(); st.SegmentEntries != 4 {
			t.Fatalf("compacted inputs' entries not swept: %+v", st)
		}
	})

	t.Run("upsert supersede misses and answers exactly", func(t *testing.T) {
		d, _ := newDeployment(t, 2, 1, true, BackupP2P, nil)
		rows := orderRows(120)
		for _, r := range rows {
			if err := d.Ingest(0, r); err != nil { // 2 sealed segments, 20 consuming rows
				t.Fatal(err)
			}
		}
		b, ref := NewBrokerWithOptions(d, BrokerOptions{CacheMaxBytes: 1 << 20}), NewBroker(d)
		req := func() *QueryRequest { return &QueryRequest{Query: shape()} }
		exec(b, req())
		if st := exec(b, req()).Stats; st.SegmentsCached != 2 {
			t.Fatalf("warm: %+v", st)
		}
		// Each round supersedes a row of one sealed segment. Its bitmap is
		// cloned and the old one collected, so a key holding the bitmap's
		// address instead of the version would sooner or later find a
		// dead bitmap's entry under a new bitmap. (28 rounds leave the
		// consuming store, which takes the new rows, short of a seal.)
		for round := range 28 {
			r := rows[(round*13)%100]
			r["amount"] = float64(1000 + round)
			if err := d.Ingest(0, r); err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			got := exec(b, req())
			if st := got.Stats; st.SegmentsScanned != 1 || st.SegmentsCached != 1 {
				t.Fatalf("round %d: the superseded row's segment must scan, the other hit: %+v", round, st)
			}
			same(fmt.Sprintf("round %d", round), got, exec(ref, req()))
		}
	})

	t.Run("exact and trimmed never share", func(t *testing.T) {
		d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
		ingestOrders(t, d, 220, 2)
		b, ref := NewBrokerWithOptions(d, BrokerOptions{CacheMaxBytes: 1 << 20}), NewBroker(d)
		// 7 item groups per segment against a 5-group trim budget.
		top := func(exact bool) *QueryRequest {
			return &QueryRequest{TrimExact: exact, TrimSize: 1, Query: &Query{GroupBy: []string{"items"},
				Aggs:    []AggSpec{{Kind: AggSum, Column: "amount", As: "total"}},
				OrderBy: []OrderSpec{{Column: "total"}}, Limit: 1}}
		}
		if st := exec(b, top(false)).Stats; st.GroupsTrimmed == 0 {
			t.Fatalf("the trimmed request trimmed nothing: %+v", st)
		}
		exact := exec(b, top(true))
		if st := exact.Stats; st.SegmentsCached != 0 {
			t.Fatalf("TrimExact read a trimmed partial: %+v", st)
		}
		same("exact", exact, exec(ref, top(true)))
		if st := exec(b, top(true)).Stats; st.SegmentsCached != 4 {
			t.Fatalf("TrimExact again: %+v", st)
		}
	})

	t.Run("a hit allocates less than a scan", func(t *testing.T) {
		seg := buildTestSegment(t, orderRows(2000), IndexConfig{InvertedColumns: []string{"city"}})
		q := shape(Filter{Column: "status", Op: OpEq, Value: "delivered"})
		cached := &foldSink{q: q, cache: qcache.NewCache(1 << 20)}
		u := scanUnit{seg: seg}
		scan := func(sk *foldSink) {
			if _, _, err := (&foldProducer{sink: sk}).scan(ctx, u); err != nil {
				t.Fatal(err)
			}
		}
		scan(cached)
		hit := testing.AllocsPerRun(50, func() { scan(cached) })
		miss := testing.AllocsPerRun(50, func() { scan(&foldSink{q: q}) })
		if hit >= miss {
			t.Fatalf("a hit allocates %.0f, a scan %.0f", hit, miss)
		}
		t.Logf("allocations: hit %.0f, scan %.0f", hit, miss)
	})
}
