package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"repro/internal/olap"
	"repro/internal/olap/qcache"
)

// ---- E20: broker result cache + admission control (§4.3, north star) ----

// E20 measures the broker-side query admission layer under the workload the
// north star names — heavy multi-tenant dashboard traffic where thousands of
// identical queries repeat per second and one tenant can burst 100x:
//
//   - hit path: repeated identical queries are served from the bounded LRU
//     result cache (keyed by canonical request + table generation) without
//     touching a single segment — p50 collapses by orders of magnitude vs
//     executing the scatter-gather every time;
//   - coalescing: N concurrent identical cold queries execute exactly once
//     (singleflight); the other N-1 share the leader's response with
//     independent stat snapshots;
//   - admission: a tenant bursting far past its token-bucket quota is shed
//     with the typed ErrOverloaded (never an unbounded queue), while other
//     tenants' traffic is untouched and cache memory stays under its bound.
func E20(rowsN int) []Row {
	if rowsN <= 0 {
		rowsN = 40_000
	}
	d, _ := sealedOrders(rowsN, rowsN/8, 2, 2, 1)
	dashboard := &olap.Query{
		Filters: []olap.Filter{{Column: "status", Op: olap.OpEq, Value: "delivered"}},
		GroupBy: []string{"city"},
		Aggs: []olap.AggSpec{
			{Kind: olap.AggSum, Column: "amount", As: "revenue"},
			{Kind: olap.AggCount},
		},
	}

	// Phase 1 — hit-path latency. The uncached broker is the miss baseline:
	// same deployment, same scatter-gather, no cache in front.
	const bound = int64(8 << 20)
	uncached := olap.NewBroker(d)
	cached := olap.NewBrokerWithOptions(d, olap.BrokerOptions{CacheMaxBytes: bound})
	const iters = 60
	dash := &olap.QueryRequest{Query: dashboard}
	missP50 := p50(iters, nil, func() { mustExecute(uncached, dash) })
	mustExecute(cached, dash) // warm the cache once; every timed iteration below hits
	hitP50 := p50(iters, nil, func() { mustExecute(cached, dash) })
	hitStats := cached.CacheStats()

	// Phase 2 — in-flight deduplication: a cold query hit by many callers
	// at once. A different filter value keeps it out of the warm cache.
	coldQuery := &olap.Query{
		Filters: []olap.Filter{{Column: "status", Op: olap.OpEq, Value: "placed"}},
		GroupBy: []string{"city"},
		Aggs:    []olap.AggSpec{{Kind: olap.AggSum, Column: "amount", As: "revenue"}},
	}
	const concurrent = 128
	var (
		wg         sync.WaitGroup
		gate       = make(chan struct{})
		executions atomic.Int64
		shared     atomic.Int64
		mismatch   atomic.Int64
	)
	wantRows := mustExecute(uncached, &olap.QueryRequest{Query: coldQuery}).Rows
	wg.Add(concurrent)
	for i := 0; i < concurrent; i++ {
		go func() {
			defer wg.Done()
			<-gate
			resp := mustExecute(cached, &olap.QueryRequest{Query: coldQuery})
			if resp.Stats.CacheHit == 0 && resp.Stats.Coalesced == 0 {
				executions.Add(1)
			} else {
				shared.Add(1)
			}
			if !reflect.DeepEqual(resp.Rows, wantRows) {
				mismatch.Add(1)
			}
		}()
	}
	close(gate)
	wg.Wait()

	// Phase 3 — a 100x tenant burst against tight quotas. The burst tenant
	// gets a 100x-undersized token bucket plus a bounded execution queue;
	// the dashboard tenant is unlimited and must be unaffected.
	admitted := olap.NewBrokerWithOptions(d, olap.BrokerOptions{
		CacheMaxBytes: bound,
		Admission: &qcache.AdmissionConfig{
			MaxConcurrent: 4,
			MaxQueue:      8,
			TenantOverrides: map[string]qcache.TenantQuota{
				"burst": {Rate: 100, Burst: 4},
			},
		},
	})
	const burstN = 400 // 100x the burst tenant's bucket
	var burstOK, burstShed, shedUntyped atomic.Int64
	wg.Add(burstN)
	gate2 := make(chan struct{})
	for i := 0; i < burstN; i++ {
		go func(i int) {
			defer wg.Done()
			<-gate2
			// Distinct filter values force real executions, not cache hits.
			req := &olap.QueryRequest{Tenant: "burst", Query: &olap.Query{
				Filters: []olap.Filter{{Column: "amount", Op: olap.OpLe, Value: float64(i)}},
				Aggs:    []olap.AggSpec{{Kind: olap.AggCount}},
			}}
			_, err := admitted.Execute(context.Background(), req)
			switch {
			case err == nil:
				burstOK.Add(1)
			case errors.Is(err, olap.ErrOverloaded):
				burstShed.Add(1)
			default:
				shedUntyped.Add(1)
			}
		}(i)
	}
	close(gate2)
	wg.Wait()
	dashOK := 0
	for i := 0; i < 50; i++ {
		if _, err := admitted.Execute(context.Background(), &olap.QueryRequest{Tenant: "dash", Query: dashboard}); err != nil {
			panic(fmt.Sprintf("dashboard tenant shed by burst tenant: %v", err))
		}
		dashOK++
	}
	// The bound covers both kinds of entry: whole results and per-segment
	// partials.
	cacheBytes := func(b *olap.Broker) int64 {
		st := b.CacheStats()
		return st.Bytes + st.SegmentBytes
	}
	memOK := 1.0
	if cacheBytes(admitted) > bound || cacheBytes(cached) > bound {
		memOK = 0
	}

	hitRate := float64(hitStats.Hits) / float64(hitStats.Hits+hitStats.Misses)
	return []Row{
		{"miss_p50_us", float64(missP50.Nanoseconds()) / 1e3, "us"},
		{"hit_p50_us", float64(hitP50.Nanoseconds()) / 1e3, "us"},
		{"hit_speedup", float64(missP50) / float64(hitP50), "x"},
		{"hit_rate", hitRate, "frac"},
		{"concurrent_identical", concurrent, "queries"},
		{"executions", float64(executions.Load()), "queries"},
		{"shared_responses", float64(shared.Load()), "queries"},
		{"shared_row_mismatches", float64(mismatch.Load()), "queries"},
		{"burst_queries", burstN, "queries"},
		{"burst_served", float64(burstOK.Load()), "queries"},
		{"burst_shed", float64(burstShed.Load()), "queries"},
		{"burst_shed_untyped", float64(shedUntyped.Load()), "queries"},
		{"broker_shed_stat", float64(admitted.AdmissionStats().Shed), "queries"},
		{"dash_served", float64(dashOK), "queries"},
		{"cache_mem_bytes", float64(cacheBytes(admitted)), "B"},
		{"cache_bound_bytes", float64(bound), "B"},
		{"mem_bounded", memOK, "bool"},
	}
}
