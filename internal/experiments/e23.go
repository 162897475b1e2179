package experiments

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"

	"repro/internal/olap"
	"repro/internal/olap/rebalance"
)

// ---- E23: online cluster elasticity (internal/olap/rebalance) ----

// E23 measures online cluster elasticity — the §4.1.4 sticky-assignment
// claim applied to OLAP segment replicas:
//
//   - planning: on an N→N+1 scale-out over the same snapshot, the sticky
//     plan moves ~1/(N+1) of all replica slots where the naive re-hash
//     moves most of them (segments_moved_ratio = sticky/naive);
//   - execution: the scale-out rebalance runs under a live query workload,
//     and every answer stays byte-identical to the pre-scale baseline with
//     zero errors (rebalance_exact, rebalance_query_errors) — the
//     swap-time revalidation discipline at work;
//   - decommission: draining a server under the same workload is equally
//     invisible;
//   - tiering interaction: fully offloaded segments rebalance as metadata
//     only, zero bytes copied (offload_zero_copy) — the deep store already
//     holds the data, so elasticity on the cold tier is free.
func E23(rowsN int) []Row {
	if rowsN <= 0 {
		rowsN = 24_000
	}
	const nServers, partitions, replicas = 4, 4, 2
	d, _ := sealedOrders(rowsN, rowsN/16, nServers, partitions, replicas)
	d.AttachLoaders() // offloaded segments (phase 4) reload from the deep store
	b := olap.NewBroker(d)
	shape := &olap.Query{GroupBy: []string{"city"}, Aggs: []olap.AggSpec{
		{Kind: olap.AggSum, Column: "amount"}, {Kind: olap.AggCount},
	}}
	baseline := mustExecute(b, &olap.QueryRequest{Query: shape})

	// Phase 1 — plan comparison on the identical snapshot: join server N,
	// then plan the same state both ways before executing anything.
	d.AddServer(olap.NewServer("joined"))
	state := d.RebalanceState()
	stickyPlan := rebalance.PlanSticky(state)
	naivePlan := rebalance.PlanNaive(state)
	stickyFrac := stickyPlan.MovedFraction()
	naiveFrac := naivePlan.MovedFraction()
	ratio := 0.0
	if len(naivePlan.Moves) > 0 {
		ratio = float64(len(stickyPlan.Moves)) / float64(len(naivePlan.Moves))
	}

	// Phase 2 — execute the scale-out under live queries: zero errors,
	// every answer byte-identical to the pre-scale baseline.
	var queryErrs, wrong, queries atomic.Int64
	runWorkload := func(body func()) {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					r, err := b.Execute(context.Background(), &olap.QueryRequest{Query: shape})
					if err != nil {
						queryErrs.Add(1)
						continue
					}
					queries.Add(1)
					if !reflect.DeepEqual(r.Rows, baseline.Rows) {
						wrong.Add(1)
					}
				}
			}()
		}
		// Let the workload ramp before the membership change so queries
		// genuinely overlap the moves (and keep flying a beat after).
		ramp := queries.Load()
		for queries.Load() <= ramp && queryErrs.Load() == 0 {
		}
		body()
		target := queries.Load() + 3
		for queries.Load() < target && queryErrs.Load() == 0 {
		}
		close(stop)
		wg.Wait()
	}
	ctx := context.Background()
	var scaleRep, drainRep olap.RebalanceReport
	var err error
	runWorkload(func() {
		if scaleRep, err = d.Rebalance(ctx); err != nil {
			panic(err)
		}
	})

	// Phase 3 — decommission one original server under the same workload.
	runWorkload(func() {
		if drainRep, err = d.DecommissionServer(ctx, 0); err != nil {
			panic(err)
		}
	})

	// Phase 4 — offload everything, join another server: the rebalance must
	// copy zero bytes (metadata-only moves; the deep store serves reloads).
	for _, info := range d.SegmentInfos() {
		if _, err := d.OffloadSegment(info.Name); err != nil {
			panic(err)
		}
	}
	d.AddServer(olap.NewServer("joined-cold"))
	coldRep, err := d.Rebalance(ctx)
	if err != nil {
		panic(err)
	}
	zeroCopy := 0.0
	if coldRep.Applied > 0 && coldRep.BytesCopied == 0 && coldRep.MetadataMoves == coldRep.Applied {
		zeroCopy = 1
	}
	after := mustExecute(b, &olap.QueryRequest{Query: shape})
	exact := 0.0
	if queryErrs.Load() == 0 && wrong.Load() == 0 && reflect.DeepEqual(after.Rows, baseline.Rows) {
		exact = 1
	}

	return []Row{
		{"replica_slots", float64(stickyPlan.Slots), "slots"},
		{"sticky_moves", float64(len(stickyPlan.Moves)), "moves"},
		{"naive_moves", float64(len(naivePlan.Moves)), "moves"},
		{"sticky_moved_frac", stickyFrac, "frac"},
		{"naive_moved_frac", naiveFrac, "frac"},
		{"segments_moved_ratio", ratio, "x"},
		{"scaleout_applied", float64(scaleRep.Applied), "moves"},
		{"scaleout_bytes_copied", float64(scaleRep.BytesCopied), "B"},
		{"drain_applied", float64(drainRep.Applied), "moves"},
		{"rebalance_queries", float64(queries.Load()), "queries"},
		{"rebalance_query_errors", float64(queryErrs.Load()), "queries"},
		{"rebalance_wrong_answers", float64(wrong.Load()), "queries"},
		{"rebalance_exact", exact, "bool"},
		{"cold_moves", float64(coldRep.Applied), "moves"},
		{"cold_bytes_copied", float64(coldRep.BytesCopied), "B"},
		{"offload_zero_copy", zeroCopy, "bool"},
	}
}
