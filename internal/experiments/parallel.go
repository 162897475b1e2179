package experiments

import (
	"runtime"
	"time"

	"repro/internal/olap"
)

// ---- E16: parallel scatter-gather (§4.3) ----

// scatterGatherQuery is the multi-segment aggregation E16's two broker
// variants (and E17's pruning comparison) run: a grouped AVG +
// DISTINCTCOUNT, the two aggregations that only work across segments because
// partial states (SUM+COUNT pairs, value sets) merge exactly.
func scatterGatherQuery() *olap.Query {
	return &olap.Query{
		GroupBy: []string{"city"},
		Aggs: []olap.AggSpec{
			{Kind: olap.AggAvg, Column: "amount"},
			{Kind: olap.AggCount},
			{Kind: olap.AggDistinctCount, Column: "status"},
		},
	}
}

// E16 measures the parallel scatter-gather pipeline: the same multi-segment
// grouped aggregation executed by a serial broker (workers=1, the original
// one-segment-at-a-time loop) and a parallel broker (workers=GOMAXPROCS).
// The speedup tracks core count; on a single-core host the two paths tie.
func E16(rowsN int) []Row {
	if rowsN <= 0 {
		rowsN = 60_000
	}
	// 32 small segments across two servers, so the per-server segment-scan
	// worker pool has real fan-out to exploit.
	d, _ := sealedOrders(rowsN, rowsN/32, 2, 2, 1)
	req := &olap.QueryRequest{Query: scatterGatherQuery()}
	serial := olap.NewBrokerWithOptions(d, olap.BrokerOptions{Workers: 1})
	parallel := olap.NewBrokerWithOptions(d, olap.BrokerOptions{Workers: 0})
	const iters = 20
	measure := func(b *olap.Broker) time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			mustExecute(b, req)
		}
		return time.Since(start) / iters
	}
	// Warm both paths once before timing.
	mustExecute(serial, req)
	mustExecute(parallel, req)
	serialLat := measure(serial)
	parallelLat := measure(parallel)
	res := mustExecute(parallel, req)
	return []Row{
		{"segments_scanned", float64(res.Stats.SegmentsScanned), "segments"},
		{"workers", float64(runtime.GOMAXPROCS(0)), "goroutines"},
		{"serial_query_us", float64(serialLat.Microseconds()), "us"},
		{"parallel_query_us", float64(parallelLat.Microseconds()), "us"},
		{"speedup", float64(serialLat) / float64(parallelLat), "x"},
	}
}
