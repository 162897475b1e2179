package experiments

import (
	"context"
	"runtime"
	"time"

	"repro/internal/objstore"
	"repro/internal/olap"
)

// ---- E16: parallel scatter-gather (§4.3) ----

// ScatterGatherDeployment builds the multi-segment OLAP fixture E16 and
// BenchmarkParallelScatterGather share: one table sealed into many small
// segments across two servers, so the per-server segment-scan worker pool
// has real fan-out to exploit.
func ScatterGatherDeployment(rowsN, segmentRows int) *olap.Deployment {
	if rowsN <= 0 {
		rowsN = 60_000
	}
	if segmentRows <= 0 {
		segmentRows = rowsN / 32
	}
	servers := []*olap.Server{olap.NewServer("s0"), olap.NewServer("s1")}
	d, err := olap.NewDeployment(olap.DeploymentConfig{
		Table: olap.TableConfig{
			Name:        "orders",
			Schema:      ordersSchema(),
			SegmentRows: segmentRows,
		},
		Servers:      servers,
		SegmentStore: objstore.NewMemStore(),
		Backup:       olap.BackupP2P,
	})
	if err != nil {
		panic(err)
	}
	for i, r := range orderRows(rowsN) {
		if err := d.Ingest(i%2, r); err != nil {
			panic(err)
		}
	}
	for p := 0; p < 2; p++ {
		if err := d.Seal(p); err != nil {
			panic(err)
		}
	}
	d.WaitUploads()
	return d
}

// scatterGatherQuery is the multi-segment aggregation both broker variants
// run: a grouped AVG + DISTINCTCOUNT, the two aggregations that only work
// across segments because partial states (SUM+COUNT pairs, value sets)
// merge exactly.
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
	d := ScatterGatherDeployment(rowsN, 0)
	q := scatterGatherQuery()
	serial := olap.NewBrokerWithOptions(d, olap.BrokerOptions{Workers: 1})
	parallel := olap.NewBrokerWithOptions(d, olap.BrokerOptions{Workers: 0})
	const iters = 20
	measure := func(b *olap.Broker) time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := b.Execute(context.Background(), &olap.QueryRequest{Query: q}); err != nil {
				panic(err)
			}
		}
		return time.Since(start) / iters
	}
	// Warm both paths once before timing.
	measureOnce := func(b *olap.Broker) {
		if _, err := b.Execute(context.Background(), &olap.QueryRequest{Query: q}); err != nil {
			panic(err)
		}
	}
	measureOnce(serial)
	measureOnce(parallel)
	serialLat := measure(serial)
	parallelLat := measure(parallel)
	res, err := parallel.Execute(context.Background(), &olap.QueryRequest{Query: q})
	if err != nil {
		panic(err)
	}
	return []Row{
		{"segments_scanned", float64(res.Stats.SegmentsScanned), "segments"},
		{"workers", float64(runtime.GOMAXPROCS(0)), "goroutines"},
		{"serial_query_us", float64(serialLat.Microseconds()), "us"},
		{"parallel_query_us", float64(parallelLat.Microseconds()), "us"},
		{"speedup", float64(serialLat) / float64(parallelLat), "x"},
	}
}

// scatterGatherExperiments registers E16 for rtbench / AllWithIntegration.
func scatterGatherExperiments() []Experiment {
	return []Experiment{
		{
			ID:    "E16",
			Title: "Parallel scatter-gather query execution (§4.3)",
			Claim: "scatter-gather across segment servers serves sub-second aggregations; partial aggregates merge exactly at the broker",
			Run:   func() []Row { return E16(0) },
		},
	}
}
