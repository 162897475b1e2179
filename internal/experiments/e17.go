package experiments

import (
	"reflect"
	"slices"
	"time"

	"repro/internal/olap"
	"repro/internal/olap/lifecycle"
)

// ---- E17: segment lifecycle — retention, tiering, pruning (§4.3.4, §4.4) ----

// E17 measures the segment lifecycle manager against the no-lifecycle
// baseline on the same ingest and query workload:
//
//   - resident memory: with tiering (bounded LRU hot-set) the serving
//     footprint stays flat while the baseline grows with every seal;
//   - broker time pruning: a time-windowed query on a wide-retention
//     table skips the out-of-window segments before any scan (and before
//     any deep-store reload), cutting latency;
//   - exactness: a grouped AVG/COUNT/DISTINCTCOUNT over a mostly-cold
//     table, answered through transparent deep-store reloads, matches the
//     all-hot baseline bit for bit.
func E17(rowsN int) []Row {
	if rowsN <= 0 {
		rowsN = 40_000
	}
	const hotSet = 6

	// The wide-retention, many-segment table the lifecycle policies act on:
	// ~40 segments across two servers. Baseline: ingest with no lifecycle;
	// resident memory tracks total sealed data.
	allHot, _ := sealedOrders(rowsN, rowsN/40, 2, 2, 1)
	baselineBytes := allHot.ResidentBytes()
	totalSegments := len(allHot.SegmentInfos())

	// Lifecycle on: the same ingest with the manager sweeping alongside
	// (as its background loop would), hot-set bounded at hotSet segments.
	bounded, _ := sealedOrders(rowsN, rowsN/40, 2, 2, 1)
	mgr := lifecycle.New(bounded, lifecycle.Config{MaxHotSegments: hotSet})
	mgr.Sweep()
	boundedBytes := bounded.ResidentBytes()
	hotSegments := 0
	for _, info := range bounded.SegmentInfos() {
		if info.Resident > 0 {
			hotSegments++
		}
	}

	// Time pruning on the wide-retention (all-hot) table: a window
	// covering ~10% of the table's time span.
	span := int64(rowsN) * 500 // orderRows spaces ts by 500ms
	from := int64(1700000000000) + span*45/100
	to := from + span/10
	q := scatterGatherQuery()
	windowed := *q
	windowed.Filters = append(slices.Clip(q.Filters), olap.Filter{Column: "ts", Op: olap.OpBetween, Value: from, Value2: to})
	broker := olap.NewBroker(allHot)
	const iters = 20
	measure := func(query *olap.Query) (time.Duration, *olap.QueryResponse) {
		var res *olap.QueryResponse
		start := time.Now()
		for i := 0; i < iters; i++ {
			res = mustExecute(broker, &olap.QueryRequest{Query: query})
		}
		return time.Since(start) / iters, res
	}
	fullLat, _ := measure(q)
	windowLat, windowRes := measure(&windowed)

	// Exactness over offloaded segments: the bounded deployment answers
	// the full grouped aggregation through transparent reloads.
	wantRes := mustExecute(broker, &olap.QueryRequest{Query: q})
	gotRes := mustExecute(olap.NewBroker(bounded), &olap.QueryRequest{Query: q})
	exact := 0.0
	if reflect.DeepEqual(gotRes.Rows, wantRes.Rows) {
		exact = 1.0
	}

	return []Row{
		{"segments_total", float64(totalSegments), "segments"},
		{"nolifecycle_resident_bytes", float64(baselineBytes), "B"},
		{"lifecycle_resident_bytes", float64(boundedBytes), "B"},
		{"resident_reduction", float64(baselineBytes) / float64(boundedBytes), "x"},
		{"hot_segments", float64(hotSegments), "segments"},
		{"pruned_segments", float64(windowRes.Stats.SegmentsPruned), "segments"},
		{"pruning_ratio", float64(windowRes.Stats.SegmentsPruned) / float64(totalSegments), "frac"},
		{"full_query_us", float64(fullLat.Microseconds()), "us"},
		{"windowed_query_us", float64(windowLat.Microseconds()), "us"},
		{"pruning_speedup", float64(fullLat) / float64(windowLat), "x"},
		{"offloaded_exact_match", exact, "bool"},
		{"deepstore_reloads", float64(bounded.Reloads()), "segments"},
	}
}
