package experiments

import (
	"reflect"
	"runtime"
	"time"

	"repro/internal/fedsql"
)

// ---- E24: streaming batch-iterator execution (Connector v3) ----

// E24 measures the Connector v3 streaming redesign on its headline shape:
// a cold full-table aggregate scan that the backend cannot absorb
// (DisablePushdown), so every row crosses the connector boundary into the
// engine-side aggregator, which holds one in-flight batch. The materialized
// reference is the same aggregate over a FROM-subquery of the same scan: the
// engine holds the subquery's whole result in its in-memory source before
// the aggregate sees the first row. Both run the same engine aggregation
// code over the same rows, so the answers must be identical — the
// differential harness in internal/fedsql proves the same property across
// many more shapes.
//
// Reported:
//   - streaming_mem_reduction: materialized peak engine bytes / streaming
//     peak engine bytes (the ≥10x claim);
//   - streaming_throughput_ratio: materialized elapsed / streaming elapsed,
//     best-of-3 interleaved (≥1 means streaming is no slower);
//   - stream_scan_gbps_core: streamed scan volume per second per core;
//   - streaming_exact: byte-identical answers on both paths;
//   - streaming_streamed: the scan's batches reached the engine as produced.
func E24(rowsN int) []Row {
	if rowsN <= 0 {
		rowsN = 60_000
	}
	d, _ := sealedOrders(rowsN, rowsN/32, 2, 2, 1)
	pinot := fedsql.NewPinotConnector("pinot")
	pinot.DisablePushdown = true // force scan + engine-side aggregation
	pinot.AddTable(d)
	eng := fedsql.NewEngine()
	eng.Register(pinot)

	const (
		streamSQL = "SELECT city, COUNT(*) AS n, SUM(amount) AS total FROM pinot.orders GROUP BY city ORDER BY city"
		matSQL    = "SELECT city, COUNT(*) AS n, SUM(amount) AS total FROM (SELECT city, amount FROM pinot.orders) t GROUP BY city ORDER BY city"
	)
	run := func(sql string) (*fedsql.Result, time.Duration) {
		start := time.Now()
		res, err := eng.Query(sql)
		if err != nil {
			panic(err)
		}
		return res, time.Since(start)
	}

	// Warm both sides once (segment maps, dictionaries), then take the
	// best of three interleaved timed rounds per side so a preempted round
	// doesn't masquerade as a throughput regression.
	run(streamSQL)
	run(matSQL)
	var sRes, mRes *fedsql.Result
	var sBest, mBest time.Duration
	for i := 0; i < 3; i++ {
		res, el := run(streamSQL)
		if sBest == 0 || el < sBest {
			sRes, sBest = res, el
		}
		res, el = run(matSQL)
		if mBest == 0 || el < mBest {
			mRes, mBest = res, el
		}
	}

	exact := 0.0
	if reflect.DeepEqual(sRes.Rows, mRes.Rows) && reflect.DeepEqual(sRes.Columns, mRes.Columns) {
		exact = 1
	}
	memReduction := 0.0
	if sRes.Stats.PeakEngineBytes > 0 {
		memReduction = float64(mRes.Stats.PeakEngineBytes) / float64(sRes.Stats.PeakEngineBytes)
	}
	// Scan volume: the materialized peak is the whole boundary-crossing
	// result, which is exactly the bytes the streaming path scanned through.
	gbPerSecPerCore := float64(mRes.Stats.PeakEngineBytes) / 1e9 / sBest.Seconds() / float64(runtime.NumCPU())
	streamedOK := 0.0
	if sRes.Stats.Streamed && sRes.Stats.BatchesStreamed > 0 {
		streamedOK = 1
	}
	return []Row{
		{"stream_peak_engine_bytes", float64(sRes.Stats.PeakEngineBytes), "B"},
		{"mat_peak_engine_bytes", float64(mRes.Stats.PeakEngineBytes), "B"},
		{"streaming_mem_reduction", memReduction, "x"},
		{"stream_elapsed_us", float64(sBest.Microseconds()), "us"},
		{"mat_elapsed_us", float64(mBest.Microseconds()), "us"},
		{"streaming_throughput_ratio", float64(mBest) / float64(sBest), "x"},
		{"stream_scan_gbps_core", gbPerSecPerCore, "GB/s/core"},
		{"stream_batches", float64(sRes.Stats.BatchesStreamed), "batches"},
		{"stream_rows", float64(sRes.Stats.RowsReturned), "rows"},
		{"streaming_exact", exact, "bool"},
		{"streaming_streamed", streamedOK, "bool"},
	}
}
