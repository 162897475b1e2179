package experiments

import (
	"reflect"
	"runtime"
	"time"

	"repro/internal/fedsql"
)

// ---- E24: streaming batch-iterator execution (Connector v3) ----

// v2Connector hides a connector's streaming surface, forcing the engine
// through the v2 Scan adapter (the whole result as records, then rows, before
// the first batch) — the materialized reference.
type v2Connector struct{ fedsql.Connector }

// E24 measures the Connector v3 streaming redesign on its headline shape:
// a cold full-table aggregate scan that the backend cannot absorb
// (DisablePushdown), so every row crosses the connector boundary into the
// engine-side aggregator. The materialized path buffers the entire scan
// result before the engine sees the first row; the streaming path holds
// one in-flight batch. Both paths run the same engine aggregation code, so
// the answers must be identical — the differential harness in
// internal/fedsql proves the same property across many more shapes.
//
// Reported:
//   - streaming_mem_reduction: materialized peak engine bytes / streaming
//     peak engine bytes (the ≥10x claim);
//   - streaming_throughput_ratio: materialized elapsed / streaming elapsed,
//     best-of-3 interleaved (≥1 means streaming is no slower);
//   - stream_scan_gbps_core: streamed scan volume per second per core;
//   - streaming_exact: byte-identical answers on both paths.
func E24(rowsN int) []Row {
	if rowsN <= 0 {
		rowsN = 60_000
	}
	d, _ := sealedOrders(rowsN, rowsN/32, 2, 2, 1)
	pinot := fedsql.NewPinotConnector("pinot")
	pinot.DisablePushdown = true // force scan + engine-side aggregation
	pinot.AddTable(d)

	streamEng := fedsql.NewEngine()
	streamEng.Register(pinot)
	matEng := fedsql.NewEngine()
	matEng.Register(&v2Connector{Connector: pinot})

	const sql = "SELECT city, COUNT(*) AS n, SUM(amount) AS total FROM pinot.orders GROUP BY city ORDER BY city"
	run := func(e *fedsql.Engine) (*fedsql.Result, time.Duration) {
		start := time.Now()
		res, err := e.Query(sql)
		if err != nil {
			panic(err)
		}
		return res, time.Since(start)
	}

	// Warm both sides once (segment maps, dictionaries), then take the
	// best of three interleaved timed rounds per side so a preempted round
	// doesn't masquerade as a throughput regression.
	run(streamEng)
	run(matEng)
	var sRes, mRes *fedsql.Result
	var sBest, mBest time.Duration
	for i := 0; i < 3; i++ {
		res, el := run(streamEng)
		if sBest == 0 || el < sBest {
			sRes, sBest = res, el
		}
		res, el = run(matEng)
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
	if sRes.Stats.Streamed && sRes.Stats.BatchesStreamed > 0 && !mRes.Stats.Streamed {
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
