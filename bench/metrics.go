package main

import (
	"context"
	"runtime"
	"time"

	"repro/internal/objstore"
	"repro/internal/olap"
	"repro/internal/record"
	"repro/internal/sqlparse"
	"repro/internal/stream"
)

// metricDef declares one metric of the benchmark. BENCHMARK.json lists the
// same names, units and directions; a test holds the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndDefs are the metrics a user of the platform would see, the same
// on every workload, each with the share by which it may get worse before
// a change counts as a regression.
//
// The bounds are as wide as the A/A evidence in README.md demands, not as
// tight as one would like: on the 2-core box the numbers were taken on, the
// timing metrics of identical runs spread 4-25 % with the hour of the day.
// A tail latency is not among them: on fresh_paced no quantile above the
// upper quartile repeated to within a quarter between identical runs (see
// README.md), so the tail is a per-layer metric of the traced run.
var endToEndDefs = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"ops_s", "1/s", higher, 0.25},
	{"op_p50_ms", "ms", lower, 0.25},
	{"cpu_ms_per_op", "ms", lower, 0.25},
	{"alloc_kb_per_op", "KB", lower, 0.05},
	{"allocs_per_op", "count", lower, 0.05},
	{"live_heap_mb", "MB", lower, 0.10},
}

// perLayerDefs are the traced run's metrics, one module (layer) per prefix.
var perLayerDefs = []metricDef{
	{Name: "record.encode_ns_row", Unit: "ns", Better: lower},
	{Name: "record.decode_ns_row", Unit: "ns", Better: lower},
	{Name: "record.encode_allocs_row", Unit: "count", Better: lower},
	{Name: "record.decode_allocs_row", Unit: "count", Better: lower},

	{Name: "stream.produce_us_batch", Unit: "us", Better: lower},
	{Name: "stream.produce_batches", Unit: "count", Better: higher},
	{Name: "stream.mb_in", Unit: "MB", Better: higher},
	{Name: "stream.fetch_us_call", Unit: "us", Better: lower},

	{Name: "flow.source_busy_frac", Unit: "frac", Better: lower},
	{Name: "flow.source_empty_poll_frac", Unit: "frac", Better: lower},
	{Name: "flow.op_busy_frac", Unit: "frac", Better: lower},
	{Name: "flow.sink_busy_frac", Unit: "frac", Better: lower},
	{Name: "flow.events_in", Unit: "count", Better: higher},
	{Name: "flow.events_out", Unit: "count", Better: higher},
	{Name: "flow.source_lag_rows_max", Unit: "count", Better: lower},
	{Name: "flow.window_results", Unit: "count", Better: higher},
	{Name: "flow.window_emit_lag_p50_ms", Unit: "ms", Better: lower},
	{Name: "flow.window_late_frac", Unit: "frac", Better: lower},

	{Name: "hop.produce_ack_p50_ms", Unit: "ms", Better: lower},
	{Name: "hop.stream_to_flow_p50_ms", Unit: "ms", Better: lower},
	{Name: "hop.flow_to_olap_p50_ms", Unit: "ms", Better: lower},
	{Name: "hop.produce_ack_p99_ms", Unit: "ms", Better: lower},
	{Name: "hop.stream_to_flow_p99_ms", Unit: "ms", Better: lower},
	{Name: "hop.flow_to_olap_p99_ms", Unit: "ms", Better: lower},

	{Name: "olap.ingest_ns_row", Unit: "ns", Better: lower},
	{Name: "olap.ingest_allocs_row", Unit: "count", Better: lower},
	{Name: "olap.seal_ms_segment", Unit: "ms", Better: lower},
	{Name: "olap.segments_sealed", Unit: "count", Better: higher},
	{Name: "olap.ingest_lag_rows_max", Unit: "count", Better: lower},
	{Name: "olap.ingest_errors", Unit: "count", Better: lower},

	{Name: "objstore.put_count", Unit: "count", Better: lower},
	{Name: "objstore.put_mb", Unit: "MB", Better: lower},
	{Name: "objstore.put_busy_ms", Unit: "ms", Better: lower},
	{Name: "objstore.get_count", Unit: "count", Better: lower},
	{Name: "objstore.get_mb", Unit: "MB", Better: lower},

	{Name: "lifecycle.segments_expired", Unit: "count", Better: higher},
	{Name: "lifecycle.sweep_p50_ms", Unit: "ms", Better: lower},

	{Name: "sqlparse.parse_us_query", Unit: "us", Better: lower},

	{Name: "fedsql.self_ms_op", Unit: "ms", Better: lower},
	{Name: "fedsql.rows_moved_op", Unit: "count", Better: lower},
	{Name: "fedsql.batches_op", Unit: "count", Better: lower},
	{Name: "fedsql.peak_engine_kb", Unit: "KB", Better: lower},
	{Name: "fedsql.pushdown_fallbacks", Unit: "count", Better: lower},
	{Name: "connector.pinot_ms_op", Unit: "ms", Better: lower},
	{Name: "connector.hive_ms_op", Unit: "ms", Better: lower},

	{Name: "olap.execute_ms_op", Unit: "ms", Better: lower},
	{Name: "olap.rows_scanned_op", Unit: "count", Better: lower},
	{Name: "olap.scan_ns_row", Unit: "ns", Better: lower},
	{Name: "olap.segments_scanned_op", Unit: "count", Better: lower},
	{Name: "olap.segments_pruned_op", Unit: "count", Better: higher},
	{Name: "olap.servers_contacted_op", Unit: "count", Better: lower},
	{Name: "olap.groups_shipped_op", Unit: "count", Better: lower},

	{Name: "qcache.hit_ratio", Unit: "frac", Better: higher},
	{Name: "qcache.coalesced", Unit: "count", Better: higher},

	{Name: "shape.D1.p50_ms", Unit: "ms", Better: lower},
	{Name: "shape.D2.p50_ms", Unit: "ms", Better: lower},
	{Name: "shape.D3.p50_ms", Unit: "ms", Better: lower},
	{Name: "shape.D4.p50_ms", Unit: "ms", Better: lower},
	{Name: "shape.A1.p50_ms", Unit: "ms", Better: lower},
	{Name: "shape.A2.p50_ms", Unit: "ms", Better: lower},
	{Name: "shape.A3.p50_ms", Unit: "ms", Better: lower},
	{Name: "shape.A4.p50_ms", Unit: "ms", Better: lower},

	{Name: "op.tail_ms", Unit: "ms", Better: lower},
	{Name: "op.max_ms", Unit: "ms", Better: lower},

	{Name: "gc.cycles", Unit: "count", Better: lower},
	{Name: "gc.pause_total_ms", Unit: "ms", Better: lower},
	{Name: "gc.cpu_frac", Unit: "frac", Better: lower},
	{Name: "heap.drift_frac", Unit: "frac", Better: lower},
	{Name: "gen.late_p99_ms", Unit: "ms", Better: lower},
	{Name: "gen.watch_resolution_us", Unit: "us", Better: lower},
	{Name: "trace.query_path_frac", Unit: "frac", Better: higher},
	{Name: "trace.coverage_frac", Unit: "frac", Better: higher},
	{Name: "trace.overhead_frac", Unit: "frac", Better: lower},
	{Name: "trace.spans", Unit: "count", Better: lower},
}

// counters are the program-side counts read at a boundary of the traced
// slice; the per-layer metrics are differences of two of them.
type counters struct {
	sealed, expired        int64
	sealNs                 float64
	eventsIn, eventsOut    int64
	late, windowResults    int64
	cacheHits, cacheMisses float64
	coalesced              float64
	ingestErrors           float64
	genNs, polls, pollNs   int64
	ingested               int64
	// sweepMs is the list of sweep durations so far (minus keeps the new
	// ones, add appends).
	sweepMs []float64
}

func (c counters) minus(b counters) counters {
	c.sealed -= b.sealed
	c.expired -= b.expired
	c.sealNs -= b.sealNs
	c.eventsIn -= b.eventsIn
	c.eventsOut -= b.eventsOut
	c.late -= b.late
	c.windowResults -= b.windowResults
	c.cacheHits -= b.cacheHits
	c.cacheMisses -= b.cacheMisses
	c.coalesced -= b.coalesced
	c.ingestErrors -= b.ingestErrors
	c.genNs -= b.genNs
	c.polls -= b.polls
	c.pollNs -= b.pollNs
	c.ingested -= b.ingested
	c.sweepMs = c.sweepMs[len(b.sweepMs):]
	return c
}

func (c *counters) add(d counters) {
	c.sealed += d.sealed
	c.expired += d.expired
	c.sealNs += d.sealNs
	c.eventsIn += d.eventsIn
	c.eventsOut += d.eventsOut
	c.late += d.late
	c.windowResults += d.windowResults
	c.cacheHits += d.cacheHits
	c.cacheMisses += d.cacheMisses
	c.coalesced += d.coalesced
	c.ingestErrors += d.ingestErrors
	c.genNs += d.genNs
	c.polls += d.polls
	c.pollNs += d.pollNs
	c.ingested += d.ingested
	c.sweepMs = append(c.sweepMs, d.sweepMs...)
}

func tableCounters(p *pipeline) counters {
	var c counters
	c.ingested, c.sealed, _ = p.table.Stats()
	c.expired = p.life.Stats().Expired
	for _, pt := range p.table.MetricsSnapshot() {
		switch pt.Name {
		case "olap_seal_ns":
			c.sealNs = pt.SumNs
		case "qcache_hits_total":
			c.cacheHits = pt.Value
		case "qcache_misses_total":
			c.cacheMisses = pt.Value
		case "qcache_coalesced_total":
			c.coalesced = pt.Value
		case "ingest_errors_total":
			c.ingestErrors = pt.Value
		}
	}
	for _, job := range []string{jobClean, jobWindow} {
		if st, err := p.plat.Jobs.Status(job); err == nil {
			c.eventsIn += st.Metrics.EventsIn
			c.eventsOut += st.Metrics.EventsOut
		}
	}
	c.late, c.windowResults = p.lateEvents(), p.windowResults.Load()
	c.sweepMs, c.genNs = p.sweepMs[:len(p.sweepMs):len(p.sweepMs)], p.genNs
	c.polls, c.pollNs = p.w.polls.Load(), p.w.pollNs.Load()
	return c
}

// perLayer assembles the traced run's metrics: spans and wrapper counters
// from the traced slices, d the program's own counters over them, unit
// costs from the probe loops (run here, on the same data, with the pipeline
// idle), and the comparison against the plain slices.
func perLayer(rc *runCtx, tr *tracer, plain, traced *phase, d counters) map[string]float64 {
	p, log := rc.p, traced.log
	m := make(map[string]float64, len(perLayerDefs))
	for _, def := range perLayerDefs {
		m[def.Name] = 0 // a layer the workload does not touch reports 0
	}
	wallNs := float64(traced.wall)
	ops := traced.ops()
	per := func(v float64) float64 {
		if ops == 0 {
			return 0
		}
		return v / ops
	}
	p50 := func(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }
	p99 := func(v []float64) float64 { return percentile(sortedCopy(v), 0.99) }

	// record, stream, olap ingest: unit costs from probes.
	encNs, decNs, encAllocs, decAllocs := probeCodec(p)
	m["record.encode_ns_row"], m["record.decode_ns_row"] = encNs, decNs
	m["record.encode_allocs_row"], m["record.decode_allocs_row"] = encAllocs, decAllocs
	m["stream.fetch_us_call"] = probeFetch(p)
	ingestNs, ingestAllocs, sealMs := probeIngest(p)
	m["olap.ingest_ns_row"], m["olap.ingest_allocs_row"], m["olap.seal_ms_segment"] = ingestNs, ingestAllocs, sealMs
	m["sqlparse.parse_us_query"] = probeParse(p)

	batches := float64(tr.produce.batches.Load())
	if batches > 0 {
		m["stream.produce_us_batch"] = float64(tr.produce.ns.Load()) / batches / 1e3
	}
	m["stream.produce_batches"] = batches
	m["stream.mb_in"] = float64(tr.produce.bytes.Load()) / (1 << 20)

	f := &tr.flow
	m["flow.source_busy_frac"] = float64(f.sourceBusyNs.Load()) / wallNs
	if calls := f.sourceCalls.Load(); calls > 0 {
		m["flow.source_empty_poll_frac"] = float64(f.sourceEmpty.Load()) / float64(calls)
	}
	m["flow.op_busy_frac"] = float64(f.opBusyNs.Load()) / wallNs
	m["flow.sink_busy_frac"] = float64(f.sinkBusyNs.Load()) / wallNs
	m["flow.events_in"] = float64(d.eventsIn)
	m["flow.events_out"] = float64(d.eventsOut)
	m["flow.source_lag_rows_max"] = float64(p.w.sourceLagMax.Load())
	m["flow.window_results"] = float64(d.windowResults)
	p.sentMu.Lock()
	m["flow.window_emit_lag_p50_ms"] = p50(p.emitLagMs)
	p.sentMu.Unlock()
	ingested := float64(d.ingested)
	if ingested > 0 {
		m["flow.window_late_frac"] = float64(d.late) / ingested
	}

	m["hop.produce_ack_p50_ms"], m["hop.produce_ack_p99_ms"] = p50(log.hopAckMs), p99(log.hopAckMs)
	m["hop.stream_to_flow_p50_ms"], m["hop.stream_to_flow_p99_ms"] = p50(log.hopFlowMs), p99(log.hopFlowMs)
	m["hop.flow_to_olap_p50_ms"], m["hop.flow_to_olap_p99_ms"] = p50(log.hopOlapMs), p99(log.hopOlapMs)

	m["olap.segments_sealed"] = float64(d.sealed)
	m["olap.ingest_lag_rows_max"] = float64(p.w.ingestLagMax.Load())
	m["olap.ingest_errors"] = d.ingestErrors

	s := &tr.store
	m["objstore.put_count"] = float64(s.puts.Load())
	m["objstore.put_mb"] = float64(s.putBytes.Load()) / (1 << 20)
	m["objstore.put_busy_ms"] = float64(s.putNs.Load()) / 1e6
	m["objstore.get_count"] = float64(s.gets.Load())
	m["objstore.get_mb"] = float64(s.getBytes.Load()) / (1 << 20)

	m["lifecycle.segments_expired"] = float64(d.expired)
	m["lifecycle.sweep_p50_ms"] = p50(d.sweepMs)

	// Query path: spans give self time, QueryStats the counts.
	tr.mu.Lock()
	spans := tr.spans
	tr.mu.Unlock()
	self, total := selfTimes(spans), totalTimes(spans)
	m["fedsql.self_ms_op"] = per(float64(self["fedsql.query"]) / 1e6)
	var pinotNs, hiveNs float64
	for name, c := range tr.conn {
		if name == "hive" {
			hiveNs += float64(c.ns.Load())
		} else {
			pinotNs += float64(c.ns.Load())
		}
	}
	m["connector.pinot_ms_op"], m["connector.hive_ms_op"] = per(pinotNs/1e6), per(hiveNs/1e6)
	q := log.query
	m["fedsql.rows_moved_op"] = per(float64(q.RowsReturned))
	m["fedsql.batches_op"] = per(float64(q.BatchesStreamed))
	m["fedsql.peak_engine_kb"] = log.peakKB
	m["fedsql.pushdown_fallbacks"] = float64(q.PushdownFallbacks)
	m["olap.rows_scanned_op"] = per(float64(q.Exec.RowsScanned))
	m["olap.segments_scanned_op"] = per(float64(q.Exec.SegmentsScanned))
	m["olap.segments_pruned_op"] = per(float64(q.Exec.SegmentsPruned))
	m["olap.servers_contacted_op"] = per(float64(q.Exec.ServersContacted))
	m["olap.groups_shipped_op"] = per(float64(q.Exec.GroupsShipped))
	if execMs, scanned := probeExecute(rc); execMs > 0 {
		m["olap.execute_ms_op"] = execMs
		if scanned > 0 {
			m["olap.scan_ns_row"] = execMs * 1e6 / scanned
		}
	}
	if lookups := d.cacheHits + d.cacheMisses; lookups > 0 {
		m["qcache.hit_ratio"] = d.cacheHits / lookups
	}
	m["qcache.coalesced"] = d.coalesced
	for name, v := range log.shapeMs {
		m["shape."+name+".p50_ms"] = p50(v)
	}

	lat := sortedCopy(log.latMs)
	m["op.tail_ms"], m["op.max_ms"] = percentile(lat, rc.w.tailQ), percentile(lat, 1)

	// Runtime and harness.
	cpuNs := float64(traced.cpu)
	gcNs := traced.gcCPU * 1e9
	m["gc.cycles"] = float64(traced.gcs)
	m["gc.pause_total_ms"] = float64(traced.pauseNs) / 1e6
	m["gc.cpu_frac"] = gcNs / cpuNs
	m["gen.late_p99_ms"] = p99(log.lateMs)
	if d.polls > 0 {
		m["gen.watch_resolution_us"] = float64(d.pollNs) / float64(d.polls) / 1e3
	}
	m["trace.query_path_frac"] = float64(total["fedsql.query"]) / wallNs
	m["trace.spans"] = float64(len(spans))

	// Coverage: what the layers measured above account for, over the CPU
	// the process used. Producer-side generation and encoding, the produce
	// call, the flow wrappers' busy time, per-row ingest at its probed unit
	// cost, seals, deep-store puts, sweeps, the query path and the
	// collector; the rest is a layer nothing here measures.
	var sweepNs float64
	for _, v := range d.sweepMs {
		sweepNs += v * 1e6
	}
	covered := float64(d.genNs) + float64(tr.produce.ns.Load()) +
		float64(f.sourceBusyNs.Load()+f.opBusyNs.Load()+f.sinkBusyNs.Load()) +
		ingestNs*ingested + d.sealNs + float64(s.putNs.Load()) +
		sweepNs + float64(total["fedsql.query"]) + gcNs
	m["trace.coverage_frac"] = covered / cpuNs

	if plain.ops() > 0 && ops > 0 {
		m["trace.overhead_frac"] = traced.cpuMsPerOp()/plain.cpuMsPerOp() - 1
	}
	return m
}

// ---- probe loops ----

const probeRows = 20_000

// mallocs reads the process-wide allocation count; the probes run with the
// pipeline idle, so a delta is the probe's own.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// probeCodec times the record codec over generated rows.
func probeCodec(p *pipeline) (encNs, decNs, encAllocs, decAllocs float64) {
	rows := make([]record.Record, probeRows)
	for i := range rows {
		rows[i] = p.g.liveOrder(int64(i))
	}
	payloads := make([][]byte, len(rows))
	m0, start := mallocs(), time.Now()
	for i, r := range rows {
		payloads[i], _ = p.codec.Encode(r)
	}
	encNs = float64(time.Since(start)) / probeRows
	m1 := mallocs()
	start = time.Now()
	for _, b := range payloads {
		_, _ = p.codec.Decode(b)
	}
	decNs = float64(time.Since(start)) / probeRows
	m2 := mallocs()
	return encNs, decNs, float64(m1-m0) / probeRows, float64(m2-m1) / probeRows
}

// probeFetch times the fetch every consumer of the raw stream issues: up
// to 128 messages from the oldest retained offset.
func probeFetch(p *pipeline) float64 {
	tp := stream.TopicPartition{Topic: topicRaw, Partition: 0}
	low, _, err := p.cluster.Watermarks(tp)
	if err != nil {
		return 0
	}
	const calls = 2000
	start := time.Now()
	for i := 0; i < calls; i++ {
		if _, err := p.cluster.Fetch(tp, low, 128); err != nil {
			return 0
		}
	}
	return float64(time.Since(start)) / calls / 1e3
}

// probeIngest replays what the realtime ingester does per message — decode,
// then Deployment.Ingest — into a scratch table of the same configuration,
// stopping one row short of the seal threshold, then times the seal.
func probeIngest(p *pipeline) (nsRow, allocsRow, sealMs float64) {
	servers := []*olap.Server{olap.NewServer("probe-0"), olap.NewServer("probe-1")}
	d, err := olap.NewDeployment(olap.DeploymentConfig{
		Table:        p.table.Table(),
		Servers:      servers,
		SegmentStore: objstore.NewMemStore(),
		Backup:       olap.BackupP2P,
	})
	if err != nil {
		return 0, 0, 0
	}
	n := segmentRows - 1
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i], _ = p.codec.Encode(p.g.liveOrder(int64(i)))
	}
	m0, start := mallocs(), time.Now()
	for _, b := range payloads {
		r, err := p.codec.Decode(b)
		if err == nil {
			err = d.Ingest(0, r)
		}
		if err != nil {
			return 0, 0, 0
		}
	}
	nsRow = float64(time.Since(start)) / float64(n)
	allocsRow = float64(mallocs()-m0) / float64(n)
	start = time.Now()
	if err := d.Seal(0); err != nil {
		return nsRow, allocsRow, 0
	}
	sealMs = ms(time.Since(start))
	d.WaitUploads()
	return nsRow, allocsRow, sealMs
}

// probeParse is the mean parse time over the eight query shapes.
func probeParse(p *pipeline) float64 {
	var texts []string
	for _, s := range append(append([]shape(nil), dashShapes...), adhocShapes...) {
		texts = append(texts, s.sql(p, 0))
	}
	const rounds = 200
	start := time.Now()
	for i := 0; i < rounds; i++ {
		for _, t := range texts {
			if _, err := sqlparse.Parse(t); err != nil {
				return 0
			}
		}
	}
	return float64(time.Since(start)) / float64(rounds*len(texts)) / 1e3
}

// probeExecute runs the workload's Pinot-only shapes straight on a broker,
// bypassing the SQL engine, and returns the time and rows scanned per pass.
func probeExecute(rc *runCtx) (msPerOp, scannedPerOp float64) {
	var queries []*olap.Query
	for _, s := range rc.w.shapes {
		if s.olap != nil {
			queries = append(queries, s.olap(rc.p))
		}
	}
	if len(queries) == 0 {
		return 0, 0
	}
	broker := olap.NewBroker(rc.p.table)
	const rounds = 10
	var scanned int64
	start := time.Now()
	for i := 0; i < rounds; i++ {
		for _, q := range queries {
			resp, err := broker.Execute(context.Background(), &olap.QueryRequest{Query: q})
			if err != nil {
				return 0, 0
			}
			scanned += resp.Stats.RowsScanned
		}
	}
	return ms(time.Since(start)) / rounds, float64(scanned) / rounds
}
