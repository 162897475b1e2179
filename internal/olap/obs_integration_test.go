package olap

import (
	"context"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/olap/qcache"
)

// TestBrokerTraceSpanTree asserts the broker's query path records the full
// span taxonomy: a cache-miss query produces
// broker.execute → admission.queue / route / server.scan → segment.scan /
// merge / finalize, the merge span counts the merged groups, and the
// following identical query is answered from the cache with the decision
// recorded as a root attribute.
func TestBrokerTraceSpanTree(t *testing.T) {
	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ingestOrders(t, d, 220, 2)
	tracer := obs.NewTracer(obs.TracerConfig{Recent: 8})
	b := NewBrokerWithOptions(d, BrokerOptions{
		Tracer:        tracer,
		CacheMaxBytes: 1 << 20,
		Admission:     &qcache.AdmissionConfig{MaxConcurrent: 4, MaxQueue: 4},
	})
	q := &Query{GroupBy: []string{"city"}, Aggs: []AggSpec{{Kind: AggSum, Column: "amount"}, {Kind: AggCount}}}

	res, err := b.Execute(t.Context(), &QueryRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	recent := tracer.Recent()
	if len(recent) != 1 {
		t.Fatalf("recent ring holds %d traces, want 1", len(recent))
	}
	miss := recent[0]
	if miss.Name != "broker.execute" {
		t.Fatalf("root span = %q, want broker.execute", miss.Name)
	}
	root := &miss.Spans[0]
	var cacheAttr string
	for _, a := range root.Attrs {
		if a.Key == "cache" {
			cacheAttr = a.Value
		}
	}
	if cacheAttr != "miss" {
		t.Fatalf("root cache attr = %q, want miss (attrs %+v)", cacheAttr, root.Attrs)
	}
	for _, name := range []string{"admission.queue", "route", "server.scan", "segment.scan", "merge", "finalize"} {
		if miss.Find(name) == nil {
			t.Errorf("trace missing span %q:\n%s", name, miss.Render())
		}
	}
	// The merge span counts the groups the fold round merged.
	if m := miss.Find("merge"); m != nil && m.Rows != int64(res.Batch.Len) {
		t.Errorf("merge span rows = %d, want the %d groups", m.Rows, res.Batch.Len)
	}
	// segment.scan must nest under server.scan, and server.scan must carry
	// the server name and the scanned rows.
	seg := miss.Find("segment.scan")
	if seg == nil || miss.Spans[seg.Parent].Name != "server.scan" {
		t.Fatalf("segment.scan not nested under server.scan:\n%s", miss.Render())
	}
	srv := miss.Slowest("server.scan")
	if srv.Rows <= 0 {
		t.Errorf("server.scan rows = %d, want > 0", srv.Rows)
	}
	var serverAttr string
	for _, a := range srv.Attrs {
		if a.Key == "server" {
			serverAttr = a.Value
		}
	}
	if serverAttr == "" {
		t.Errorf("server.scan has no server attr: %+v", srv.Attrs)
	}

	// Second identical query: a cache hit, recorded as a root attribute with
	// no scatter spans.
	if _, err := b.Execute(t.Context(), &QueryRequest{Query: q}); err != nil {
		t.Fatal(err)
	}
	recent = tracer.Recent()
	hit := recent[len(recent)-1]
	cacheAttr = ""
	for _, a := range hit.Spans[0].Attrs {
		if a.Key == "cache" {
			cacheAttr = a.Value
		}
	}
	if cacheAttr != "hit" {
		t.Fatalf("hit trace root cache attr = %q, want hit:\n%s", cacheAttr, hit.Render())
	}
	if hit.Find("server.scan") != nil {
		t.Fatalf("cache hit should not scatter:\n%s", hit.Render())
	}
}

// TestStreamTraceSpans asserts a stream is the same scatter as a fold: a
// route span, which names the batch sink, beside the producers' server.scan
// spans.
func TestStreamTraceSpans(t *testing.T) {
	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ingestOrders(t, d, 220, 2)
	tracer := obs.NewTracer(obs.TracerConfig{Recent: 2})
	root := tracer.StartTrace("test")
	ctx := obs.ContextWithSpan(t.Context(), root)
	qs, err := NewBroker(d).ExecuteStream(ctx, &QueryRequest{Query: &Query{Select: []string{"city"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()
	for {
		if _, err := qs.Next(ctx); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	qs.Close()
	sum := tracer.FinishTraceSummary(root)
	for _, name := range []string{"route", "server.scan", "segment.scan"} {
		if sum.Find(name) == nil {
			t.Errorf("trace missing span %q:\n%s", name, sum.Render())
		}
	}
	if out := sum.Render(); !strings.Contains(out, "route router=round-robin sink=batch") {
		t.Errorf("route span does not name the batch sink:\n%s", out)
	}
}

// TestDeploymentMetricsSnapshot asserts the deployment registry carries the
// per-layer metrics after traffic: ingest counter, seal histogram, per-server
// scan histograms and the broker cache gauges, whole-result and per-segment.
func TestDeploymentMetricsSnapshot(t *testing.T) {
	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ingestOrders(t, d, 220, 2)
	b := NewBrokerWithOptions(d, BrokerOptions{CacheMaxBytes: 1 << 20})
	q := &Query{Aggs: []AggSpec{{Kind: AggCount}}}
	for i := 0; i < 3; i++ {
		if _, err := b.Execute(context.Background(), &QueryRequest{Query: q}); err != nil {
			t.Fatal(err)
		}
	}
	byName := map[string]obs.MetricPoint{}
	for _, p := range d.MetricsSnapshot() {
		byName[p.Name] = p
	}
	if got := byName["olap_ingest_rows_total"].Value; got != 220 {
		t.Errorf("olap_ingest_rows_total = %v, want 220", got)
	}
	if got := byName["olap_seal_ns"].Count; got != 4 {
		t.Errorf("olap_seal_ns count = %v, want 4", got)
	}
	if p, ok := byName["olap_segment_scan_ns"]; !ok || p.Count <= 0 {
		t.Errorf("olap_segment_scan_ns missing or empty: %+v", p)
	}
	if got := byName["qcache_hits_total"].Value; got != 2 {
		t.Errorf("qcache_hits_total = %v, want 2", got)
	}
	if got := byName["olap_table_generation"].Value; got <= 0 {
		t.Errorf("olap_table_generation = %v, want > 0", got)
	}
	// One more row misses the whole-result entry; the four sealed
	// segments' partials answer, and only they count as segment hits.
	if err := d.Ingest(0, orderRows(221)[220]); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Execute(context.Background(), &QueryRequest{Query: q}); err != nil {
		t.Fatal(err)
	}
	byName = map[string]obs.MetricPoint{}
	for _, p := range d.MetricsSnapshot() {
		byName[p.Name] = p
	}
	for name, want := range map[string]float64{"qcache_hits_total": 2, "qcache_segment_misses_total": 4, "qcache_segment_hits_total": 4} {
		if got := byName[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestScanDelayIsolatedBySlowLog asserts the E22 mechanism: an induced
// per-scan delay on one server makes the slow-query log's worst segment.scan
// attribute the latency to that server.
func TestScanDelayIsolatedBySlowLog(t *testing.T) {
	d, servers := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ingestOrders(t, d, 220, 2)
	tracer := obs.NewTracer(obs.TracerConfig{SlowThreshold: 20 * time.Millisecond})
	b := NewBrokerWithOptions(d, BrokerOptions{Tracer: tracer})
	q := &Query{Aggs: []AggSpec{{Kind: AggCount}}}
	if _, err := b.Execute(context.Background(), &QueryRequest{Query: q}); err != nil {
		t.Fatal(err)
	}
	if n := tracer.SlowCount(); n != 0 {
		t.Fatalf("undelayed query counted slow (%d)", n)
	}
	servers[1].SetScanDelay(30 * time.Millisecond)
	defer servers[1].SetScanDelay(0)
	if _, err := b.Execute(context.Background(), &QueryRequest{Query: q}); err != nil {
		t.Fatal(err)
	}
	slow := tracer.Slow()
	if len(slow) != 1 {
		t.Fatalf("slow log holds %d traces, want 1", len(slow))
	}
	seg := slow[0].Slowest("segment.scan")
	if seg == nil {
		t.Fatalf("slow trace has no segment.scan:\n%s", slow[0].Render())
	}
	srv := slow[0].Spans[seg.Parent]
	var name string
	for _, a := range srv.Attrs {
		if a.Key == "server" {
			name = a.Value
		}
	}
	if name != servers[1].Name() {
		t.Fatalf("slow log blamed %q, want %q:\n%s", name, servers[1].Name(), slow[0].Render())
	}
	if seg.Duration < 30*time.Millisecond {
		t.Fatalf("slowest segment.scan %v does not cover the induced 30ms delay", seg.Duration)
	}
}

// TestConsumingScanSpanAttrs: a consuming scan's span says what went in
// and what came out — rows_in (examined), rows (matched), the partition and
// the access path — into either sink, and EXPLAIN ANALYZE (the rendered
// trace) prints all of it.
func TestConsumingScanSpanAttrs(t *testing.T) {
	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ingestOrders(t, d, 40, 1) // one partition, under the seal threshold
	tracer := obs.NewTracer(obs.TracerConfig{Recent: 8})
	b := NewBrokerWithOptions(d, BrokerOptions{Tracer: tracer})
	filters := []Filter{{Column: "city", Op: OpEq, Value: "sf"}}
	if _, err := b.Execute(t.Context(), &QueryRequest{Query: &Query{Aggs: []AggSpec{{Kind: AggCount}}, Filters: filters}}); err != nil {
		t.Fatal(err)
	}
	root, sctx := tracer.StartTrace("stream"), t.Context()
	qs, err := b.ExecuteStream(obs.ContextWithSpan(sctx, root), &QueryRequest{Query: &Query{Select: []string{"order_id"}, Filters: filters}})
	if err != nil {
		t.Fatal(err)
	}
	drainStream(t, qs)
	qs.Close()
	tracer.FinishTrace(root)
	traces := tracer.Recent()
	if len(traces) != 2 {
		t.Fatalf("recent ring holds %d traces, want 2", len(traces))
	}
	const name = "consuming.scan"
	for i := range traces { // the fold's, then the stream's
		sp := traces[i].Find(name)
		if sp == nil {
			t.Fatalf("trace has no %s span:\n%s", name, traces[i].Render())
		}
		attrs := map[string]string{}
		for _, a := range sp.Attrs {
			attrs[a.Key] = a.Value
		}
		if attrs["partition"] != "0" || attrs["rows_in"] != "40" || attrs["access"] != "kernel" || sp.Rows != 10 {
			t.Errorf("%s: attrs %v rows %d, want partition=0 rows_in=40 access=kernel rows=10", name, attrs, sp.Rows)
		}
		if out := traces[i].Render(); !strings.Contains(out, name+" partition=0 rows_in=40 access=kernel") || !strings.Contains(out, "rows=10") {
			t.Errorf("rendered trace does not print the %s attributes:\n%s", name, out)
		}
	}
}
