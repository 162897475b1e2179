package obs

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("reqs_total"); again != c {
		t.Fatal("Counter did not return the same handle for the same name")
	}
	g := r.Gauge("queue_len")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	if again := r.Gauge("queue_len"); again != g {
		t.Fatal("Gauge did not return the same handle for the same name")
	}
}

func TestNilHandlesAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Tracer
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(time.Millisecond)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil metric handles should read zero")
	}
	sp := tr.StartTrace("x")
	if sp.Active() {
		t.Fatal("nil tracer should return inert span")
	}
	sp.Child("c").End()
	sp.SetRows(1)
	sp.SetBytes(1)
	sp.AddRows(1)
	sp.SetAttr("k", "v")
	tr.FinishTrace(sp)
	if tr.FinishTraceSummary(sp) != nil {
		t.Fatal("nil tracer FinishTraceSummary should return nil")
	}
	if tr.Recent() != nil || tr.Slow() != nil || tr.SlowCount() != 0 {
		t.Fatal("nil tracer rings should be empty")
	}
}

func TestLabeledFamilies(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("scans", Label{"server", "s0"}, Label{"table", "orders"})
	// Same labels, different order: must be the same member.
	b := r.Counter("scans", Label{"table", "orders"}, Label{"server", "s0"})
	if a != b {
		t.Fatal("label order changed family-member identity")
	}
	other := r.Counter("scans", Label{"server", "s1"}, Label{"table", "orders"})
	if other == a {
		t.Fatal("different label values collapsed to one member")
	}
	a.Add(2)
	other.Inc()
	pts := r.Snapshot()
	if len(pts) != 2 {
		t.Fatalf("snapshot has %d points, want 2", len(pts))
	}
	// Sorted by name then labels: s0 before s1.
	if pts[0].Value != 2 || pts[1].Value != 1 {
		t.Fatalf("snapshot values = %v, %v; want 2, 1", pts[0].Value, pts[1].Value)
	}
	if pts[0].Labels[0].Key != "server" || pts[0].Labels[0].Value != "s0" {
		t.Fatalf("labels not sorted/preserved: %+v", pts[0].Labels)
	}
}

func TestHistogramQuantileWithinBucketWidth(t *testing.T) {
	h := &Histogram{}
	// Spread of realistic latencies.
	values := []int64{900, 1100, 1500, 3000, 4500, 9000, 15000, 40000, 100000, 1000000}
	for _, v := range values {
		h.Observe(time.Duration(v))
	}
	if h.Count() != int64(len(values)) {
		t.Fatalf("count = %d, want %d", h.Count(), len(values))
	}
	var want int64
	for _, v := range values {
		want += v
	}
	if h.Sum() != time.Duration(want) {
		t.Fatalf("sum = %d, want %d", h.Sum(), want)
	}
	// Quantile accuracy: the estimate must land within the base-2 bucket
	// containing the true quantile (within one bucket width).
	for _, tc := range []struct {
		q    float64
		true int64
	}{{0.5, 4500}, {0.9, 100000}, {1.0, 1000000}} {
		got := h.Quantile(tc.q)
		i := bucketIndex(tc.true)
		lo, hi := bucketLower(i), bucketUpper(i)
		if got < lo || got > hi {
			t.Errorf("Quantile(%v) = %v, outside bucket [%v, %v] of true value %d", tc.q, got, lo, hi, tc.true)
		}
	}
	if h.Quantile(0.5) <= 0 {
		t.Fatal("median should be positive")
	}
	empty := &Histogram{}
	if empty.Quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
}

func TestHistogramSingleValueQuantiles(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 100; i++ {
		h.Observe(5 * time.Microsecond) // 5000ns, bucket [4096, 8191]
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		got := h.Quantile(q)
		if got < 4096 || got > 8191 {
			t.Errorf("Quantile(%v) = %v, want within [4096, 8191]", q, got)
		}
	}
}

func TestConcurrentRegistryRace(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("hits")
			g := r.Gauge("depth", Label{"w", fmt.Sprint(w % 2)})
			h := r.Histogram("lat_ns")
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(time.Duration(i) * time.Nanosecond)
				if i%500 == 0 {
					_ = r.Snapshot()
					_ = h.Quantile(0.99)
				}
			}
		}(w)
	}
	// Concurrent gauge-func churn and prom writes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			r.SetGaugeFunc("derived", func() float64 { return float64(i) })
			var sb strings.Builder
			if err := r.WriteProm(&sb); err != nil {
				t.Errorf("WriteProm: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if got := r.Counter("hits").Value(); got != workers*iters {
		t.Fatalf("hits = %d, want %d", got, workers*iters)
	}
	if got := r.Histogram("lat_ns").Count(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
}

func TestSetGaugeFuncReplaces(t *testing.T) {
	r := NewRegistry()
	r.SetGaugeFunc("cache_bytes", func() float64 { return 1 })
	r.SetGaugeFunc("cache_bytes", func() float64 { return 2 })
	pts := r.Snapshot()
	if len(pts) != 1 || pts[0].Value != 2 {
		t.Fatalf("snapshot = %+v, want single point with value 2", pts)
	}
}

func TestWriteProm(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total", Label{"tenant", "a"}).Add(3)
	r.Gauge("up").Set(1)
	r.SetGaugeFunc("derived", func() float64 { return 2.5 })
	h := r.Histogram("lat_ns")
	h.Observe(1000 * time.Nanosecond)
	h.Observe(5000 * time.Nanosecond)
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"reqs_total{tenant=\"a\"} 3\n",
		"up 1\n",
		"derived 2.5\n",
		"lat_ns_bucket{le=\"+Inf\"} 2\n",
		"lat_ns_sum 6000\n",
		"lat_ns_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
	// Bucket series must be cumulative: the 1000ns bucket holds 1, the
	// 5000ns bucket accumulates to 2.
	if !strings.Contains(out, fmt.Sprintf("lat_ns_bucket{le=\"%.0f\"} 1\n", bucketUpper(bucketIndex(1000)))) {
		t.Errorf("prom output missing first cumulative bucket:\n%s", out)
	}
	if !strings.Contains(out, fmt.Sprintf("lat_ns_bucket{le=\"%.0f\"} 2\n", bucketUpper(bucketIndex(5000)))) {
		t.Errorf("prom output missing second cumulative bucket:\n%s", out)
	}
}

func TestSnapshotHistogramPoint(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("seal_ns")
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	pts := r.Snapshot()
	if len(pts) != 1 {
		t.Fatalf("snapshot has %d points, want 1", len(pts))
	}
	p := pts[0]
	if p.Kind != "histogram" || p.Count != 10 || p.SumNs != 10*float64(time.Millisecond) {
		t.Fatalf("histogram point = %+v", p)
	}
	if p.P50 <= 0 || p.P99 < p.P50 || p.P999 < p.P99 {
		t.Fatalf("quantiles not monotone: p50=%v p99=%v p999=%v", p.P50, p.P99, p.P999)
	}
	if math.Abs(p.P50-float64(time.Millisecond.Nanoseconds())) > float64(time.Millisecond.Nanoseconds()) {
		t.Fatalf("p50 %v not within one bucket width of 1ms", p.P50)
	}
}

func TestTraceSpanTree(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	root := tr.StartTrace("broker.execute")
	if !root.Active() {
		t.Fatal("root should be active")
	}
	root.SetAttr("cache", "miss")
	route := root.Child("route")
	route.End()
	scan := root.Child("server.scan")
	scan.SetAttr("server", "s0")
	seg := scan.Child("segment.scan")
	seg.SetRows(100)
	seg.AddRows(50)
	seg.SetBytes(4096)
	seg.End()
	scan.SetRows(150)
	scan.End()
	root.SetRows(3)
	sum := tr.FinishTraceSummary(root)
	if sum == nil {
		t.Fatal("FinishTraceSummary returned nil")
	}
	if sum.Name != "broker.execute" || len(sum.Spans) != 4 {
		t.Fatalf("summary = %q with %d spans, want broker.execute with 4", sum.Name, len(sum.Spans))
	}
	if sum.Spans[0].Parent != -1 || sum.Spans[0].Rows != 3 {
		t.Fatalf("root span = %+v", sum.Spans[0])
	}
	segSum := sum.Find("segment.scan")
	if segSum == nil || segSum.Rows != 150 || segSum.Bytes != 4096 {
		t.Fatalf("segment.scan = %+v", segSum)
	}
	if sum.Spans[segSum.Parent].Name != "server.scan" {
		t.Fatalf("segment.scan parent = %q, want server.scan", sum.Spans[segSum.Parent].Name)
	}
	if got := sum.Slowest("server.scan"); got == nil || got.Attrs[0] != (Attr{"server", "s0"}) {
		t.Fatalf("Slowest(server.scan) = %+v", got)
	}
	rendered := sum.Render()
	for _, want := range []string{"broker.execute cache=miss", "  route", "  server.scan server=s0", "    segment.scan", "rows=150", "bytes=4096"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered tree missing %q:\n%s", want, rendered)
		}
	}
	// The recent ring materializes an equivalent summary on read.
	recent := tr.Recent()
	if len(recent) != 1 || recent[0].Name != sum.Name || len(recent[0].Spans) != len(sum.Spans) {
		t.Fatalf("recent ring = %v, want the one trace", recent)
	}
	if recent[0].Find("segment.scan").Rows != 150 {
		t.Fatalf("ring summary lost span data: %+v", recent[0])
	}
}

func TestTraceAttrOverwriteAndOverflow(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	root := tr.StartTrace("q")
	root.SetAttr("cache", "miss")
	root.SetAttr("cache", "hit") // overwrite
	root.SetAttr("a", "1")
	root.SetAttr("b", "2")
	root.SetAttr("c", "3")
	root.SetAttr("overflow", "dropped") // past inline capacity
	sum := tr.FinishTraceSummary(root)
	if len(sum.Spans[0].Attrs) != maxSpanAttrs {
		t.Fatalf("attrs = %+v, want %d", sum.Spans[0].Attrs, maxSpanAttrs)
	}
	if sum.Spans[0].Attrs[0] != (Attr{"cache", "hit"}) {
		t.Fatalf("attr not overwritten: %+v", sum.Spans[0].Attrs[0])
	}
}

func TestStaleSpanHandleIsNoOp(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	root := tr.StartTrace("q1")
	late := root.Child("server.scan")
	sum1 := tr.FinishTraceSummary(root)
	if sum1 == nil {
		t.Fatal("first finish failed")
	}
	// The trace is recycled; a second query may now be using it.
	root2 := tr.StartTrace("q2")
	// Late goroutine touches its stale handle: all must be silent no-ops.
	late.SetRows(999)
	late.SetAttr("server", "ghost")
	late.End()
	if late.Child("x").Active() {
		t.Fatal("stale handle spawned a live child")
	}
	if tr.FinishTraceSummary(late) != nil {
		t.Fatal("stale FinishTraceSummary should return nil")
	}
	sum2 := tr.FinishTraceSummary(root2)
	if sum2 == nil || len(sum2.Spans) != 1 || sum2.Spans[0].Rows != 0 {
		t.Fatalf("second trace polluted by stale handle: %+v", sum2)
	}
	if sum1.Spans[1].Rows != 0 {
		t.Fatalf("finished summary mutated after the fact: %+v", sum1.Spans[1])
	}
}

func TestTraceArenaBounded(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	root := tr.StartTrace("q")
	live := 0
	for i := 0; i < maxSpansPerTrace+50; i++ {
		if root.Child("segment.scan").Active() {
			live++
		}
	}
	sum := tr.FinishTraceSummary(root)
	if len(sum.Spans) != maxSpansPerTrace {
		t.Fatalf("arena grew to %d spans, want cap %d", len(sum.Spans), maxSpansPerTrace)
	}
	if live != maxSpansPerTrace-1 {
		t.Fatalf("live children = %d, want %d", live, maxSpansPerTrace-1)
	}
	if sum.Spans[0].Dropped != 51 {
		t.Fatalf("root dropped = %d, want 51", sum.Spans[0].Dropped)
	}
	if !strings.Contains(sum.Render(), "dropped=51") {
		t.Fatal("render should surface dropped count")
	}
}

func TestSlowQueryLog(t *testing.T) {
	hist := &Histogram{}
	tr := NewTracer(TracerConfig{Recent: 4, Slow: 2, SlowThreshold: 5 * time.Millisecond, Hist: hist})
	fast := tr.StartTrace("fast")
	tr.FinishTrace(fast)
	for i := 0; i < 3; i++ {
		slow := tr.StartTrace(fmt.Sprintf("slow%d", i))
		time.Sleep(6 * time.Millisecond)
		tr.FinishTrace(slow)
	}
	if got := tr.SlowCount(); got != 3 {
		t.Fatalf("SlowCount = %d, want 3", got)
	}
	slowLog := tr.Slow()
	if len(slowLog) != 2 { // ring capacity 2: oldest evicted
		t.Fatalf("slow ring holds %d, want 2", len(slowLog))
	}
	if slowLog[0].Name != "slow1" || slowLog[1].Name != "slow2" {
		t.Fatalf("slow ring order = %q, %q; want slow1, slow2", slowLog[0].Name, slowLog[1].Name)
	}
	if hist.Count() != 4 {
		t.Fatalf("tracer histogram observed %d, want 4", hist.Count())
	}
	if got := len(tr.Recent()); got != 4 {
		t.Fatalf("recent ring holds %d, want 4", got)
	}
}

func TestRecentRingEviction(t *testing.T) {
	tr := NewTracer(TracerConfig{Recent: 3})
	for i := 0; i < 5; i++ {
		tr.FinishTrace(tr.StartTrace(fmt.Sprintf("q%d", i)))
	}
	recent := tr.Recent()
	if len(recent) != 3 {
		t.Fatalf("recent holds %d, want 3", len(recent))
	}
	for i, want := range []string{"q2", "q3", "q4"} {
		if recent[i].Name != want {
			t.Fatalf("recent[%d] = %q, want %q", i, recent[i].Name, want)
		}
	}
}

func TestConcurrentTracesRace(t *testing.T) {
	tr := NewTracer(TracerConfig{Recent: 16, Slow: 8, SlowThreshold: time.Nanosecond})
	const workers = 8
	const queries = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < queries; i++ {
				root := tr.StartTrace("q")
				ctx := ContextWithSpan(context.Background(), root)
				var inner sync.WaitGroup
				for s := 0; s < 3; s++ {
					inner.Add(1)
					go func(s int) {
						defer inner.Done()
						sp, _ := StartSpan(ctx, "server.scan")
						sp.SetAttr("server", fmt.Sprint(s))
						sp.SetRows(int64(s))
						sp.End()
					}(s)
				}
				inner.Wait()
				if sum := tr.FinishTraceSummary(root); sum == nil {
					t.Error("FinishTraceSummary returned nil for live root")
					return
				}
				if i%50 == 0 {
					_ = tr.Recent()
					_ = tr.Slow()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := tr.SlowCount(); got != workers*queries {
		t.Fatalf("SlowCount = %d, want %d", got, workers*queries)
	}
	for _, sum := range tr.Recent() {
		if len(sum.Spans) != 4 {
			t.Fatalf("trace has %d spans, want 4 (root + 3 scans)", len(sum.Spans))
		}
	}
}

func TestStartSpanWithoutTraceIsNoOp(t *testing.T) {
	ctx := context.Background()
	sp, ctx2 := StartSpan(ctx, "anything")
	if sp.Active() {
		t.Fatal("span should be inert without a trace in ctx")
	}
	if ctx2 != ctx {
		t.Fatal("ctx should be returned unchanged on the disabled path")
	}
	if SpanFromContext(ctx).Active() {
		t.Fatal("empty ctx should yield inert span")
	}
}
