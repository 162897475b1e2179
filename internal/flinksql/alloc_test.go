package flinksql

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/metadata"
	"repro/internal/record"
	"repro/internal/sqlparse"
	"repro/internal/stream"
)

// The freshness path's two SQL jobs, as the pipeline benchmark deploys them:
// the clean job filters and projects raw orders onto a topic, the window job
// counts them per city and window.
const (
	cleanPlanSQL  = "SELECT order_id, restaurant_id, city, status, amount, ts FROM orders WHERE status != 'cancelled'"
	windowPlanSQL = "SELECT city, COUNT(*) AS n FROM orders GROUP BY city, TUMBLE(ts, 60000)"
	planFetch     = 128
)

func ordersSchema(name string) *metadata.Schema {
	return &metadata.Schema{
		Name:    name,
		Version: 1,
		Fields: []metadata.Field{
			{Name: "order_id", Type: metadata.TypeString},
			{Name: "restaurant_id", Type: metadata.TypeLong, Dimension: true},
			{Name: "city", Type: metadata.TypeString, Dimension: true},
			{Name: "status", Type: metadata.TypeString, Dimension: true},
			{Name: "amount", Type: metadata.TypeDouble},
			{Name: "ts", Type: metadata.TypeTimestamp},
		},
		TimeField: "ts",
	}
}

// planRig drives a compiled plan's stages by hand, one 128-message fetch of
// a one-partition topic per step: what a job's goroutines do, without the
// channels between them.
type planRig struct {
	tb    testing.TB
	codec *record.Codec
	prod  *stream.Producer
	src   *flow.StreamSource
	ops   [][]flow.Operator    // per stage instance, its chain of stages
	emits [][]func(flow.Event) // emits[c][i] feeds ops[c][i]; the last collects
	out   []flow.Event
	sink  flow.Sink // nil: the output is dropped
	rows  int       // produced so far
	msgs  []stream.Message
}

// newPlanRig compiles sql and builds instances parallel chains of its
// stages; a fetch's rows are dealt to the chains in turn.
func newPlanRig(tb testing.TB, sql string, withSink bool, instances int) *planRig {
	tb.Helper()
	cluster, err := stream.NewCluster(stream.ClusterConfig{Name: "c", Nodes: 1, ReplicationInterval: time.Millisecond})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(cluster.Close)
	topic := stream.TopicConfig{Partitions: 1, RetentionBytes: 4 << 20}
	for _, name := range []string{"orders", "orders_clean"} {
		if err := cluster.CreateTopic(name, topic); err != nil {
			tb.Fatal(err)
		}
	}
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := Compile(stmt, 1)
	if err != nil {
		tb.Fatal(err)
	}
	r := &planRig{tb: tb, prod: stream.NewProducer(cluster, "svc", "", nil)}
	if r.codec, err = record.NewCodec(ordersSchema("orders")); err != nil {
		tb.Fatal(err)
	}
	if r.src, err = flow.NewStreamSource(cluster, "orders", r.codec, flow.StreamSourceConfig{TimeField: plan.TimeColumn, Batch: planFetch}); err != nil {
		tb.Fatal(err)
	}
	if withSink {
		cleanCodec, err := record.NewCodec(ordersSchema("orders_clean"))
		if err != nil {
			tb.Fatal(err)
		}
		r.sink = flow.NewTopicSink(cluster, "orders_clean", cleanCodec)
	}
	for c := 0; c < instances; c++ {
		ops := make([]flow.Operator, len(plan.Stages))
		for i, st := range plan.Stages {
			ops[i] = st.New()
		}
		emits := make([]func(flow.Event), len(ops)+1)
		emits[len(ops)] = func(e flow.Event) { r.out = append(r.out, e) }
		for i := len(ops) - 1; i >= 0; i-- {
			op, next := ops[i], emits[i+1]
			emits[i] = func(e flow.Event) {
				if err := op.ProcessElement(e, next); err != nil {
					tb.Fatal(err)
				}
			}
		}
		r.ops, r.emits = append(r.ops, ops), append(r.emits, emits)
	}
	return r
}

var planCities = []string{"sf", "nyc", "la", "sea", "chi", "bos", "atx", "den"}

// produce appends n more orders, one millisecond apart, one in five
// cancelled.
func (r *planRig) produce(n int) {
	for end := r.rows + n; r.rows < end; {
		r.msgs = r.msgs[:0]
		for j := 0; j < planFetch && r.rows < end; j++ {
			i := r.rows
			payload, err := r.codec.Encode(record.Record{
				"order_id":      fmt.Sprintf("o%07d", i),
				"restaurant_id": int64(i % 500),
				"city":          planCities[i%len(planCities)],
				"status":        []string{"placed", "accepted", "cooking", "delivered", "cancelled"}[i%5],
				"amount":        float64(i%100) / 4,
				"ts":            base + int64(i),
			})
			if err != nil {
				r.tb.Fatal(err)
			}
			r.msgs = append(r.msgs, stream.Message{Value: payload})
			r.rows++
		}
		if err := r.prod.ProduceBatch("orders", r.msgs); err != nil {
			r.tb.Fatal(err)
		}
	}
}

// step drives one fetch through the stages and the sink, then the source's
// watermark, and returns the rows fetched.
func (r *planRig) step() int {
	events, _, err := r.src.Next(0)
	if err != nil {
		r.tb.Fatal(err)
	}
	for i, e := range events {
		r.emits[i%len(r.emits)][0](e)
	}
	wm := r.src.Watermark()
	for c, ops := range r.ops {
		for i, op := range ops {
			if err := op.OnWatermark(wm, r.emits[c][i+1]); err != nil {
				r.tb.Fatal(err)
			}
		}
	}
	if r.sink != nil && len(r.out) > 0 {
		if err := r.sink.Write(r.out); err != nil {
			r.tb.Fatal(err)
		}
	}
	clear(r.out)
	r.out = r.out[:0]
	return len(events)
}

// perRowAllocs measures a plan's steady state: allocations per fetched row.
func perRowAllocs(t *testing.T, sql string, withSink bool, instances int) float64 {
	const runs = 50
	r := newPlanRig(t, sql, withSink, instances)
	r.produce(planFetch * (runs + 2))
	r.step() // first sight of the schema and the window
	perFetch := testing.AllocsPerRun(runs, func() {
		if n := r.step(); n != planFetch {
			t.Fatalf("fetched %d rows, want %d", n, planFetch)
		}
	})
	return perFetch / planFetch
}

// The clean job's path — source, WHERE, projection, topic sink — allocates
// nothing per row: one cell block per fetch, one chunk of output cells per
// 128 rows, the producer's per-batch bookkeeping. A map or a boxed value
// per row shows as 10 or more.
func TestCleanPlanAllocations(t *testing.T) {
	if perRow := perRowAllocs(t, cleanPlanSQL, true, 1); perRow > 0.1 {
		t.Errorf("clean plan allocates %.3f times per row, want at most 0.1", perRow)
	}
}

// Two projection instances feeding one topic sink share one output schema,
// so the sink binds it once: were each instance to build its own, the sink
// would rebind — and allocate — whenever the rows' instance changed.
func TestCleanPlanAllocationsTwoInstances(t *testing.T) {
	if perRow := perRowAllocs(t, cleanPlanSQL, true, 2); perRow > 0.1 {
		t.Errorf("clean plan on two instances allocates %.3f times per row, want at most 0.1", perRow)
	}
}

// The window job's path — source, GROUP BY key, window — allocates nothing
// per row either: the key is interned, the window's state is per (key,
// window).
func TestWindowPlanAllocations(t *testing.T) {
	if perRow := perRowAllocs(t, windowPlanSQL, false, 1); perRow > 0.1 {
		t.Errorf("window plan allocates %.3f times per row, want at most 0.1", perRow)
	}
}

// benchmarkPlan reports ns and allocations per row of a plan's steady state;
// the source is refilled, untimed, whenever it runs dry.
func benchmarkPlan(b *testing.B, sql string, withSink bool) {
	r := newPlanRig(b, sql, withSink, 1)
	r.produce(planFetch * 64)
	r.step()
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := r.step()
		if n == 0 {
			b.StopTimer()
			r.produce(planFetch * 64)
			b.StartTimer()
		}
		rows += n
	}
	b.StopTimer()
	if rows > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
	}
}

// BenchmarkCleanPlan drives the clean job's stages: source → WHERE →
// projection → topic sink, 128-message fetches.
func BenchmarkCleanPlan(b *testing.B) { benchmarkPlan(b, cleanPlanSQL, true) }

// BenchmarkWindowPlan drives the window job's stages: source → GROUP BY key
// → window, whose rows are the output, 128-message fetches.
func BenchmarkWindowPlan(b *testing.B) { benchmarkPlan(b, windowPlanSQL, false) }
