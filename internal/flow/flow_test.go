package flow

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/record"
)

// rows generates n rows with city dimension, value v=i, spaced 1s apart
// starting at base.
func rows(n int, base int64) []record.Row {
	cities := []string{"sf", "nyc", "la"}
	out := make([]record.Record, n)
	for i := range out {
		out[i] = record.Record{
			"city": cities[i%len(cities)],
			"v":    float64(i),
			"ts":   base + int64(i)*1000,
		}
	}
	return toRows(out)
}

// toRows binds records to rows as a user function's output is bound.
func toRows(recs []record.Record) []record.Row {
	rows, err := record.BindRows(nil, recs)
	if err != nil {
		panic(err)
	}
	return rows
}

// rowOf is one record bound to a row.
func rowOf(r record.Record) record.Row { return toRows([]record.Record{r})[0] }

const base = int64(1700000000000)

func runToCompletion(t *testing.T, spec JobSpec) *CollectSink {
	t.Helper()
	sink := NewCollectSink()
	spec.Sink = SinkSpec{Sink: sink}
	job, err := NewJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Run(); err != nil {
		t.Fatal(err)
	}
	return sink
}

func TestMapFilterPipeline(t *testing.T) {
	spec := JobSpec{
		Name:    "mapfilter",
		Sources: []SourceSpec{{Source: NewBoundedSource(rows(100, base), "ts", 16)}},
		Stages: []StageSpec{
			{Name: "filter", New: func() Operator {
				return &FilterOp{Pred: func(e Event) bool { return int64(e.Data.Double("v"))%2 == 0 }}
			}},
			{Name: "double", New: func() Operator {
				return &MapOp{Fn: func(e Event) (Event, error) {
					e.Data = e.Data.Clone()
					e.Data["v"] = e.Data.Double("v") * 2
					return e, nil
				}}
			}},
		},
	}
	sink := runToCompletion(t, spec)
	got := sink.Records()
	if len(got) != 50 {
		t.Fatalf("got %d records, want 50", len(got))
	}
	for _, r := range got {
		if int64(r.Double("v"))%4 != 0 {
			t.Fatalf("bad value %v: filter(even) then double should give multiples of 4", r["v"])
		}
	}
}

func TestFlatMap(t *testing.T) {
	spec := JobSpec{
		Name:    "flatmap",
		Sources: []SourceSpec{{Source: NewBoundedSource(rows(10, base), "ts", 4)}},
		Stages: []StageSpec{
			{Name: "dup", New: func() Operator {
				return &FlatMapOp{Fn: func(e Event, emit func(Event)) error {
					emit(e)
					emit(e)
					return nil
				}}
			}},
		},
	}
	sink := runToCompletion(t, spec)
	if sink.Len() != 20 {
		t.Fatalf("flatmap emitted %d, want 20", sink.Len())
	}
}

func TestTumblingWindowAggregation(t *testing.T) {
	// 90 events, 1s apart, 3 cities round-robin; 60s tumbling windows.
	spec := JobSpec{
		Name:    "windows",
		Sources: []SourceSpec{{Source: NewBoundedSource(rows(90, base), "ts", 8)}},
		Stages: []StageSpec{
			{
				Name: "agg", KeyBy: "city", Parallelism: 3,
				New: func() Operator {
					return NewWindowAggOp(60_000, 0, "city",
						Aggregation{Kind: record.AggCount},
						Aggregation{Kind: record.AggSum, Field: "v"},
					)
				},
			},
		},
	}
	sink := runToCompletion(t, spec)
	got := sink.Records()
	// 90 seconds of data spans 2 windows (aligned to 60s); base is not
	// necessarily window-aligned so allow 2-3 windows per city.
	perCity := map[string]int64{}
	var totalCount int64
	for _, r := range got {
		perCity[r.String("city")]++
		totalCount += r.Long("count")
		if r.Long("window_end")-r.Long("window_start") != 60_000 {
			t.Fatalf("bad window bounds: %v", r)
		}
	}
	if len(perCity) != 3 {
		t.Fatalf("cities in output = %v", perCity)
	}
	if totalCount != 90 {
		t.Fatalf("total windowed count = %d, want 90 (every event in exactly one window)", totalCount)
	}
	// Sum check: sum of v over all windows = sum 0..89.
	var sum float64
	for _, r := range got {
		sum += r.Double("sum_v")
	}
	if sum != 89*90/2 {
		t.Fatalf("total sum = %v, want %v", sum, 89*90/2)
	}
}

func TestSlidingWindowAssignsMultiple(t *testing.T) {
	// Sliding 60s window with 30s hop: each event lands in 2 windows.
	spec := JobSpec{
		Name:    "sliding",
		Sources: []SourceSpec{{Source: NewBoundedSource(rows(60, base), "ts", 8)}},
		Stages: []StageSpec{
			{
				Name: "agg", KeyBy: "city",
				New: func() Operator {
					return NewWindowAggOp(60_000, 30_000, "city", Aggregation{Kind: record.AggCount})
				},
			},
		},
	}
	sink := runToCompletion(t, spec)
	var total int64
	for _, r := range sink.Records() {
		total += r.Long("count")
	}
	if total != 120 {
		t.Fatalf("sliding total count = %d, want 120 (each event in 2 windows)", total)
	}
}

func TestWindowAggKinds(t *testing.T) {
	rows := []record.Record{
		{"k": "a", "v": 10.0, "ts": base},
		{"k": "a", "v": 30.0, "ts": base + 1},
		{"k": "a", "v": 20.0, "ts": base + 2},
	}
	spec := JobSpec{
		Name:    "aggkinds",
		Sources: []SourceSpec{{Source: NewBoundedSource(toRows(rows), "ts", 8)}},
		Stages: []StageSpec{
			{
				Name: "agg", KeyBy: "k",
				New: func() Operator {
					return NewWindowAggOp(60_000, 0, "k",
						Aggregation{Kind: record.AggMin, Field: "v", As: "lo"},
						Aggregation{Kind: record.AggMax, Field: "v", As: "hi"},
						Aggregation{Kind: record.AggAvg, Field: "v", As: "mean"},
					)
				},
			},
		},
	}
	sink := runToCompletion(t, spec)
	recs := sink.Records()
	if len(recs) != 1 {
		t.Fatalf("windows = %d, want 1", len(recs))
	}
	r := recs[0]
	if r.Double("lo") != 10 || r.Double("hi") != 30 || r.Double("mean") != 20 {
		t.Fatalf("agg results = %v", r)
	}
}

// TestWindowAggSkipsNull: a window answers as batch SQL does over the same
// rows — a NULL or missing field is no input, so COUNT(fare) counts the
// non-NULL fares, COUNT(*) every row, and MIN, MAX and AVG over no input are
// NULL cells.
func TestWindowAggSkipsNull(t *testing.T) {
	schema := &metadata.Schema{Name: "trips", Version: 1, Fields: []metadata.Field{
		{Name: "city", Type: metadata.TypeString},
		{Name: "fare", Type: metadata.TypeDouble, Nullable: true},
		{Name: "tip", Type: metadata.TypeDouble, Nullable: true},
	}}
	fares := []any{nil, 5.0, nil, 7.0}
	w := NewWindowAggOp(60_000, 0, "city",
		Aggregation{Kind: record.AggCount, As: "n"},
		Aggregation{Kind: record.AggCount, Field: "fare", As: "fares"},
		Aggregation{Kind: record.AggSum, Field: "fare", As: "total"},
		Aggregation{Kind: record.AggMin, Field: "fare", As: "lo"},
		Aggregation{Kind: record.AggMax, Field: "fare", As: "hi"},
		Aggregation{Kind: record.AggAvg, Field: "fare", As: "mean"},
		Aggregation{Kind: record.AggAvg, Field: "tip", As: "mean_tip"})
	want := record.Record{"city": "sf", "window_start": int64(0), "window_end": int64(60_000),
		"n": int64(4), "fares": int64(2), "total": 12.0, "lo": 5.0, "hi": 7.0, "mean": 6.0}
	for i, fare := range fares {
		vals := []record.Value{record.ValueOf("sf"), {Null: true}, {Null: true}}
		if fare != nil {
			vals[1] = record.ValueOf(fare)
		}
		if err := w.ProcessElement(Event{Key: "sf", Time: int64(i), Row: record.Row{Schema: schema, Vals: vals}}, func(Event) {}); err != nil {
			t.Fatal(err)
		}
	}
	var got []record.Row
	if err := w.OnWatermark(60_000, func(e Event) { got = append(got, e.Row) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || fmt.Sprint(got[0].Record()) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if at := got[0].Schema.FieldIndex("mean_tip"); at < 0 || !got[0].Vals[at].Null {
		t.Errorf("mean_tip over no input is not a NULL cell: %v", got[0])
	}
}

// TestWindowMeasureTypes: a window sums a bool as 1 or 0, as batch SQL does,
// counts a string, and refuses SUM, AVG, MIN and MAX over a string or bytes
// measure when it binds the row's schema, before it folds anything.
func TestWindowMeasureTypes(t *testing.T) {
	schema := &metadata.Schema{Name: "trips", Version: 1, Fields: []metadata.Field{
		{Name: "city", Type: metadata.TypeString},
		{Name: "flag", Type: metadata.TypeBool},
		{Name: "blob", Type: metadata.TypeBytes},
	}}
	flags := []bool{true, false, true}
	event := func(i int) Event {
		return Event{Key: "sf", Time: int64(i), Row: record.Row{Schema: schema, Vals: []record.Value{record.ValueOf("sf"), record.ValueOf(flags[i]), record.ValueOf([]byte("b"))}}}
	}
	w := NewWindowAggOp(60_000, 0, "city",
		Aggregation{Kind: record.AggSum, Field: "flag", As: "flags"},
		Aggregation{Kind: record.AggAvg, Field: "flag", As: "share"},
		Aggregation{Kind: record.AggCount, Field: "city", As: "cities"})
	for i := range flags {
		if err := w.ProcessElement(event(i), func(Event) {}); err != nil {
			t.Fatal(err)
		}
	}
	var got []record.Record
	if err := w.OnWatermark(60_000, func(e Event) { got = append(got, e.Row.Record()) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0]["flags"] != 2.0 || got[0]["share"] != 2.0/3 || got[0]["cities"] != int64(3) {
		t.Errorf("fired %v, want flags 2, share 2/3, cities 3", got)
	}
	for _, kind := range []record.AggKind{record.AggSum, record.AggAvg, record.AggMin, record.AggMax} {
		for _, field := range []string{"city", "blob"} {
			w := NewWindowAggOp(60_000, 0, "city", Aggregation{Kind: kind, Field: field})
			if err := w.ProcessElement(event(0), func(Event) {}); err == nil {
				t.Errorf("%s(%s) folded", kind, field)
			}
			if w.StateBytes() != 0 {
				t.Errorf("%s(%s) refused after keeping state", kind, field)
			}
		}
	}
}

func TestKeyedRoutingConsistency(t *testing.T) {
	// With parallel reducers, all events of one key must hit one instance:
	// final per-key count equals the input count for that key.
	n := 300
	spec := JobSpec{
		Name:    "keyed",
		Sources: []SourceSpec{{Source: NewBoundedSource(rows(n, base), "ts", 16)}},
		Stages: []StageSpec{
			{
				Name: "reduce", KeyBy: "city", Parallelism: 4,
				New: func() Operator {
					return NewReduceOp(func(acc record.Record, e Event) record.Record {
						if acc == nil {
							return record.Record{"city": e.Key, "n": int64(1)}
						}
						acc["n"] = acc.Long("n") + 1
						return acc
					})
				},
			},
		},
	}
	sink := runToCompletion(t, spec)
	// The reducer emits a changelog; the final value per key is the max.
	final := map[string]int64{}
	for _, r := range sink.Records() {
		if v := r.Long("n"); v > final[r.String("city")] {
			final[r.String("city")] = v
		}
	}
	if len(final) != 3 {
		t.Fatalf("keys = %v", final)
	}
	for city, count := range final {
		if count != int64(n/3) {
			t.Errorf("city %s count = %d, want %d", city, count, n/3)
		}
	}
}

func TestIntervalJoin(t *testing.T) {
	// Left: predictions; right: outcomes 500ms later. Join within 1s.
	var left, right []record.Record
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("model-%d", i%5)
		left = append(left, record.Record{"model": key, "pred": float64(i), "ts": base + int64(i)*10_000})
		right = append(right, record.Record{"model": key, "label": float64(i) + 0.5, "ts": base + int64(i)*10_000 + 500})
	}
	spec := JobSpec{
		Name: "join",
		Sources: []SourceSpec{
			{Name: "preds", Source: NewBoundedSource(toRows(left), "ts", 8)},
			{Name: "labels", Source: NewBoundedSource(toRows(right), "ts", 8)},
		},
		Stages: []StageSpec{
			{
				Name:        "join",
				Parallelism: 2,
				KeyBySource: map[int]string{0: "model", 1: "model"},
				New:         func() Operator { return NewIntervalJoinOp(1000) },
			},
		},
	}
	sink := runToCompletion(t, spec)
	got := sink.Records()
	if len(got) != 50 {
		t.Fatalf("join produced %d, want 50", len(got))
	}
	for _, r := range got {
		if r.Double("label")-r.Double("pred") != 0.5 {
			t.Fatalf("mismatched pair: %v", r)
		}
	}
}

func TestJoinFieldClashPrefixed(t *testing.T) {
	j := NewIntervalJoinOp(1000)
	var out []Event
	emit := func(e Event) { out = append(out, e) }
	if err := j.ProcessElement(Event{Key: "k", Time: 10, Source: 0, Row: rowOf(record.Record{"ts": int64(10), "v": 1.0})}, emit); err != nil {
		t.Fatal(err)
	}
	if err := j.ProcessElement(Event{Key: "k", Time: 20, Source: 1, Row: rowOf(record.Record{"ts": int64(20), "v": 2.0})}, emit); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("out = %v", out)
	}
	r := out[0].Row.Record()
	if r.Double("v") != 1.0 || r.Double("r_v") != 2.0 {
		t.Fatalf("merge = %v", r)
	}
}

func TestJoinEvictionBoundsState(t *testing.T) {
	j := NewIntervalJoinOp(1000)
	emit := func(Event) {}
	for i := 0; i < 100; i++ {
		j.ProcessElement(Event{Key: "k", Time: int64(i * 100), Source: 0, Row: rowOf(record.Record{"v": float64(i)})}, emit)
	}
	before := j.StateBytes()
	j.OnWatermark(100*100+2000, emit)
	if after := j.StateBytes(); after >= before || after != 0 {
		t.Errorf("state bytes before=%d after=%d, want full eviction", before, after)
	}
}

func TestOperatorErrorFailsJob(t *testing.T) {
	spec := JobSpec{
		Name:    "failing",
		Sources: []SourceSpec{{Source: NewBoundedSource(rows(10, base), "ts", 4)}},
		Stages: []StageSpec{
			{Name: "boom", New: func() Operator {
				return &MapOp{Fn: func(e Event) (Event, error) {
					if e.Data.Double("v") == 5 {
						return e, errors.New("injected failure")
					}
					return e, nil
				}}
			}},
		},
		Sink: SinkSpec{Sink: NewCollectSink()},
	}
	job, err := NewJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	err = job.Run()
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("Run = %v, want injected failure", err)
	}
}

func TestSinkErrorFailsJob(t *testing.T) {
	spec := JobSpec{
		Name:    "sinkfail",
		Sources: []SourceSpec{{Source: NewBoundedSource(rows(10, base), "ts", 4)}},
		Stages:  []StageSpec{{Name: "id", New: passthrough}},
		Sink: SinkSpec{Sink: &FuncSink{Fn: func(e Event) error {
			return errors.New("sink broken")
		}}},
	}
	job, _ := NewJob(spec)
	if err := job.Run(); err == nil || !strings.Contains(err.Error(), "sink broken") {
		t.Fatalf("Run = %v", err)
	}
}

func passthrough() Operator {
	return &MapOp{Fn: func(e Event) (Event, error) { return e, nil }}
}

func TestCancel(t *testing.T) {
	// Unbounded-ish: huge bounded source; cancel early.
	spec := JobSpec{
		Name:    "cancel",
		Sources: []SourceSpec{{Source: NewBoundedSource(rows(1_000_000, base), "ts", 64)}},
		Stages:  []StageSpec{{Name: "id", New: passthrough}},
		Sink:    SinkSpec{Sink: NewCollectSink()},
	}
	job, _ := NewJob(spec)
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	job.Cancel()
	if err := job.Wait(); err == nil {
		t.Fatal("cancelled job should report an error")
	}
	if !job.Done() {
		t.Fatal("job should be done after cancel")
	}
}

func TestDoubleStartRejected(t *testing.T) {
	spec := JobSpec{
		Name:    "dup",
		Sources: []SourceSpec{{Source: NewBoundedSource(rows(1, base), "ts", 4)}},
		Stages:  []StageSpec{{Name: "id", New: passthrough}},
		Sink:    SinkSpec{Sink: NewCollectSink()},
	}
	job, _ := NewJob(spec)
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}
	if err := job.Start(); err == nil {
		t.Fatal("second Start should fail")
	}
	job.Wait()
}

func TestSpecValidation(t *testing.T) {
	good := func() JobSpec {
		return JobSpec{
			Name:    "v",
			Sources: []SourceSpec{{Source: NewBoundedSource(nil, "", 1)}},
			Stages:  []StageSpec{{New: passthrough}},
			Sink:    SinkSpec{Sink: NewCollectSink()},
		}
	}
	cases := []struct {
		name   string
		mutate func(*JobSpec)
	}{
		{"no name", func(s *JobSpec) { s.Name = "" }},
		{"no sources", func(s *JobSpec) { s.Sources = nil }},
		{"nil source", func(s *JobSpec) { s.Sources[0].Source = nil }},
		{"no stages", func(s *JobSpec) { s.Stages = nil }},
		{"nil factory", func(s *JobSpec) { s.Stages[0].New = nil }},
		{"no sink", func(s *JobSpec) { s.Sink.Sink = nil }},
	}
	for _, tc := range cases {
		s := good()
		tc.mutate(&s)
		if _, err := NewJob(s); err == nil {
			t.Errorf("%s: NewJob should fail", tc.name)
		}
	}
	// Defaults applied (visible on the job's own spec copy).
	job, err := NewJob(good())
	if err != nil {
		t.Fatal(err)
	}
	if got := job.Spec(); got.Stages[0].Parallelism != 1 || got.BufferSize != 64 {
		t.Errorf("defaults not applied: %+v", got)
	}
}

func TestBoundedSourceThrottle(t *testing.T) {
	src := NewBoundedSource(rows(200, base), "ts", 50)
	src.SetRate(1000) // 1000 events/sec => 200 events ≈ 200ms
	start := time.Now()
	total := 0
	for {
		events, end, err := src.Next(time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		total += len(events)
		if end {
			break
		}
	}
	elapsed := time.Since(start)
	if total != 200 {
		t.Fatalf("total = %d", total)
	}
	if elapsed < 100*time.Millisecond {
		t.Errorf("throttled drain took %v, want >= ~150ms", elapsed)
	}
}

func TestMetricsAndStateBytes(t *testing.T) {
	spec := JobSpec{
		Name:    "metrics",
		Sources: []SourceSpec{{Source: NewBoundedSource(rows(50, base), "ts", 8)}},
		Stages: []StageSpec{
			{Name: "reduce", KeyBy: "city", New: func() Operator {
				return NewReduceOp(func(acc record.Record, e Event) record.Record {
					if acc == nil {
						acc = record.Record{"n": int64(0)}
					}
					acc["n"] = acc.Long("n") + 1
					return acc
				})
			}},
		},
		Sink: SinkSpec{Sink: NewCollectSink()},
	}
	job, _ := NewJob(spec)
	if err := job.Run(); err != nil {
		t.Fatal(err)
	}
	m := job.Metrics()
	if m.EventsIn != 50 || m.EventsOut != 50 {
		t.Errorf("events in/out = %d/%d", m.EventsIn, m.EventsOut)
	}
	if m.StateBytes <= 0 {
		t.Errorf("state bytes = %d, want > 0 for keyed reduce", m.StateBytes)
	}
}

func TestBackpressureBoundsInflight(t *testing.T) {
	// A slow sink with small buffers: events in flight (in - out) must stay
	// bounded by total channel capacity, not grow with the backlog.
	var sinkSeen atomic.Int64
	spec := JobSpec{
		Name:       "bp",
		BufferSize: 4,
		Sources:    []SourceSpec{{Source: NewBoundedSource(rows(500, base), "ts", 8)}},
		Stages:     []StageSpec{{Name: "id", New: passthrough}},
		Sink: SinkSpec{Sink: &FuncSink{Fn: func(e Event) error {
			sinkSeen.Add(1)
			time.Sleep(100 * time.Microsecond)
			return nil
		}}},
	}
	job, _ := NewJob(spec)
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}
	maxInflight := int64(0)
	for !job.Done() {
		m := job.Metrics()
		if d := m.EventsIn - m.EventsOut; d > maxInflight {
			maxInflight = d
		}
		time.Sleep(time.Millisecond)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	// Capacity: source->stage (4) + stage->sink (4) + a few in hand.
	if maxInflight > 40 {
		t.Errorf("in-flight reached %d; backpressure should bound it near channel capacity", maxInflight)
	}
}

func TestDeterministicWindowOutputOrder(t *testing.T) {
	run := func() []string {
		spec := JobSpec{
			Name:    "det",
			Sources: []SourceSpec{{Source: NewBoundedSource(rows(30, base), "ts", 8)}},
			Stages: []StageSpec{
				{Name: "agg", KeyBy: "city", New: func() Operator {
					return NewWindowAggOp(10_000, 0, "city", Aggregation{Kind: record.AggCount})
				}},
			},
		}
		sink := runToCompletion(t, spec)
		var keys []string
		for _, r := range sink.Records() {
			keys = append(keys, fmt.Sprintf("%d/%s", r.Long("window_start"), r.String("city")))
		}
		return keys
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("output order differs at %d: %s vs %s", i, a[i], b[i])
		}
	}
	if !sort.StringsAreSorted(a) {
		// Window firing is sorted by (start, key) within one watermark
		// advance; across advances starts are monotone, so the combined
		// sequence is sorted.
		t.Errorf("window outputs not in deterministic sorted order: %v", a)
	}
}
