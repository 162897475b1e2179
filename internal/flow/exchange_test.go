package flow

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/objstore"
	"repro/internal/record"
)

// scriptSource replays events in polls of random size, up to a limit the
// test raises: how a stream source looks to the runtime, with batch
// boundaries — and so the watermarks between them — falling anywhere.
type scriptSource struct {
	events []Event
	rng    *rand.Rand
	limit  atomic.Int64

	idx     int
	maxTime atomic.Int64
}

func newScriptSource(events []Event, seed int64) *scriptSource {
	s := &scriptSource{events: events, rng: rand.New(rand.NewSource(seed))}
	s.limit.Store(int64(len(events)))
	return s
}

func (s *scriptSource) Next(time.Duration) ([]Event, bool, error) {
	end := min(s.idx+1+s.rng.Intn(40), int(s.limit.Load()))
	if end <= s.idx {
		time.Sleep(100 * time.Microsecond)
		return nil, false, nil
	}
	out := s.events[s.idx:end]
	s.idx = end
	s.maxTime.Store(out[len(out)-1].Time)
	return out, s.idx == len(s.events), nil
}

func (s *scriptSource) Watermark() int64 { return s.maxTime.Load() }

func (s *scriptSource) Position() ([]byte, error) {
	return json.Marshal([2]int64{int64(s.idx), s.maxTime.Load()})
}

func (s *scriptSource) Seek(pos []byte) error {
	var p [2]int64
	if err := json.Unmarshal(pos, &p); err != nil {
		return err
	}
	s.idx = int(p[0])
	s.maxTime.Store(p[1])
	return nil
}

// seqCheck fails the job unless every key's events arrive with seq 1, 2,
// 3, ...: per-key order through the exchange, and exactly-once replay after
// a restore, since the last seq is checkpointed state.
type seqCheck struct{ last map[string]int64 }

func newSeqCheck() Operator { return &seqCheck{last: map[string]int64{}} }

func (s *seqCheck) ProcessElement(e Event, emit func(Event)) error {
	seq := e.Row.Long(e.Row.Schema.FieldIndex("seq"))
	if seq != s.last[e.Key]+1 {
		return fmt.Errorf("key %s: seq %d after %d", e.Key, seq, s.last[e.Key])
	}
	s.last[e.Key] = seq
	emit(e)
	return nil
}

func (*seqCheck) OnWatermark(int64, func(Event)) error { return nil }
func (s *seqCheck) Snapshot() ([]byte, error)          { return json.Marshal(s.last) }
func (s *seqCheck) Restore(data []byte) error          { return json.Unmarshal(data, &s.last) }
func (*seqCheck) StateBytes() int64                    { return 0 }

// commitSink collects outputs and remembers how many it had at its last
// Flush — a checkpoint barrier's — which is what a transactional sink
// would have committed when the job is cancelled.
type commitSink struct {
	mu        sync.Mutex
	out       []record.Record
	committed int
}

func (c *commitSink) Write(events []Event) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range events {
		c.out = append(c.out, boxed(e).Data)
	}
	return nil
}

func (c *commitSink) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.committed = len(c.out)
	return nil
}

// A keyed stage at parallelism 3 feeding a keyed window at parallelism 3,
// under a random mix of poll sizes and watermark spacing, checkpointed,
// cancelled and restored: every key's events arrive in order, in-order
// input loses no event to a watermark overtaking it, and each window's
// count comes out exactly once across the restore.
func TestKeyedExchangeKeepsOrderAndExactlyOnce(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			const n, keys, window = 3000, 12, 50
			recs := make([]record.Record, n)
			seqs := map[string]int64{}
			want := map[string]int64{} // "key/window start" -> count
			ts := base
			for i := range recs {
				ts += 1 + rng.Int63n(4)
				k := fmt.Sprintf("k%d", rng.Intn(keys))
				seqs[k]++
				recs[i] = record.Record{"k": k, "seq": seqs[k], "ts": ts}
				want[fmt.Sprintf("%s/%d", k, ts-ts%window)]++
			}
			events := make([]Event, n)
			for i, r := range toRows(recs) {
				events[i] = Event{Time: recs[i].Long("ts"), Row: r}
			}
			store := objstore.NewMemStore()
			every, bufferSize := 1+rng.Intn(16), 1+rng.Intn(16)
			spec := func(src Source, sink Sink) JobSpec {
				return JobSpec{
					Name:    "exchange",
					Sources: []SourceSpec{{Source: src, WatermarkEvery: every}},
					Stages: []StageSpec{
						{Name: "order", KeyBy: "k", Parallelism: 3, New: newSeqCheck},
						{Name: "count", KeyBy: "k", Parallelism: 3, New: func() Operator {
							return NewWindowAggOp(window, 0, "k", Aggregation{Kind: record.AggCount})
						}},
					},
					Sink:            SinkSpec{Sink: sink},
					BufferSize:      bufferSize,
					CheckpointStore: store,
				}
			}

			// Run to a checkpoint, run on past it, then crash.
			checkpointAt, crashAt := int64(n/3), int64(2*n/3)
			src1, sink1 := newScriptSource(events, seed), &commitSink{}
			src1.limit.Store(checkpointAt)
			job1, err := NewJob(spec(src1, sink1))
			if err != nil {
				t.Fatal(err)
			}
			if err := job1.Start(); err != nil {
				t.Fatal(err)
			}
			waitEventsIn(t, job1, checkpointAt)
			if _, err := job1.TriggerCheckpoint(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			src1.limit.Store(crashAt)
			waitEventsIn(t, job1, crashAt)
			job1.Cancel()
			if err := job1.Wait(); !errors.Is(err, context.Canceled) {
				t.Fatalf("first run ended with %v, want it cancelled", err)
			}

			// Restore and run to the end.
			src2, sink2 := newScriptSource(events, seed+100), &commitSink{}
			job2, err := NewJob(spec(src2, sink2))
			if err != nil {
				t.Fatal(err)
			}
			if err := job2.RestoreLatest(); err != nil {
				t.Fatal(err)
			}
			if err := job2.Run(); err != nil {
				t.Fatal(err)
			}
			if got := job2.Metrics().EventsIn; got != n-checkpointAt {
				t.Errorf("restored run read %d events, want the %d after the checkpoint", got, n-checkpointAt)
			}
			for i, job := range []*Job{job1, job2} {
				if late := job.Metrics().LateEvents; late != 0 {
					t.Errorf("run %d dropped %d in-order events as late", i+1, late)
				}
			}

			got := map[string]int64{}
			for _, r := range append(sink1.out[:sink1.committed], sink2.out...) {
				key := fmt.Sprintf("%s/%d", r.String("k"), r.Long("window_start"))
				if _, dup := got[key]; dup {
					t.Fatalf("window %s emitted twice", key)
				}
				got[key] = r.Long("count")
			}
			if len(got) != len(want) {
				t.Errorf("%d windows out, want %d", len(got), len(want))
			}
			for key, c := range want {
				if got[key] != c {
					t.Errorf("window %s counted %d, want %d", key, got[key], c)
				}
			}
		})
	}
}

func waitEventsIn(t *testing.T, job *Job, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for job.Metrics().EventsIn < n {
		if time.Now().After(deadline) || job.Done() {
			t.Fatalf("job read %d events, want %d (err %v)", job.Metrics().EventsIn, n, job.Err())
		}
		time.Sleep(time.Millisecond)
	}
}

// rowCheckSink reads the cells of every row it is given, as TopicSink does,
// and checks them against each other: a cell block recycled while a row in
// it was still in flight shows as a row whose cells disagree, or one seen
// twice.
type rowCheckSink struct {
	seen   map[float64]int
	bad    int
	writes int
}

func (s *rowCheckSink) Write(events []Event) error {
	for _, e := range events {
		city, v, ts := string(e.Row.Vals[0].B), e.Row.Vals[1].F, e.Row.Vals[2].I
		if ts != base+int64(v)*1000 || city != []string{"sf", "nyc"}[int(v)%2] {
			s.bad++
		}
		s.seen[v]++
	}
	if s.writes++; s.writes%8 == 0 {
		time.Sleep(200 * time.Microsecond) // let runs queue up behind the sink
	}
	return nil
}

func (*rowCheckSink) Flush() error { return nil }

// A StreamSource lends each fetch's cells to its events and gets the block
// back once every event in it is written: rows that cross two parallel
// stages as rows arrive intact and exactly once, and blocks come back.
func TestStreamSourceCellBlocksComeBackIntact(t *testing.T) {
	const n = 3000
	cluster, codec := setupTopic(t, n)
	src, err := NewStreamSource(cluster, "trips", codec, StreamSourceConfig{TimeField: "ts", Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	sink := &rowCheckSink{seen: map[float64]int{}}
	job, err := NewJob(JobSpec{
		Name:    "lend",
		Sources: []SourceSpec{{Source: src}},
		Stages: []StageSpec{
			{Name: "a", Parallelism: 3, New: func() Operator { return PassOp{} }},
			{Name: "b", Parallelism: 2, New: func() Operator { return PassOp{} }},
		},
		Sink:       SinkSpec{Sink: sink},
		BufferSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for job.Metrics().EventsOut < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	job.Cancel()
	_ = job.Wait()
	if sink.bad > 0 || len(sink.seen) != n {
		t.Fatalf("%d rows with cells that disagree, %d distinct rows of %d", sink.bad, len(sink.seen), n)
	}
	for v, c := range sink.seen {
		if c != 1 {
			t.Fatalf("row %v seen %d times", v, c)
		}
	}
	if len(src.free) == 0 {
		t.Error("no cell block came back to the source")
	}
}

// discardSink drops what it is given.
type discardSink struct{}

func (discardSink) Write([]Event) error { return nil }
func (discardSink) Flush() error        { return nil }

// exchangeJob is a bounded source over events → one PassOp stage at
// parallelism p, keyed by city or not → discardSink.
func exchangeJob(tb testing.TB, src *BoundedSource, keyed bool, p int) *Job {
	st := StageSpec{Name: "id", Parallelism: p, New: func() Operator { return PassOp{} }}
	if keyed {
		st.KeyBy = "city"
	}
	job, err := NewJob(JobSpec{
		Name:    "exchange",
		Sources: []SourceSpec{{Source: src}},
		Stages:  []StageSpec{st},
		Sink:    SinkSpec{Sink: discardSink{}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return job
}

// Runs circulate as credits and routing keys are interned, so a job's
// allocations do not grow with the events it moves, round robin or keyed by
// a string field: what it allocates is its setup.
func TestExchangeAllocations(t *testing.T) {
	for _, keyed := range []bool{false, true} {
		allocs := func(n int) float64 {
			src := NewBoundedSource(rows(n, base), "ts", 128)
			return testing.AllocsPerRun(5, func() {
				if err := src.Seek([]byte(`{"Idx":0,"MaxTime":0}`)); err != nil {
					t.Fatal(err)
				}
				if err := exchangeJob(t, src, keyed, 2).Run(); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := allocs(1_000), allocs(20_000)
		if perEvent := (large - small) / 19_000; perEvent > 0.002 {
			t.Errorf("keyed %v: a job allocates %.0f times for 1 000 events and %.0f for 20 000: %.4f per event, want none", keyed, small, large, perEvent)
		}
	}
}

// lateWrapper hides a window operator behind another type, as a tracing
// wrapper does, and passes its late-event count on.
type lateWrapper struct{ inner *WindowAggOp }

func (w lateWrapper) ProcessElement(e Event, emit func(Event)) error {
	return w.inner.ProcessElement(e, emit)
}
func (w lateWrapper) OnWatermark(wm int64, emit func(Event)) error {
	return w.inner.OnWatermark(wm, emit)
}
func (w lateWrapper) Snapshot() ([]byte, error) { return w.inner.Snapshot() }
func (w lateWrapper) Restore(data []byte) error { return w.inner.Restore(data) }
func (w lateWrapper) StateBytes() int64         { return w.inner.StateBytes() }
func (w lateWrapper) LateEvents() int64         { return w.inner.LateEvents() }

// Metrics().LateEvents counts what a window operator dropped whether or not
// it is wrapped: the runtime asks any operator that reports late events.
func TestLateEventsReportedThroughWrapper(t *testing.T) {
	recs := []record.Record{
		{"city": "sf", "ts": base + 10_000}, {"city": "sf", "ts": base + 20_000}, {"city": "sf", "ts": base + 30_000},
		{"city": "sf", "ts": base + 1_000}, {"city": "sf", "ts": base + 2_000}, // behind the first poll's watermark
	}
	for _, wrap := range []bool{false, true} {
		newOp := func() Operator {
			w := NewWindowAggOp(10_000, 0, "city", Aggregation{Kind: record.AggCount})
			if wrap {
				return lateWrapper{w}
			}
			return w
		}
		job, err := NewJob(JobSpec{
			Name:    "late",
			Sources: []SourceSpec{{Source: NewBoundedSource(toRows(recs), "ts", 3), WatermarkEvery: 3}},
			Stages:  []StageSpec{{Name: "window", KeyBy: "city", New: newOp}},
			Sink:    SinkSpec{Sink: discardSink{}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Run(); err != nil {
			t.Fatal(err)
		}
		if got := job.Metrics().LateEvents; got != 2 {
			t.Errorf("wrapped=%v: LateEvents = %d, want 2", wrap, got)
		}
	}
}

// BenchmarkJobExchange moves b.N events from a bounded source through one
// stage — passthrough (round-robin) or keyed by city, at parallelism 1 and
// 2 — into a sink that drops them: the exchange's cost per event, setup
// included.
func BenchmarkJobExchange(b *testing.B) {
	for _, keyed := range []bool{false, true} {
		for _, p := range []int{1, 2} {
			name := fmt.Sprintf("passthrough/p%d", p)
			if keyed {
				name = fmt.Sprintf("keyed/p%d", p)
			}
			b.Run(name, func(b *testing.B) {
				job := exchangeJob(b, NewBoundedSource(rows(b.N, base), "ts", 128), keyed, p)
				b.ReportAllocs()
				b.ResetTimer()
				if err := job.Run(); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
			})
		}
	}
}
