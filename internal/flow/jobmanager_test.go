package flow

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/objstore"
	"repro/internal/record"
	"repro/internal/stream"
)

func TestManagerDeployAndStatus(t *testing.T) {
	m := NewJobManager(ManagerConfig{MonitorInterval: 10 * time.Millisecond})
	defer m.Close()
	err := m.Deploy("simple", func(p int) (*Job, error) {
		return NewJob(JobSpec{
			Name:    "simple",
			Sources: []SourceSpec{{Source: NewBoundedSource(rows(20, base), "ts", 4)}},
			Stages:  []StageSpec{{Name: "id", New: passthrough}},
			Sink:    SinkSpec{Sink: NewCollectSink()},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Deploy("simple", nil); err == nil {
		t.Error("duplicate deploy should fail")
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Status("simple")
		if err != nil {
			t.Fatal(err)
		}
		if !st.Running && !st.Failed {
			if st.Metrics.EventsOut != 20 {
				t.Errorf("finished with %d out, want 20", st.Metrics.EventsOut)
			}
			if list := m.List(); len(list) != 1 || list[0].Name != "simple" {
				t.Errorf("List = %v", list)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job never finished")
}

func TestManagerAutoRestartOnFailure(t *testing.T) {
	// An operator that panics... rather errors on a specific event, but
	// only the first time: after the auto-restart (restoring from the
	// checkpointed state) it succeeds.
	var attempt atomic.Int64
	store := objstore.NewMemStore()
	m := NewJobManager(ManagerConfig{MonitorInterval: 10 * time.Millisecond, MaxRestarts: 2})
	defer m.Close()
	sink := NewCollectSink()
	err := m.Deploy("flaky", func(p int) (*Job, error) {
		return NewJob(JobSpec{
			Name:    "flaky",
			Sources: []SourceSpec{{Source: NewBoundedSource(rows(30, base), "ts", 4)}},
			Stages: []StageSpec{{Name: "maybe-boom", New: func() Operator {
				return &MapOp{Fn: func(e Event) (Event, error) {
					if e.Data.Double("v") == 20 && attempt.Add(1) == 1 {
						return e, errors.New("transient crash")
					}
					return e, nil
				}}
			}}},
			Sink:            SinkSpec{Sink: sink},
			CheckpointStore: store,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		st, _ := m.Status("flaky")
		if st.Restarts >= 1 && !st.Running && !st.Failed {
			if sink.Len() < 30 {
				t.Errorf("sink got %d events, want >= 30 (full reprocess after restart)", sink.Len())
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, _ := m.Status("flaky")
	t.Fatalf("job never recovered: %+v", st)
}

func TestManagerRestartBudgetExhausted(t *testing.T) {
	m := NewJobManager(ManagerConfig{MonitorInterval: 5 * time.Millisecond, MaxRestarts: 2})
	defer m.Close()
	err := m.Deploy("hopeless", func(p int) (*Job, error) {
		return NewJob(JobSpec{
			Name:    "hopeless",
			Sources: []SourceSpec{{Source: NewBoundedSource(rows(5, base), "ts", 4)}},
			Stages: []StageSpec{{Name: "boom", New: func() Operator {
				return &MapOp{Fn: func(e Event) (Event, error) {
					return e, errors.New("permanent failure")
				}}
			}}},
			Sink: SinkSpec{Sink: NewCollectSink()},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		st, _ := m.Status("hopeless")
		if st.Restarts == 2 && st.Failed {
			return // gave up after budget, kept the error visible
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, _ := m.Status("hopeless")
	t.Fatalf("restart budget not honored: %+v", st)
}

func TestManagerAutoScaleOnLag(t *testing.T) {
	// A job over a lag-reporting source with a parallelism hint: when lag
	// exceeds the threshold, the manager redeploys with doubled hint.
	var deployedParallelism atomic.Int64
	m := NewJobManager(ManagerConfig{
		MonitorInterval:     10 * time.Millisecond,
		MaxRestarts:         3,
		ScaleUpLagThreshold: 100,
	})
	defer m.Close()
	// Slow sink keeps lag high until parallelism grows (simulated: the
	// bounded source reports its remaining rows as lag).
	err := m.Deploy("laggy", func(p int) (*Job, error) {
		deployedParallelism.Store(int64(p))
		src := NewBoundedSource(rows(5000, base), "ts", 16)
		if p == 1 {
			src.SetRate(2000) // first deployment is slow
		}
		return NewJob(JobSpec{
			Name:    "laggy",
			Sources: []SourceSpec{{Source: src}},
			Stages:  []StageSpec{{Name: "id", Parallelism: p, New: passthrough}},
			Sink:    SinkSpec{Sink: NewCollectSink()},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if deployedParallelism.Load() >= 2 {
			return // scaled up
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("autoscaler never scaled up; parallelism = %d", deployedParallelism.Load())
}

func TestManagerStopAndUnknown(t *testing.T) {
	m := NewJobManager(ManagerConfig{MonitorInterval: 10 * time.Millisecond})
	defer m.Close()
	if err := m.Stop("ghost"); err == nil {
		t.Error("stopping unknown job should fail")
	}
	if _, err := m.Status("ghost"); err == nil {
		t.Error("status of unknown job should fail")
	}
	err := m.Deploy("j", func(p int) (*Job, error) {
		src := NewBoundedSource(rows(100000, base), "ts", 8)
		src.SetRate(1000)
		return NewJob(JobSpec{
			Name:    "j",
			Sources: []SourceSpec{{Source: src}},
			Stages:  []StageSpec{{Name: "id", New: passthrough}},
			Sink:    SinkSpec{Sink: NewCollectSink()},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Stop("j"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Status("j"); err == nil {
		t.Error("stopped job should be removed from management")
	}
}

func TestReduceOpSnapshotRoundTrip(t *testing.T) {
	r := NewReduceOp(func(acc record.Record, e Event) record.Record {
		if acc == nil {
			return record.Record{"n": int64(1)}
		}
		acc["n"] = acc.Long("n") + 1
		return acc
	})
	emit := func(Event) {}
	for i := 0; i < 7; i++ {
		r.ProcessElement(Event{Key: "a", Row: rowOf(record.Record{})}, emit)
	}
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewReduceOp(r.Fn)
	if err := r2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	var out []Event
	r2.ProcessElement(Event{Key: "a", Row: rowOf(record.Record{})}, func(e Event) { out = append(out, e) })
	if len(out) != 1 || out[0].Row.Record().Long("n") != 8 {
		t.Errorf("restored reduce emitted %v, want n=8", out)
	}
	if err := r2.Restore([]byte("{bad")); err == nil {
		t.Error("corrupt restore should fail")
	}
}

// A payload the codec cannot parse fails no job: the source counts it,
// skips it and moves past it, so the job emits every other message without a
// restart, and a checkpoint taken afterwards resumes behind it.
func TestStreamSourceSkipsPoisonPayload(t *testing.T) {
	cluster, codec := setupTopic(t, 0)
	p := stream.NewProducer(cluster, "svc", "", nil)
	produce := func(i int) {
		payload, err := codec.Encode(record.Record{"city": "sf", "v": float64(i), "ts": base + int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if i == 5 {
			payload = []byte{0xff} // a truncated version varint
		}
		if err := p.Produce("trips", nil, payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		produce(i)
	}
	store := objstore.NewMemStore()
	spec := func(sink Sink) JobSpec {
		src, err := NewStreamSource(cluster, "trips", codec, StreamSourceConfig{TimeField: "ts"})
		if err != nil {
			t.Fatal(err)
		}
		return JobSpec{
			Name:            "poisoned",
			Sources:         []SourceSpec{{Source: src}},
			Stages:          []StageSpec{{Name: "id", New: passthrough}},
			Sink:            SinkSpec{Sink: sink},
			CheckpointStore: store,
		}
	}

	m := NewJobManager(ManagerConfig{MonitorInterval: 5 * time.Millisecond})
	defer m.Close()
	sink := NewCollectSink()
	var job atomic.Pointer[Job]
	if err := m.Deploy("poisoned", func(int) (*Job, error) {
		j, err := NewJob(spec(sink))
		job.Store(j)
		return j, err
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for sink.Len() < 9 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // a restart would show by now
	st, err := m.Status("poisoned")
	if err != nil {
		t.Fatal(err)
	}
	if sink.Len() != 9 || st.Restarts != 0 || st.Failed || st.Metrics.SkippedMessages != 1 {
		t.Fatalf("emitted %d (want 9), status %+v (want 0 restarts, 1 skipped)", sink.Len(), st)
	}
	for _, r := range sink.Records() {
		if r.Double("v") == 5 {
			t.Fatalf("the poison payload came out as %v", r)
		}
	}
	if _, err := job.Load().TriggerCheckpoint(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := m.Stop("poisoned"); err != nil {
		t.Fatal(err)
	}
	_ = job.Load().Wait()

	// The restored job reads only what came after the checkpoint.
	produce(10)
	sink2 := NewCollectSink()
	job2, err := NewJob(spec(sink2))
	if err != nil {
		t.Fatal(err)
	}
	if err := job2.RestoreLatest(); err != nil {
		t.Fatal(err)
	}
	if err := job2.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { job2.Cancel(); _ = job2.Wait() }()
	deadline = time.Now().Add(3 * time.Second)
	for sink2.Len() < 1 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if got := job2.Metrics(); got.EventsIn != 1 || got.SkippedMessages != 0 || sink2.Records()[0].Double("v") != 10 {
		t.Fatalf("restored job: %+v, records %v; want the one new row", got, sink2.Records())
	}
}
