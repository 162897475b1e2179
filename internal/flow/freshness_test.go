package flow

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/record"
	"repro/internal/stream"
)

// logSink records what the sink loop did, in order: "write N" and "flush".
type logSink struct {
	mu  sync.Mutex
	log []string
}

func (s *logSink) Write(events []Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log = append(s.log, fmt.Sprintf("write %d", len(events)))
	return nil
}

func (s *logSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log = append(s.log, "flush")
	return nil
}

// sendAll drives one sender's side of the exchange: each entry of script is
// an event to emit, or a control element to broadcast behind the events
// emitted before it.
func sendAll(t *testing.T, out *outputs, script []element) {
	t.Helper()
	for _, el := range script {
		ok := true
		if el.kind == elemEvents {
			ok = out.add(0, Event{})
		} else {
			ok = out.broadcast(el)
		}
		if !ok {
			t.Fatal("exchange send failed")
		}
	}
}

// The exchange carries events in runs of at most BufferSize, cut early
// before each watermark, barrier or end, and the sink loop writes each run
// as one Write before it handles the element behind it: checkpoint order is
// preserved.
func TestSinkLoopBatchesRunsAndKeepsBarrierOrder(t *testing.T) {
	sink := &logSink{}
	job, err := NewJob(JobSpec{
		Name:       "sink-loop",
		Sources:    []SourceSpec{{Source: NewBoundedSource(nil, "", 1)}},
		Stages:     []StageSpec{{Name: "id", New: passthrough}},
		Sink:       SinkSpec{Sink: sink},
		BufferSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ev := element{kind: elemEvents}
	in := newInputEdges(1, job.spec.BufferSize)
	sendAll(t, newOutputs(job.ctx, in, nil), []element{
		ev, ev, ev, {kind: elemBarrier, barrier: 1}, // a run, then its barrier
		ev, ev, ev, ev, ev, ev, // a run longer than BufferSize
		{kind: elemWatermark, wm: 7}, ev, {kind: elemEnd},
	})
	job.wg.Add(1)
	job.runSink(in) // everything is queued: runs to the end
	want := []string{"write 3", "flush", "write 4", "write 2", "write 1", "flush"}
	if !reflect.DeepEqual(sink.log, want) {
		t.Errorf("sink saw %v, want %v", sink.log, want)
	}
	if got := job.Metrics(); got.EventsOut != 10 || got.SinkWatermark != 7 {
		t.Errorf("metrics = %+v, want 10 events out and sink watermark 7", got)
	}
	if n := len(in[0].credits); n != exchangeCredits {
		t.Errorf("%d of %d credits back after the sink wrote every run", n, exchangeCredits)
	}
}

// With two inputs the barrier reaches the sink only once both delivered it,
// and every event either input sent ahead of its barrier is written first.
func TestSinkLoopAlignsBarriersAcrossInputs(t *testing.T) {
	sink := &logSink{}
	job, err := NewJob(JobSpec{
		Name:    "sink-loop-2",
		Sources: []SourceSpec{{Source: NewBoundedSource(nil, "", 1)}},
		Stages:  []StageSpec{{Name: "id", Parallelism: 2, New: passthrough}},
		Sink:    SinkSpec{Sink: sink},
	})
	if err != nil {
		t.Fatal(err)
	}
	ev := element{kind: elemEvents}
	in := newInputEdges(2, job.spec.BufferSize)
	sendAll(t, newOutputs(job.ctx, in[:1], nil), []element{ev, {kind: elemBarrier, barrier: 1}, ev, {kind: elemEnd}})
	sendAll(t, newOutputs(job.ctx, in[1:], nil), []element{ev, ev, ev, {kind: elemBarrier, barrier: 1}, {kind: elemEnd}})
	job.wg.Add(1)
	job.runSink(in)
	written, flushes := 0, 0
	for _, entry := range sink.log {
		var n int
		if _, err := fmt.Sscanf(entry, "write %d", &n); err == nil {
			written += n
			continue
		}
		flushes++
		if flushes == 1 && written != 4 {
			t.Errorf("barrier flushed after %d events, want the 4 sent ahead of it (log %v)", written, sink.log)
		}
	}
	if written != 5 || flushes != 2 {
		t.Errorf("sink saw %v, want 5 events and 2 flushes", sink.log)
	}
}

// gatedSource hands out one small batch, then blocks in Next until released
// — a source that has caught up with a quiet topic.
type gatedSource struct {
	batch   []Event
	lag     int64
	release chan struct{}
	calls   int
}

func (g *gatedSource) Next(time.Duration) ([]Event, bool, error) {
	g.calls++
	if g.calls == 1 {
		return g.batch, false, nil
	}
	<-g.release
	return nil, true, nil
}
func (g *gatedSource) Watermark() int64          { return g.batch[len(g.batch)-1].Time }
func (g *gatedSource) Position() ([]byte, error) { return nil, nil }
func (g *gatedSource) Seek([]byte) error         { return nil }
func (g *gatedSource) Lag() int64                { return g.lag }

// A poll that drained the source is followed by a watermark even though
// fewer than WatermarkEvery events have passed: otherwise the watermark —
// and every window it closes — would wait for the next poll to come back.
func TestWatermarkFollowsADrainingPoll(t *testing.T) {
	for _, tc := range []struct {
		lag  int64
		want int64
	}{{lag: 0, want: base + 2000}, {lag: 5, want: 0}} {
		src := &gatedSource{lag: tc.lag, release: make(chan struct{})}
		for i, r := range rows(3, base) {
			src.batch = append(src.batch, Event{Time: base + int64(i)*1000, Row: r})
		}
		job, err := NewJob(JobSpec{
			Name:    "wm",
			Sources: []SourceSpec{{Source: src, WatermarkEvery: 64}},
			Stages:  []StageSpec{{Name: "id", New: passthrough}},
			Sink:    SinkSpec{Sink: NewCollectSink()},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Start(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for job.Metrics().EventsOut < 3 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		// The source is parked in its second Next. A watermark sent after
		// the first poll is behind the events in the same channels; give
		// it the time the events needed, generously.
		for job.Metrics().SinkWatermark != tc.want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if tc.want == 0 {
			time.Sleep(20 * time.Millisecond)
		}
		if got := job.Metrics().SinkWatermark; got != tc.want {
			t.Errorf("source lag %d: sink watermark = %d while the source is parked, want %d", tc.lag, got, tc.want)
		}
		close(src.release)
		if err := job.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// A job whose source is parked on an idle topic stops promptly when
// cancelled — Next's bound is what the runtime relies on — and leaves no
// goroutine behind. Lag stays readable while the source is parked.
func TestCancelWhileSourceParked(t *testing.T) {
	cluster, codec := setupTopic(t, 0)
	before := runtime.NumGoroutine()
	spec := streamJobSpec(t, cluster, codec, nil, NewCollectSink())
	job, err := NewJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // parked, timed out, parked again
	lagRead := make(chan int64, 1)
	go func() { lagRead <- spec.Sources[0].Source.(LagReporter).Lag() }()
	select {
	case lag := <-lagRead:
		if lag != 0 {
			t.Errorf("lag of an idle topic = %d", lag)
		}
	case <-time.After(time.Second):
		t.Fatal("Lag blocked behind a parked Next")
	}
	start := time.Now()
	job.Cancel()
	if err := job.Wait(); err == nil {
		t.Error("cancelled job should report an error")
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Errorf("cancel took %v with the source parked", d)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before the job, %d after cancel", before, runtime.NumGoroutine())
		}
	}
}

// Next parks for its bound on an idle topic, and an append to either
// partition ends the wait early.
func TestStreamSourceNextBlocksUntilDataOrBound(t *testing.T) {
	cluster, codec := setupTopic(t, 0)
	src, err := NewStreamSource(cluster, "trips", codec, StreamSourceConfig{TimeField: "ts"})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if events, _, err := src.Next(40 * time.Millisecond); err != nil || len(events) != 0 {
		t.Fatalf("idle Next = %d events, %v", len(events), err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("idle Next(40ms) returned after %v", d)
	}
	for part := int64(0); part < 2; part++ {
		go func() {
			time.Sleep(10 * time.Millisecond)
			payload, _ := codec.Encode(record.Record{"city": "sf", "v": 1.0, "ts": base})
			// An unkeyed message goes to partition rrHint % 2.
			if err := cluster.Produce("trips", []stream.Message{{Value: payload}}, part); err != nil {
				t.Error(err)
			}
		}()
		start = time.Now()
		events, _, err := src.Next(5 * time.Second)
		if err != nil || len(events) != 1 {
			t.Fatalf("Next = %d events, %v", len(events), err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("Next took %v to see an append to partition %d", d, part)
		}
	}
}

// A leader failure cuts an AckLeader log behind the source and producers
// carry on from the cut, reusing offsets the source has passed: it must go
// back to the cut (stream.Reader's rule) and yield every new event.
func TestStreamSourceRereadsAfterLeaderFailureCutsTheLog(t *testing.T) {
	cluster, err := stream.NewCluster(stream.ClusterConfig{Name: "c", Nodes: 3, ReplicationInterval: time.Hour}) // pump never fires
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.CreateTopic("trips", stream.TopicConfig{Partitions: 1, ReplicationFactor: 2, Acks: stream.AckLeader}); err != nil {
		t.Fatal(err)
	}
	codec, err := record.NewCodec(tripsSchema())
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewStreamSource(cluster, "trips", codec, StreamSourceConfig{TimeField: "ts", Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	p := stream.NewProducer(cluster, "svc", "", nil)
	// produceAndRead appends rows from..to-1 and reads the source dry,
	// returning the v of every event it yields.
	produceAndRead := func(from, to int) []float64 {
		t.Helper()
		for i := from; i < to; i++ {
			payload, _ := codec.Encode(record.Record{"city": "sf", "v": float64(i), "ts": base + int64(i)})
			if err := p.Produce("trips", nil, payload); err != nil {
				t.Fatal(err)
			}
		}
		var got []float64
		for {
			events, _, err := src.Next(0)
			if err != nil {
				t.Fatalf("Next after rows %d..%d: %v", from, to, err)
			}
			if len(events) == 0 {
				return got
			}
			for _, e := range events {
				got = append(got, e.Row.Record().Double("v"))
			}
		}
	}
	if got := produceAndRead(0, 20); len(got) != 20 {
		t.Fatalf("read %d events, want 20", len(got))
	}
	if err := cluster.FailNode(cluster.PartitionStats()[0]["leader"].(int)); err != nil {
		t.Fatal(err)
	}
	got := produceAndRead(20, 50)
	if len(got) != 30 || got[0] != 20 || got[29] != 49 {
		t.Fatalf("after the cut the source yielded %d events %v, want rows 20..49", len(got), got)
	}
	if lag := src.Lag(); lag != 0 {
		t.Errorf("lag = %d after reading to the end", lag)
	}
}
