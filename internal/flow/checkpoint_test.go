package flow

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/objstore"
	"repro/internal/record"
	"repro/internal/stream"
)

func tripsSchema() *metadata.Schema {
	return &metadata.Schema{
		Name:    "trips",
		Version: 1,
		Fields: []metadata.Field{
			{Name: "city", Type: metadata.TypeString, Dimension: true},
			{Name: "v", Type: metadata.TypeDouble},
			{Name: "ts", Type: metadata.TypeTimestamp},
		},
		TimeField: "ts",
	}
}

func setupTopic(t *testing.T, n int) (*stream.Cluster, *record.Codec) {
	t.Helper()
	cluster, err := stream.NewCluster(stream.ClusterConfig{Name: "c", Nodes: 1, ReplicationInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	if err := cluster.CreateTopic("trips", stream.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	codec, err := record.NewCodec(tripsSchema())
	if err != nil {
		t.Fatal(err)
	}
	p := stream.NewProducer(cluster, "svc", "", nil)
	for i := 0; i < n; i++ {
		payload, err := codec.Encode(record.Record{
			"city": []string{"sf", "nyc"}[i%2],
			"v":    float64(i),
			"ts":   base + int64(i)*1000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Produce("trips", []byte(fmt.Sprintf("k%d", i)), payload); err != nil {
			t.Fatal(err)
		}
	}
	return cluster, codec
}

// countingReduce counts events per city.
func countingReduce() Operator {
	return NewReduceOp(func(acc record.Record, e Event) record.Record {
		if acc == nil {
			return record.Record{"city": e.Key, "n": int64(1)}
		}
		acc = acc.Clone()
		acc["n"] = acc.Long("n") + 1
		return acc
	})
}

func streamJobSpec(t *testing.T, cluster *stream.Cluster, codec *record.Codec, store objstore.Store, sink Sink) JobSpec {
	t.Helper()
	src, err := NewStreamSource(cluster, "trips", codec, StreamSourceConfig{TimeField: "ts", Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	return JobSpec{
		Name:            "counter",
		Sources:         []SourceSpec{{Name: "trips", Source: src, WatermarkEvery: 8}},
		Stages:          []StageSpec{{Name: "reduce", KeyBy: "city", Parallelism: 2, New: countingReduce}},
		Sink:            SinkSpec{Sink: sink},
		CheckpointStore: store,
	}
}

func TestCheckpointAndRestoreExactlyOnceState(t *testing.T) {
	cluster, codec := setupTopic(t, 100)
	store := objstore.NewMemStore()

	// Phase 1: consume some of the stream, checkpoint, then "crash".
	sink1 := NewCollectSink()
	job1, err := NewJob(streamJobSpec(t, cluster, codec, store, sink1))
	if err != nil {
		t.Fatal(err)
	}
	if err := job1.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait until the job has consumed everything currently in the topic.
	deadline := time.Now().Add(3 * time.Second)
	for job1.Metrics().EventsIn < 100 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := job1.Metrics().EventsIn; got < 100 {
		t.Fatalf("job1 consumed %d, want 100", got)
	}
	ckptID, err := job1.TriggerCheckpoint(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ckptID != 1 {
		t.Errorf("checkpoint id = %d", ckptID)
	}
	job1.Cancel()
	_ = job1.Wait()

	// Phase 2: more data arrives while the job is down.
	p := stream.NewProducer(cluster, "svc", "", nil)
	for i := 100; i < 150; i++ {
		payload, _ := codec.Encode(record.Record{
			"city": []string{"sf", "nyc"}[i%2],
			"v":    float64(i),
			"ts":   base + int64(i)*1000,
		})
		p.Produce("trips", []byte(fmt.Sprintf("k%d", i)), payload)
	}

	// Phase 3: restore and continue. State must resume at exactly 50/50
	// per city and end at exactly 75/75 — no double counting, no loss.
	sink2 := NewCollectSink()
	job2, err := NewJob(streamJobSpec(t, cluster, codec, store, sink2))
	if err != nil {
		t.Fatal(err)
	}
	if err := job2.RestoreLatest(); err != nil {
		t.Fatal(err)
	}
	if err := job2.Start(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(3 * time.Second)
	for job2.Metrics().EventsIn < 50 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := job2.Metrics().EventsIn; got != 50 {
		t.Fatalf("restored job consumed %d new events, want exactly 50 (no replay before checkpoint)", got)
	}
	// Let outputs drain, then inspect final per-city counts.
	time.Sleep(50 * time.Millisecond)
	job2.Cancel()
	_ = job2.Wait()
	final := map[string]int64{}
	for _, r := range sink2.Records() {
		if v := r.Long("n"); v > final[r.String("city")] {
			final[r.String("city")] = v
		}
	}
	if final["sf"] != 75 || final["nyc"] != 75 {
		t.Errorf("final counts = %v, want sf:75 nyc:75 (state restored exactly)", final)
	}
}

func TestCheckpointPruning(t *testing.T) {
	cluster, codec := setupTopic(t, 10)
	store := objstore.NewMemStore()
	spec := streamJobSpec(t, cluster, codec, store, NewCollectSink())
	spec.KeepCheckpoints = 2
	job, err := NewJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { job.Cancel(); job.Wait() }()
	for i := 0; i < 4; i++ {
		if _, err := job.TriggerCheckpoint(2 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	keys, _ := store.List("checkpoints/counter/")
	if len(keys) != 2 {
		t.Errorf("retained checkpoints = %v, want 2", keys)
	}
	ckpt, err := LatestCheckpoint(store, "counter")
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.ID != 4 {
		t.Errorf("latest checkpoint id = %d, want 4", ckpt.ID)
	}
}

func TestTriggerCheckpointErrors(t *testing.T) {
	// No store configured.
	spec := JobSpec{
		Name:    "nostore",
		Sources: []SourceSpec{{Source: NewBoundedSource(rows(5, base), "ts", 4)}},
		Stages:  []StageSpec{{Name: "id", New: passthrough}},
		Sink:    SinkSpec{Sink: NewCollectSink()},
	}
	job, _ := NewJob(spec)
	if _, err := job.TriggerCheckpoint(time.Second); err == nil {
		t.Error("checkpoint without store should fail")
	}
	// Not started.
	spec2 := spec
	spec2.Name = "notstarted"
	spec2.CheckpointStore = objstore.NewMemStore()
	job2, _ := NewJob(spec2)
	if _, err := job2.TriggerCheckpoint(time.Second); err == nil {
		t.Error("checkpoint before start should fail")
	}
}

func TestRestoreValidation(t *testing.T) {
	store := objstore.NewMemStore()
	spec := JobSpec{
		Name:            "a",
		Sources:         []SourceSpec{{Source: NewBoundedSource(rows(5, base), "ts", 4)}},
		Stages:          []StageSpec{{Name: "id", New: passthrough}},
		Sink:            SinkSpec{Sink: NewCollectSink()},
		CheckpointStore: store,
	}
	job, _ := NewJob(spec)
	if err := job.Restore(&Checkpoint{JobName: "other"}); err == nil {
		t.Error("restoring another job's checkpoint should fail")
	}
	if err := job.Restore(nil); err != nil {
		t.Errorf("nil restore should be a no-op: %v", err)
	}
	// Restore-latest with no checkpoints: starts fresh.
	if err := job.RestoreLatest(); err != nil {
		t.Errorf("RestoreLatest with empty store = %v", err)
	}
	if err := job.Run(); err != nil {
		t.Fatal(err)
	}
	// Restore after start is rejected.
	if err := job.Restore(&Checkpoint{JobName: "a"}); err == nil {
		t.Error("restore after start should fail")
	}
}

func TestAutoCheckpointTicker(t *testing.T) {
	cluster, codec := setupTopic(t, 20)
	store := objstore.NewMemStore()
	spec := streamJobSpec(t, cluster, codec, store, NewCollectSink())
	spec.CheckpointInterval = 20 * time.Millisecond
	job, err := NewJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { job.Cancel(); job.Wait() }()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		keys, _ := store.List("checkpoints/counter/")
		if len(keys) >= 2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Error("auto-checkpointing never produced checkpoints")
}

func TestWindowStateSurvivesRestore(t *testing.T) {
	// Checkpoint mid-window; the restored window op must still hold the
	// partial aggregates.
	w := NewWindowAggOp(60_000, 0, "k", Aggregation{Kind: record.AggSum, Field: "v"})
	emit := func(Event) {}
	row := rowOf(record.Record{"v": 1.0})
	for i := 0; i < 10; i++ {
		w.ProcessElement(Event{Key: "a", Time: base + int64(i), Row: row}, emit)
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	w2 := NewWindowAggOp(60_000, 0, "k", Aggregation{Kind: record.AggSum, Field: "v"})
	if err := w2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if w2.StateBytes() == 0 {
		t.Error("restored window op has no state bytes")
	}
	var fired []record.Record
	w2.OnWatermark(base+120_000, func(e Event) { fired = append(fired, e.Row.Record()) })
	if len(fired) != 1 || fired[0].Double("sum_v") != 10 {
		t.Errorf("restored window fired %v, want sum 10", fired)
	}
}

// headWindowSnapshot is a window's checkpoint as the per-window accumulator
// before record.Agg wrote it, with its Seen flag: keys "nyc" and "sf", the
// aggregations of TestWindowRestoresEarlierSnapshot.
const headWindowSnapshot = `{"LastWM":0,"Late":0,"Keys":[{"Key":"bnlj","Windows":{"0":[` +
	`{"Count":1,"Sum":0,"Min":0,"Max":0,"Seen":true},{"Count":1,"Sum":2.5,"Min":2.5,"Max":2.5,"Seen":true},` +
	`{"Count":1,"Sum":2.5,"Min":2.5,"Max":2.5,"Seen":true},{"Count":1,"Sum":2.5,"Min":2.5,"Max":2.5,"Seen":true},` +
	`{"Count":1,"Sum":2.5,"Min":2.5,"Max":2.5,"Seen":true}]}},{"Key":"c2Y=","Windows":{"0":[` +
	`{"Count":2,"Sum":0,"Min":0,"Max":0,"Seen":true},{"Count":2,"Sum":12,"Min":5,"Max":7,"Seen":true},` +
	`{"Count":2,"Sum":12,"Min":5,"Max":7,"Seen":true},{"Count":2,"Sum":12,"Min":5,"Max":7,"Seen":true},` +
	`{"Count":2,"Sum":12,"Min":5,"Max":7,"Seen":true}],"60000":[{"Count":1,"Sum":0,"Min":0,"Max":0,"Seen":true},` +
	`{"Count":1,"Sum":4,"Min":4,"Max":4,"Seen":true},{"Count":1,"Sum":4,"Min":4,"Max":4,"Seen":true},` +
	`{"Count":1,"Sum":4,"Min":4,"Max":4,"Seen":true},{"Count":1,"Sum":4,"Min":4,"Max":4,"Seen":true}]}}]}`

// TestWindowRestoresEarlierSnapshot: a checkpoint written with the dropped
// Seen flag — always Count > 0 — restores to the answers its writer would
// have given, and events after the restore fold in with NULL skipped.
func TestWindowRestoresEarlierSnapshot(t *testing.T) {
	w := NewWindowAggOp(60_000, 0, "city",
		Aggregation{Kind: record.AggCount, As: "n"},
		Aggregation{Kind: record.AggSum, Field: "fare", As: "total"},
		Aggregation{Kind: record.AggMin, Field: "fare", As: "lo"},
		Aggregation{Kind: record.AggMax, Field: "fare", As: "hi"},
		Aggregation{Kind: record.AggAvg, Field: "fare", As: "mean"})
	if err := w.Restore([]byte(headWindowSnapshot)); err != nil {
		t.Fatal(err)
	}
	if err := w.ProcessElement(Event{Key: "sf", Time: 62_000, Row: rowOf(record.Record{"city": "sf"})}, func(Event) {}); err != nil {
		t.Fatal(err)
	}
	var got []string
	if err := w.OnWatermark(200_000, func(e Event) { got = append(got, fmt.Sprint(e.Row.Record())) }); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"map[city:nyc hi:2.5 lo:2.5 mean:2.5 n:1 total:2.5 window_end:60000 window_start:0]",
		"map[city:sf hi:7 lo:5 mean:6 n:2 total:12 window_end:60000 window_start:0]",
		"map[city:sf hi:4 lo:4 mean:4 n:2 total:4 window_end:120000 window_start:60000]",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("restored windows fired\n%v\nwant\n%v", got, want)
	}
	if w.StateBytes() != 0 {
		t.Errorf("state bytes %d after every window fired", w.StateBytes())
	}
}
