package replicator

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/stream"
)

func newCluster(t *testing.T, name string) *stream.Cluster {
	t.Helper()
	c, err := stream.NewCluster(stream.ClusterConfig{Name: name, Nodes: 3, ReplicationInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func partitions(topic string, n int) []stream.TopicPartition {
	out := make([]stream.TopicPartition, n)
	for i := range out {
		out[i] = stream.TopicPartition{Topic: topic, Partition: i}
	}
	return out
}

func TestStickyRebalanceInitial(t *testing.T) {
	parts := partitions("t", 8)
	a, moved := StickyRebalance(nil, []string{"w0", "w1"}, parts)
	if moved != 0 {
		t.Errorf("initial placement moved = %d, want 0", moved)
	}
	if len(a["w0"])+len(a["w1"]) != 8 {
		t.Errorf("assignment incomplete: %v", a)
	}
	if len(a["w0"]) != 4 || len(a["w1"]) != 4 {
		t.Errorf("unbalanced: %d/%d", len(a["w0"]), len(a["w1"]))
	}
}

func TestStickyRebalanceMinimizesMovement(t *testing.T) {
	parts := partitions("t", 12)
	a, _ := StickyRebalance(nil, []string{"w0", "w1", "w2"}, parts)

	// Adding a worker: only the excess moves (12/4 = 3 per worker, so each
	// of the 3 old workers sheds 1 => 3 moves).
	b, moved := StickyRebalance(a, []string{"w0", "w1", "w2", "w3"}, parts)
	if moved != 3 {
		t.Errorf("sticky add moved %d, want 3", moved)
	}
	if len(b["w3"]) != 3 {
		t.Errorf("new worker got %d, want 3", len(b["w3"]))
	}
	// Unmoved partitions stayed on their previous workers.
	prevOwner := owners(a)
	stayed := 0
	for w, tps := range b {
		for _, tp := range tps {
			if prevOwner[tp] == w {
				stayed++
			}
		}
	}
	if stayed != 9 {
		t.Errorf("stayed = %d, want 9", stayed)
	}

	// Naive rebalance moves far more for the same change.
	_, naiveMoved := NaiveRebalance(a, []string{"w0", "w1", "w2", "w3"}, parts)
	if naiveMoved <= moved {
		t.Errorf("naive moved %d, sticky moved %d — sticky should move fewer", naiveMoved, moved)
	}
}

func TestStickyRebalanceWorkerLoss(t *testing.T) {
	parts := partitions("t", 9)
	a, _ := StickyRebalance(nil, []string{"w0", "w1", "w2"}, parts)
	b, _ := StickyRebalance(a, []string{"w0", "w2"}, parts)
	if len(b["w0"])+len(b["w2"]) != 9 {
		t.Errorf("lost partitions after worker removal: %v", b)
	}
	// Surviving workers keep everything they had.
	prevOwner := owners(a)
	for w, tps := range b {
		kept := 0
		for _, tp := range tps {
			if prevOwner[tp] == w {
				kept++
			}
		}
		if kept < 3 {
			t.Errorf("worker %s kept only %d of its partitions", w, kept)
		}
	}
}

func TestStickyRebalanceNoWorkers(t *testing.T) {
	parts := partitions("t", 4)
	a, moved := StickyRebalance(nil, nil, parts)
	if moved != 0 || a.count() != 0 {
		t.Errorf("no-worker rebalance = %v, moved %d", a, moved)
	}
}

func owners(a Assignment) map[stream.TopicPartition]string {
	m := make(map[stream.TopicPartition]string)
	for w, tps := range a {
		for _, tp := range tps {
			m[tp] = w
		}
	}
	return m
}

type memCkpt struct {
	mu       sync.Mutex
	mappings []OffsetMapping
}

func (m *memCkpt) SaveMapping(src, dst string, om OffsetMapping) {
	m.mu.Lock()
	m.mappings = append(m.mappings, om)
	m.mu.Unlock()
}

func TestReplicationEndToEnd(t *testing.T) {
	src := newCluster(t, "regional")
	dst := newCluster(t, "aggregate")
	cfg := stream.TopicConfig{Partitions: 3}
	src.CreateTopic("trips", cfg)
	dst.CreateTopic("trips", cfg)

	ckpt := &memCkpt{}
	r, err := New(src, dst, []string{"trips"}, Config{Workers: 2, CheckpointEvery: 10}, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Stop()

	p := stream.NewProducer(src, "svc", "", nil)
	for i := 0; i < 90; i++ {
		if err := p.Produce("trips", []byte(fmt.Sprintf("key-%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for r.Replicated() < 90 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := r.Replicated(); got != 90 {
		t.Fatalf("replicated %d, want 90", got)
	}
	if lag := r.Lag(); lag != 0 {
		t.Errorf("lag = %d after full replication", lag)
	}

	// Partition preserved, origin header stamped, order kept per partition.
	var total int64
	for i := 0; i < 3; i++ {
		tp := stream.TopicPartition{Topic: "trips", Partition: i}
		srcMsgs, _ := src.Fetch(tp, 0, 1000)
		dstMsgs, _ := dst.Fetch(tp, 0, 1000)
		if len(srcMsgs) != len(dstMsgs) {
			t.Fatalf("partition %d: src %d dst %d", i, len(srcMsgs), len(dstMsgs))
		}
		total += int64(len(dstMsgs))
		for j := range srcMsgs {
			if string(srcMsgs[j].Value) != string(dstMsgs[j].Value) {
				t.Fatalf("partition %d message %d content mismatch", i, j)
			}
			if dstMsgs[j].Headers[stream.HeaderOrigin] != "regional" {
				t.Fatal("origin header missing on replicated message")
			}
		}
	}
	if total != 90 {
		t.Errorf("destination total = %d", total)
	}

	// Offset mappings were checkpointed.
	ckpt.mu.Lock()
	n := len(ckpt.mappings)
	ckpt.mu.Unlock()
	if n == 0 {
		t.Error("no offset-mapping checkpoints saved")
	}
}

func TestReplicatorValidation(t *testing.T) {
	src := newCluster(t, "a")
	dst := newCluster(t, "b")
	src.CreateTopic("t", stream.TopicConfig{Partitions: 2})
	if _, err := New(src, dst, []string{"t"}, Config{}, nil); err == nil {
		t.Error("missing destination topic should fail")
	}
	dst.CreateTopic("t", stream.TopicConfig{Partitions: 3})
	if _, err := New(src, dst, []string{"t"}, Config{}, nil); err == nil {
		t.Error("partition mismatch should fail")
	}
	if _, err := New(src, dst, []string{"ghost"}, Config{}, nil); err == nil {
		t.Error("missing source topic should fail")
	}
}

func TestAddRemoveWorkerChurn(t *testing.T) {
	src := newCluster(t, "a")
	dst := newCluster(t, "b")
	cfg := stream.TopicConfig{Partitions: 12}
	src.CreateTopic("t", cfg)
	dst.CreateTopic("t", cfg)
	r, err := New(src, dst, []string{"t"}, Config{Workers: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	moved := r.AddWorker("w-new")
	if moved != 3 {
		t.Errorf("AddWorker moved %d, want 3", moved)
	}
	if len(r.ActiveWorkers()) != 4 {
		t.Errorf("active workers = %v", r.ActiveWorkers())
	}
	moved = r.RemoveWorker("w-new")
	if moved != 3 {
		t.Errorf("RemoveWorker moved %d, want 3", moved)
	}
	if r.MovedPartitions() != 6 {
		t.Errorf("cumulative moved = %d", r.MovedPartitions())
	}
}

func TestAdaptiveStandbyPromotion(t *testing.T) {
	src := newCluster(t, "a")
	dst := newCluster(t, "b")
	cfg := stream.TopicConfig{Partitions: 4}
	src.CreateTopic("t", cfg)
	dst.CreateTopic("t", cfg)
	r, err := New(src, dst, []string{"t"}, Config{
		Workers: 1, Standby: 2, LagThreshold: 50,
		BatchSize: 4,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Build a burst bigger than the lag threshold before starting.
	p := stream.NewProducer(src, "svc", "", nil)
	for i := 0; i < 500; i++ {
		p.Produce("t", nil, []byte("burst"))
	}
	r.Start()
	defer r.Stop()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if len(r.ActiveWorkers()) > 1 {
			return // standby was promoted under burst
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Errorf("standby never promoted under burst; active = %v", r.ActiveWorkers())
}

// A leader failure cuts an AckLeader source log behind the replicator and
// producers carry on from the cut, reusing offsets it has passed: it must go
// back to the cut (stream.Reader's rule) and copy every new message.
func TestReplicatorRereadsAfterSourceLeaderFailure(t *testing.T) {
	src, err := stream.NewCluster(stream.ClusterConfig{Name: "regional", Nodes: 3, ReplicationInterval: time.Hour}) // pump never fires
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst := newCluster(t, "aggregate")
	src.CreateTopic("trips", stream.TopicConfig{Partitions: 1, ReplicationFactor: 2, Acks: stream.AckLeader})
	dst.CreateTopic("trips", stream.TopicConfig{Partitions: 1, Acks: stream.AckAll})
	r, err := New(src, dst, []string{"trips"}, Config{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Stop()

	p := stream.NewProducer(src, "svc", "", nil)
	produceAndAwait := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := p.Produce("trips", nil, []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		for deadline := time.Now().Add(3 * time.Second); r.Replicated() < int64(to) || r.Lag() != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("replicated %d of %d, lag %d", r.Replicated(), to, r.Lag())
			}
		}
	}
	produceAndAwait(0, 20)
	if err := src.FailNode(src.PartitionStats()[0]["leader"].(int)); err != nil {
		t.Fatal(err)
	}
	produceAndAwait(20, 50)
	got, err := dst.Fetch(stream.TopicPartition{Topic: "trips", Partition: 0}, 0, 100)
	if err != nil || len(got) != 50 {
		t.Fatalf("destination holds %d messages, %v; want the 20 copied before the cut and the 30 after", len(got), err)
	}
	for i, m := range got {
		if want := fmt.Sprintf("v%d", i); string(m.Value) != want {
			t.Fatalf("destination message %d = %q, want %q", i, m.Value, want)
		}
	}
	if n := r.reader.Repairs(); n != 1 {
		t.Errorf("reader repairs = %d, want 1", n)
	}
}

// One destination partition being unavailable must not keep the others from
// being copied, and it catches up once it is back.
func TestReplicatorCopiesPastAnUnavailableDestinationPartition(t *testing.T) {
	src := newCluster(t, "regional")
	dst := newCluster(t, "aggregate")
	src.CreateTopic("trips", stream.TopicConfig{Partitions: 3})
	dst.CreateTopic("trips", stream.TopicConfig{Partitions: 3, ReplicationFactor: 1})
	stats := dst.PartitionStats()
	failed := stats[0]["leader"].(int) // RF 1: partition 0 goes offline
	healthy := 0
	for _, s := range stats {
		if s["leader"].(int) != failed {
			healthy++
		}
	}
	if err := dst.FailNode(failed); err != nil {
		t.Fatal(err)
	}
	r, err := New(src, dst, []string{"trips"}, Config{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Stop()

	p := stream.NewProducer(src, "svc", "", nil)
	for i := 0; i < 30; i++ { // unkeyed: 10 a partition
		if err := p.Produce("trips", nil, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	await := func(want int64) {
		t.Helper()
		for deadline := time.Now().Add(3 * time.Second); r.Replicated() != want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("replicated %d, want %d", r.Replicated(), want)
			}
		}
	}
	await(int64(10 * healthy))
	if err := dst.RecoverNode(failed); err != nil {
		t.Fatal(err)
	}
	await(30)
}

// The first checkpoint of a partition is taken before its first write and
// says where this source's data starts in the destination.
func TestReplicatorCheckpointsWhereItsDataStarts(t *testing.T) {
	src := newCluster(t, "regional")
	dst := newCluster(t, "aggregate")
	src.CreateTopic("trips", stream.TopicConfig{Partitions: 1})
	dst.CreateTopic("trips", stream.TopicConfig{Partitions: 1})
	other := stream.NewProducer(dst, "another-region", "", nil)
	for i := 0; i < 7; i++ {
		other.Produce("trips", nil, []byte("x"))
	}
	ckpt := &memCkpt{}
	r, err := New(src, dst, []string{"trips"}, Config{Workers: 1, CheckpointEvery: 10}, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	p := stream.NewProducer(src, "svc", "", nil)
	for i := 0; i < 20; i++ {
		p.Produce("trips", nil, []byte("v"))
	}
	r.replicateRound()
	want := []OffsetMapping{
		{Topic: "trips", SrcOffset: 0, DstOffset: 7},
		{Topic: "trips", SrcOffset: 20, DstOffset: 27},
	}
	if !reflect.DeepEqual(ckpt.mappings, want) {
		t.Errorf("checkpoints = %+v, want %+v", ckpt.mappings, want)
	}
}
