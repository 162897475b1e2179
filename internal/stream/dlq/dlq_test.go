package dlq

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/stream"
)

func newCluster(t *testing.T) *stream.Cluster {
	t.Helper()
	c, err := stream.NewCluster(stream.ClusterConfig{Name: "c", Nodes: 1, ReplicationInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// poisonHandler fails permanently on values containing "poison".
func poisonHandler(m stream.Message) error {
	if strings.Contains(string(m.Value), "poison") {
		return errors.New("cannot process")
	}
	return nil
}

func produceMixed(t *testing.T, c *stream.Cluster, topic string, good, poison int) {
	t.Helper()
	p := stream.NewProducer(c, "svc", "", nil)
	for i := 0; i < good+poison; i++ {
		v := fmt.Sprintf("ok-%d", i)
		if i < poison {
			v = fmt.Sprintf("poison-%d", i)
		}
		if err := p.Produce(topic, nil, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDLQStrategyIsolatesPoison(t *testing.T) {
	c := newCluster(t)
	if err := c.CreateTopic("t", stream.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	if err := EnsureDLQTopic(c, "t"); err != nil {
		t.Fatal(err)
	}
	if err := EnsureDLQTopic(c, "t"); err != nil {
		t.Fatal(err) // idempotent
	}
	produceMixed(t, c, "t", 20, 5)

	p := NewProcessor(c, "g", "t", Config{Strategy: StrategyDLQ, MaxRetries: 2}, poisonHandler)
	stats := p.Run(100 * time.Millisecond)
	if stats.Processed != 20 {
		t.Errorf("processed = %d, want 20", stats.Processed)
	}
	if stats.DeadLettered != 5 {
		t.Errorf("dead lettered = %d, want 5", stats.DeadLettered)
	}
	if stats.Dropped != 0 {
		t.Errorf("dropped = %d, want 0 (no data loss)", stats.Dropped)
	}
	if stats.Retried != 10 {
		t.Errorf("retried = %d, want 5*2", stats.Retried)
	}
	// The DLQ holds exactly the poison messages.
	_, high, _ := c.Watermarks(stream.TopicPartition{Topic: DLQTopic("t"), Partition: 0})
	if high != 5 {
		t.Errorf("DLQ contains %d, want 5", high)
	}
	// Retry count header is stamped.
	msgs, _ := c.Fetch(stream.TopicPartition{Topic: DLQTopic("t"), Partition: 0}, 0, 10)
	if msgs[0].Headers[stream.HeaderRetryCount] != "1" {
		t.Errorf("retry-count header = %q", msgs[0].Headers[stream.HeaderRetryCount])
	}
}

func TestDropStrategyLosesData(t *testing.T) {
	c := newCluster(t)
	c.CreateTopic("t", stream.TopicConfig{Partitions: 1})
	produceMixed(t, c, "t", 10, 3)
	p := NewProcessor(c, "g", "t", Config{Strategy: StrategyDrop, MaxRetries: 1}, poisonHandler)
	stats := p.Run(100 * time.Millisecond)
	if stats.Processed != 10 || stats.Dropped != 3 || stats.DeadLettered != 0 {
		t.Errorf("drop stats = %+v", stats)
	}
}

func TestBlockStrategyClogsPartition(t *testing.T) {
	c := newCluster(t)
	c.CreateTopic("t", stream.TopicConfig{Partitions: 1})
	// One poison message at the head, good traffic behind it.
	p := stream.NewProducer(c, "svc", "", nil)
	p.Produce("t", nil, []byte("poison-head"))
	for i := 0; i < 10; i++ {
		p.Produce("t", nil, []byte(fmt.Sprintf("ok-%d", i)))
	}
	proc := NewProcessor(c, "g", "t", Config{Strategy: StrategyBlock, MaxBlockRetries: 5}, poisonHandler)
	stats := proc.Run(100 * time.Millisecond)
	if stats.Blocked == 0 {
		t.Error("blocking strategy should report blocked messages")
	}
	if stats.Retried != 5 {
		t.Errorf("retried = %d, want MaxBlockRetries", stats.Retried)
	}
}

func TestBlockStrategyRecoversOnTransientError(t *testing.T) {
	c := newCluster(t)
	c.CreateTopic("t", stream.TopicConfig{Partitions: 1})
	p := stream.NewProducer(c, "svc", "", nil)
	p.Produce("t", nil, []byte("flaky"))
	p.Produce("t", nil, []byte("ok"))
	attempts := 0
	h := func(m stream.Message) error {
		if string(m.Value) == "flaky" {
			attempts++
			if attempts < 3 {
				return errors.New("transient")
			}
		}
		return nil
	}
	proc := NewProcessor(c, "g", "t", Config{Strategy: StrategyBlock}, h)
	stats := proc.Run(100 * time.Millisecond)
	if stats.Processed != 2 || stats.Blocked != 0 {
		t.Errorf("stats = %+v, want 2 processed after transient recovery", stats)
	}
}

func TestMergeReinjects(t *testing.T) {
	c := newCluster(t)
	c.CreateTopic("t", stream.TopicConfig{Partitions: 1})
	EnsureDLQTopic(c, "t")
	produceMixed(t, c, "t", 2, 3)
	p := NewProcessor(c, "g", "t", Config{Strategy: StrategyDLQ, MaxRetries: 1}, poisonHandler)
	p.Run(100 * time.Millisecond)

	// "Fix the bug", then merge the DLQ back.
	merged, err := Merge(c, "t", 100)
	if err != nil {
		t.Fatal(err)
	}
	if merged != 3 {
		t.Fatalf("merged = %d, want 3", merged)
	}
	fixed := NewProcessor(c, "g", "t", Config{Strategy: StrategyDLQ, MaxRetries: 1},
		func(stream.Message) error { return nil })
	stats := fixed.Run(100 * time.Millisecond)
	if stats.Processed != 3 {
		t.Errorf("reprocessed = %d, want 3 merged messages", stats.Processed)
	}
	// Merge again: DLQ already consumed.
	if merged, _ := Merge(c, "t", 100); merged != 0 {
		t.Errorf("second merge = %d, want 0", merged)
	}
}

// auditOf reads the four §9.4 audit values of a message by header name.
func auditOf(m stream.Message) [4]string {
	return [4]string{
		m.HeaderOr(stream.HeaderUUID, ""), m.HeaderOr(stream.HeaderAppTime, ""),
		m.HeaderOr(stream.HeaderService, ""), m.HeaderOr(stream.HeaderTier, ""),
	}
}

// Merge re-publishes fetched messages through its own producer. A fetched
// message shares its Headers map with the copy retained in the DLQ's log,
// and the producer used to stamp uuid/app-ts/service/tier into that map: the
// retained message then read uuid=dlq-merge-1, and the write raced every
// reader of the log. The audit metadata of a retained message must not
// change once it is appended.
func TestMergeLeavesRetainedAuditMetadata(t *testing.T) {
	c := newCluster(t)
	c.CreateTopic("t", stream.TopicConfig{Partitions: 1})
	EnsureDLQTopic(c, "t")
	dead := stream.Message{Value: []byte("poison"), Headers: map[string]string{stream.HeaderRetryCount: "1"}}
	if err := stream.NewProducer(c, "svc-a", "", nil).ProduceBatch(DLQTopic("t"), []stream.Message{dead}); err != nil {
		t.Fatal(err)
	}
	dlqTP := stream.TopicPartition{Topic: DLQTopic("t"), Partition: 0}
	before, err := c.Fetch(dlqTP, 0, 10)
	if err != nil || len(before) != 1 {
		t.Fatalf("fetch DLQ = %v, %v", before, err)
	}
	want := auditOf(before[0])
	if want[0] != "svc-a-1" || want[2] != "svc-a" {
		t.Fatalf("audit metadata as produced = %v", want)
	}

	// A reader of the DLQ's log runs beside the merge (for -race).
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if msgs, err := c.Fetch(dlqTP, 0, 10); err == nil && len(msgs) == 1 {
				_ = auditOf(msgs[0])
			}
		}
	}()
	if merged, err := Merge(c, "t", 10); err != nil || merged != 1 {
		t.Fatalf("Merge = %d, %v", merged, err)
	}
	<-done

	after, _ := c.Fetch(dlqTP, 0, 10)
	if got := auditOf(after[0]); got != want {
		t.Errorf("retained DLQ message audit metadata = %v after Merge, want %v", got, want)
	}
	if got := auditOf(before[0]); got != want {
		t.Errorf("previously fetched message audit metadata = %v after Merge, want %v", got, want)
	}
	// The merged copy is a new message of the merging service, and keeps
	// the caller-supplied header.
	merged, _ := c.Fetch(stream.TopicPartition{Topic: "t", Partition: 0}, 0, 10)
	if len(merged) != 1 || merged[0].HeaderOr(stream.HeaderUUID, "") != "dlq-merge-1" ||
		merged[0].HeaderOr(stream.HeaderRetryCount, "") != "1" {
		t.Errorf("merged message = %+v", merged)
	}
}

func TestPurgeDiscards(t *testing.T) {
	c := newCluster(t)
	c.CreateTopic("t", stream.TopicConfig{Partitions: 1})
	EnsureDLQTopic(c, "t")
	produceMixed(t, c, "t", 0, 4)
	p := NewProcessor(c, "g", "t", Config{Strategy: StrategyDLQ, MaxRetries: 1}, poisonHandler)
	p.Run(100 * time.Millisecond)
	if purged := Purge(c, "t", 100); purged != 4 {
		t.Errorf("purged = %d, want 4", purged)
	}
	if purged := Purge(c, "t", 100); purged != 0 {
		t.Errorf("second purge = %d, want 0", purged)
	}
}

func TestEnsureDLQTopicMissingBase(t *testing.T) {
	c := newCluster(t)
	if err := EnsureDLQTopic(c, "ghost"); err == nil {
		t.Error("EnsureDLQTopic on missing base topic should fail")
	}
}

func TestStrategyString(t *testing.T) {
	if StrategyDLQ.String() != "dlq" || StrategyDrop.String() != "drop" || StrategyBlock.String() != "block" {
		t.Error("strategy names wrong")
	}
}
