package proxy

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stream"
	"repro/internal/stream/dlq"
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

func produceN(t *testing.T, c *stream.Cluster, topic string, n int) {
	t.Helper()
	p := stream.NewProducer(c, "svc", "", nil)
	for i := 0; i < n; i++ {
		if err := p.Produce(topic, nil, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOffsetTrackerContiguousCommit(t *testing.T) {
	tr := newOffsetTracker(0)
	for i := 0; i < 5; i++ {
		tr.begin()
	}
	// Acks arrive out of order: 2,0,1 then 4, then 3.
	if got := tr.ack(2); got != 0 {
		t.Errorf("after ack(2): committable = %d, want 0", got)
	}
	if got := tr.ack(0); got != 1 {
		t.Errorf("after ack(0): committable = %d, want 1", got)
	}
	if got := tr.ack(1); got != 3 {
		t.Errorf("after ack(1): committable = %d, want 3", got)
	}
	if got := tr.ack(4); got != 3 {
		t.Errorf("after ack(4): committable = %d, want 3", got)
	}
	if got := tr.ack(3); got != 5 {
		t.Errorf("after ack(3): committable = %d, want 5", got)
	}
}

func TestProxyProcessesAll(t *testing.T) {
	c := newCluster(t)
	c.CreateTopic("t", stream.TopicConfig{Partitions: 2})
	produceN(t, c, "t", 100)
	var count atomic.Int64
	p, err := New(c, "g", "t", Config{Workers: 8}, func(m stream.Message) error {
		count.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := p.DrainUntilIdle(100 * time.Millisecond)
	if count.Load() != 100 || stats.Succeeded != 100 {
		t.Errorf("processed %d / stats %+v, want 100", count.Load(), stats)
	}
	// Offsets were committed through the contiguous prefix.
	for i := 0; i < 2; i++ {
		tp := stream.TopicPartition{Topic: "t", Partition: i}
		_, high, _ := c.Watermarks(tp)
		if got := c.Committed("g", tp); got != high {
			t.Errorf("partition %d committed %d, want %d", i, got, high)
		}
	}
}

func TestProxyParallelismExceedsPartitions(t *testing.T) {
	// The headline property (§4.1.3): with 1 partition and W workers, W
	// messages are in flight concurrently — impossible in the poll model.
	c := newCluster(t)
	c.CreateTopic("t", stream.TopicConfig{Partitions: 1})
	produceN(t, c, "t", 64)
	const workers = 16
	var inFlight, maxInFlight atomic.Int64
	var mu sync.Mutex
	p, err := New(c, "g", "t", Config{Workers: workers}, func(m stream.Message) error {
		cur := inFlight.Add(1)
		mu.Lock()
		if cur > maxInFlight.Load() {
			maxInFlight.Store(cur)
		}
		mu.Unlock()
		time.Sleep(5 * time.Millisecond) // slow consumer
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := p.DrainUntilIdle(200 * time.Millisecond)
	if stats.Succeeded != 64 {
		t.Fatalf("succeeded = %d, want 64", stats.Succeeded)
	}
	if maxInFlight.Load() < workers/2 {
		t.Errorf("max in-flight = %d, want >= %d (parallelism beyond 1 partition)", maxInFlight.Load(), workers/2)
	}
}

func TestProxyRetriesThenDLQ(t *testing.T) {
	c := newCluster(t)
	c.CreateTopic("t", stream.TopicConfig{Partitions: 1})
	p := stream.NewProducer(c, "svc", "", nil)
	const poisoned = 3
	for i := 0; i < poisoned; i++ {
		p.Produce("t", nil, []byte(fmt.Sprintf("poison%d", i)))
	}
	p.Produce("t", nil, []byte("fine"))

	var attempts atomic.Int64
	proxy, err := New(c, "g", "t", Config{Workers: 2, MaxRetries: 3, DLQ: true}, func(m stream.Message) error {
		if strings.Contains(string(m.Value), "poison") {
			attempts.Add(1)
			return errors.New("nope")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := proxy.DrainUntilIdle(100 * time.Millisecond)
	if stats.Succeeded != 1 || stats.DeadLettered != poisoned || stats.Dropped != 0 {
		t.Errorf("stats = %+v", stats)
	}
	if attempts.Load() != 4*poisoned { // 1 initial + 3 retries each
		t.Errorf("attempts = %d, want %d", attempts.Load(), 4*poisoned)
	}
	// The poison messages did not block the committed offset.
	if got := c.Committed("g", stream.TopicPartition{Topic: "t", Partition: 0}); got != poisoned+1 {
		t.Errorf("committed = %d, want %d", got, poisoned+1)
	}
	// Dead-lettering re-publishes the message under the proxy's identity
	// without touching the one retained in the source log.
	src, _ := c.Fetch(stream.TopicPartition{Topic: "t", Partition: 0}, 0, 1)
	if got := src[0].HeaderOr(stream.HeaderUUID, ""); got != "svc-1" {
		t.Errorf("source message uuid = %q after dead-lettering, want svc-1", got)
	}
	if _, touched := src[0].Headers[stream.HeaderRetryCount]; touched {
		t.Error("dead-lettering wrote retry-count into the source message's headers")
	}
	// Every dead letter is its own event to the §9.4 audit — one long-lived
	// producer, so the ids differ — and says how often it was given up on.
	dead, _ := c.Fetch(stream.TopicPartition{Topic: dlq.DLQTopic("t"), Partition: 0}, 0, 100)
	if len(dead) != poisoned {
		t.Fatalf("DLQ has %d messages, want %d", len(dead), poisoned)
	}
	ids := map[string]bool{}
	for _, m := range dead {
		ids[m.UUID()] = true
		if got := m.HeaderOr(stream.HeaderService, ""); got != "consumer-proxy" {
			t.Errorf("dead-lettered message service = %q, want consumer-proxy", got)
		}
		if got := m.HeaderOr(stream.HeaderRetryCount, ""); got != "1" {
			t.Errorf("dead letter %s retry-count = %q, want 1", m.UUID(), got)
		}
	}
	if len(ids) != poisoned {
		t.Errorf("%d dead letters carry %d distinct uuids: %v", poisoned, len(ids), ids)
	}
}

func TestProxyDropWithoutDLQ(t *testing.T) {
	c := newCluster(t)
	c.CreateTopic("t", stream.TopicConfig{Partitions: 1})
	produceN(t, c, "t", 3)
	p, err := New(c, "g", "t", Config{Workers: 2, MaxRetries: 1}, func(m stream.Message) error {
		return errors.New("always fails")
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := p.DrainUntilIdle(100 * time.Millisecond)
	if stats.Dropped != 3 || stats.DeadLettered != 0 {
		t.Errorf("stats = %+v, want 3 dropped", stats)
	}
}

func TestProxyStartStop(t *testing.T) {
	c := newCluster(t)
	c.CreateTopic("t", stream.TopicConfig{Partitions: 2})
	var count atomic.Int64
	p, err := New(c, "g", "t", Config{Workers: 4}, func(m stream.Message) error {
		count.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	produceN(t, c, "t", 50)
	deadline := time.Now().Add(2 * time.Second)
	for count.Load() < 50 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	p.Stop()
	if count.Load() != 50 {
		t.Errorf("processed %d before stop, want 50", count.Load())
	}
	// Stop is idempotent.
	p.Stop()
}

func TestPollingGroupBaselineCapped(t *testing.T) {
	c := newCluster(t)
	c.CreateTopic("t", stream.TopicConfig{Partitions: 2})
	produceN(t, c, "t", 40)
	var inFlight, maxInFlight atomic.Int64
	var mu sync.Mutex
	distinct := make(map[string]bool)
	processed := PollingGroup(c, "g", "t", 8, func(m stream.Message) error {
		cur := inFlight.Add(1)
		mu.Lock()
		if cur > maxInFlight.Load() {
			maxInFlight.Store(cur)
		}
		distinct[fmt.Sprintf("%d:%d", m.Partition, m.Offset)] = true
		mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
		return nil
	}, 100*time.Millisecond)
	// At-least-once: rebalances as members join/leave may redeliver, so
	// assert full coverage rather than an exact count.
	mu.Lock()
	covered := len(distinct)
	mu.Unlock()
	if covered != 40 || processed < 40 {
		t.Errorf("polling group covered %d distinct (processed %d), want 40", covered, processed)
	}
	// Despite 8 members, only 2 partitions => parallelism capped at 2.
	if maxInFlight.Load() > 2 {
		t.Errorf("polling group reached parallelism %d, expected cap at 2", maxInFlight.Load())
	}
}
