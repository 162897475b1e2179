package stream

import (
	"errors"
	"fmt"
	"hash/fnv"
	"testing"
	"time"
)

// Hash is FNV-1a (32 bit) of a string and of the same bytes: topic
// placement, keyed produce and keyBy routing hashed with hash/fnv before it.
func TestHashIsFNV1a(t *testing.T) {
	for _, key := range []string{"", "a", "orders", "city_03", "n:3", "\x00\xff\x80"} {
		h := fnv.New32a()
		h.Write([]byte(key))
		want := h.Sum32()
		if got := Hash(key); got != want {
			t.Errorf("Hash(%q) = %#x, FNV-1a gives %#x", key, got, want)
		}
		if got := Hash([]byte(key)); got != want {
			t.Errorf("Hash([]byte(%q)) = %#x, FNV-1a gives %#x", key, got, want)
		}
	}
}

func testCluster(t *testing.T, nodes int) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{Name: "test", Nodes: nodes, ReplicationInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func mustCreate(t *testing.T, c *Cluster, topic string, cfg TopicConfig) {
	t.Helper()
	if err := c.CreateTopic(topic, cfg); err != nil {
		t.Fatal(err)
	}
}

func produceN(t *testing.T, c *Cluster, topic string, n int, keyed bool) {
	t.Helper()
	p := NewProducer(c, "test-svc", "", nil)
	for i := 0; i < n; i++ {
		var key []byte
		if keyed {
			key = []byte(fmt.Sprintf("key-%d", i))
		}
		if err := p.Produce(topic, key, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCreateTopicValidation(t *testing.T) {
	c := testCluster(t, 3)
	if err := c.CreateTopic("t", TopicConfig{Partitions: 0}); err == nil {
		t.Error("0 partitions should fail")
	}
	if err := c.CreateTopic("t", TopicConfig{Partitions: 1, ReplicationFactor: 5}); err == nil {
		t.Error("RF > nodes should fail")
	}
	mustCreate(t, c, "t", TopicConfig{Partitions: 2})
	if err := c.CreateTopic("t", TopicConfig{Partitions: 2}); !errors.Is(err, ErrTopicExists) {
		t.Errorf("duplicate create = %v", err)
	}
	if !c.HasTopic("t") || c.HasTopic("nope") {
		t.Error("HasTopic wrong")
	}
	if n, _ := c.Partitions("t"); n != 2 {
		t.Errorf("Partitions = %d", n)
	}
	if _, err := c.Partitions("nope"); !errors.Is(err, ErrTopicNotFound) {
		t.Errorf("Partitions(nope) = %v", err)
	}
	if err := c.DeleteTopic("t"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteTopic("t"); !errors.Is(err, ErrTopicNotFound) {
		t.Errorf("double delete = %v", err)
	}
}

func TestProduceFetchOrdering(t *testing.T) {
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 1})
	produceN(t, c, "t", 100, false)
	tp := TopicPartition{Topic: "t", Partition: 0}
	msgs, err := c.Fetch(tp, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 100 {
		t.Fatalf("fetched %d, want 100", len(msgs))
	}
	for i, m := range msgs {
		if m.Offset != int64(i) {
			t.Fatalf("offset[%d] = %d", i, m.Offset)
		}
		if string(m.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("value[%d] = %q", i, m.Value)
		}
		if m.Service != "test-svc" || m.HeaderOr(HeaderUUID, "") != fmt.Sprintf("test-svc-%d", i+1) {
			t.Fatal("audit metadata missing")
		}
	}
	// Partial fetch with max.
	part, _ := c.Fetch(tp, 10, 5)
	if len(part) != 5 || part[0].Offset != 10 {
		t.Errorf("partial fetch = %d msgs from %d", len(part), part[0].Offset)
	}
	// Fetch at high watermark is empty, beyond it errors.
	if m, err := c.Fetch(tp, 100, 10); err != nil || len(m) != 0 {
		t.Errorf("fetch at HW = %v, %v", m, err)
	}
	if _, err := c.Fetch(tp, 101, 10); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Errorf("fetch beyond HW = %v", err)
	}
}

func TestKeyedPartitioningIsStable(t *testing.T) {
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 4})
	p := NewProducer(c, "svc", "", nil)
	for i := 0; i < 50; i++ {
		if err := p.Produce("t", []byte("same-key"), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// All messages with one key must land in one partition, in order.
	nonEmpty := 0
	for i := 0; i < 4; i++ {
		msgs, _ := c.Fetch(TopicPartition{Topic: "t", Partition: i}, 0, 100)
		if len(msgs) > 0 {
			nonEmpty++
			if len(msgs) != 50 {
				t.Errorf("partition %d has %d, want all 50", i, len(msgs))
			}
		}
	}
	if nonEmpty != 1 {
		t.Errorf("key spread over %d partitions", nonEmpty)
	}
}

// A produced batch is split by partition in one allocation, each share in
// the batch's order and every message in exactly one share.
func TestBucketByPartitionKeepsOrder(t *testing.T) {
	msgs := make([]Message, 300)
	for i := range msgs {
		if i%3 == 0 {
			msgs[i].Key = []byte(fmt.Sprintf("k%d", i%17))
		}
	}
	const n = 5
	picks, ends := bucketByPartition(msgs, n, 7)
	seen := make([]bool, len(msgs))
	from := int32(0)
	for pi, end := range ends {
		for j, i := range picks[from:end] {
			want := int((7 + int64(i)) % n)
			if key := msgs[i].Key; len(key) > 0 {
				want = int(Hash(key) % n)
			}
			if want != pi || seen[i] || j > 0 && i <= picks[from+int32(j)-1] {
				t.Fatalf("partition %d's share %v: message %d misplaced, repeated or out of order", pi, picks[from:end], i)
			}
			seen[i] = true
		}
		from = end
	}
	if int(from) != len(msgs) {
		t.Fatalf("the shares hold %d of %d messages", from, len(msgs))
	}
	if a := testing.AllocsPerRun(20, func() { bucketByPartition(msgs, n, 7) }); a != 1 {
		t.Errorf("bucketByPartition allocates %v times per batch, want 1", a)
	}
}

func TestRoundRobinSpreads(t *testing.T) {
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 4})
	produceN(t, c, "t", 200, false)
	for i := 0; i < 4; i++ {
		_, high, _ := c.Watermarks(TopicPartition{Topic: "t", Partition: i})
		if high < 30 || high > 70 {
			t.Errorf("partition %d got %d messages, want ~50", i, high)
		}
	}
}

func TestRetentionByBytes(t *testing.T) {
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 1, SegmentBytes: 500, RetentionBytes: 1500})
	p := NewProducer(c, "svc", "", nil)
	for i := 0; i < 100; i++ {
		if err := p.Produce("t", nil, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	tp := TopicPartition{Topic: "t", Partition: 0}
	low, high, _ := c.Watermarks(tp)
	if low == 0 {
		t.Error("retention should have advanced the low watermark")
	}
	if high != 100 {
		t.Errorf("high = %d, want 100", high)
	}
	// Reading below the low watermark errors (data gone).
	if _, err := c.Fetch(tp, 0, 10); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Errorf("fetch below LW = %v", err)
	}
	// Reading from the low watermark works.
	if msgs, err := c.Fetch(tp, low, 10); err != nil || len(msgs) == 0 {
		t.Errorf("fetch at LW = %d msgs, %v", len(msgs), err)
	}
}

func TestRetentionByTime(t *testing.T) {
	now := time.UnixMilli(1700000000000)
	clock := func() time.Time { return now }
	c, err := NewCluster(ClusterConfig{Name: "t", Nodes: 1, Clock: clock, ReplicationInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustCreate(t, c, "t", TopicConfig{Partitions: 1, SegmentBytes: 200, RetentionTime: time.Hour})
	p := NewProducer(c, "svc", "", clock)
	for i := 0; i < 10; i++ {
		if err := p.Produce("t", nil, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	// Advance time past retention and trigger enforcement with one append.
	now = now.Add(2 * time.Hour)
	if err := p.Produce("t", nil, []byte("new")); err != nil {
		t.Fatal(err)
	}
	low, _, _ := c.Watermarks(TopicPartition{Topic: "t", Partition: 0})
	if low == 0 {
		t.Error("time retention should have dropped old segments")
	}
}

func TestClusterOutage(t *testing.T) {
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 1})
	c.SetDown(true)
	p := NewProducer(c, "svc", "", nil)
	if err := p.Produce("t", nil, []byte("x")); !errors.Is(err, ErrClusterUnavailable) {
		t.Errorf("produce during outage = %v", err)
	}
	if _, err := c.Fetch(TopicPartition{Topic: "t", Partition: 0}, 0, 1); !errors.Is(err, ErrClusterUnavailable) {
		t.Errorf("fetch during outage = %v", err)
	}
	if err := c.CreateTopic("t2", TopicConfig{Partitions: 1}); !errors.Is(err, ErrClusterUnavailable) {
		t.Errorf("create during outage = %v", err)
	}
	c.SetDown(false)
	if err := p.Produce("t", nil, []byte("x")); err != nil {
		t.Errorf("produce after recovery = %v", err)
	}
}

func TestAckLeaderLosesUnreplicatedOnNodeFailure(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Name: "t", Nodes: 3, ReplicationInterval: time.Hour}) // pump never fires
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustCreate(t, c, "fast", TopicConfig{Partitions: 1, ReplicationFactor: 2, Acks: AckLeader})
	p := NewProducer(c, "svc", "", nil)
	for i := 0; i < 20; i++ {
		if err := p.Produce("fast", nil, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	stats := c.PartitionStats()
	leader := stats[0]["leader"].(int)
	if err := c.FailNode(leader); err != nil {
		t.Fatal(err)
	}
	if lost := c.LostMessages(); lost != 20 {
		t.Errorf("lost %d, want all 20 unreplicated", lost)
	}
	// Failover to the replica keeps the partition online (empty, but writable).
	if err := p.Produce("fast", nil, []byte("after")); err != nil {
		t.Errorf("produce after failover = %v", err)
	}
}

func TestAckAllLosesNothingOnNodeFailure(t *testing.T) {
	c := testCluster(t, 3)
	mustCreate(t, c, "lossless", TopicConfig{Partitions: 1, ReplicationFactor: 3, Acks: AckAll})
	p := NewProducer(c, "svc", "", nil)
	for i := 0; i < 20; i++ {
		if err := p.Produce("lossless", nil, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	stats := c.PartitionStats()
	leader := stats[0]["leader"].(int)
	if err := c.FailNode(leader); err != nil {
		t.Fatal(err)
	}
	if lost := c.LostMessages(); lost != 0 {
		t.Errorf("AckAll lost %d messages", lost)
	}
	msgs, err := c.Fetch(TopicPartition{Topic: "lossless", Partition: 0}, 0, 100)
	if err != nil || len(msgs) != 20 {
		t.Errorf("post-failover fetch = %d msgs, %v", len(msgs), err)
	}
}

func TestPartitionOfflineAndRecovery(t *testing.T) {
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 1, ReplicationFactor: 1, Acks: AckAll})
	produceN(t, c, "t", 5, false)
	if err := c.FailNode(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fetch(TopicPartition{Topic: "t", Partition: 0}, 0, 10); !errors.Is(err, ErrPartitionOffline) {
		t.Errorf("fetch on offline partition = %v", err)
	}
	if err := c.RecoverNode(0); err != nil {
		t.Fatal(err)
	}
	msgs, err := c.Fetch(TopicPartition{Topic: "t", Partition: 0}, 0, 10)
	if err != nil || len(msgs) != 5 {
		t.Errorf("post-recovery fetch = %d, %v", len(msgs), err)
	}
	// AckAll data survived the outage.
	if c.LostMessages() != 0 {
		t.Errorf("lossless topic lost %d", c.LostMessages())
	}
}

func TestFailNodeValidation(t *testing.T) {
	c := testCluster(t, 2)
	if err := c.FailNode(5); err == nil {
		t.Error("failing unknown node should error")
	}
	if err := c.RecoverNode(-1); err == nil {
		t.Error("recovering unknown node should error")
	}
	if err := c.FailNode(0); err != nil {
		t.Fatal(err)
	}
	if err := c.FailNode(0); err != nil {
		t.Error("double-failing a node should be a no-op")
	}
}

func TestAsyncReplicationCatchesUp(t *testing.T) {
	c := testCluster(t, 2)
	mustCreate(t, c, "t", TopicConfig{Partitions: 1, ReplicationFactor: 2, Acks: AckLeader})
	produceN(t, c, "t", 10, false)
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		stats := c.PartitionStats()
		if stats[0]["replicated"].(int64) == int64(10) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Error("replication pump never caught up")
}

func TestProduceToMissingTopic(t *testing.T) {
	c := testCluster(t, 1)
	p := NewProducer(c, "svc", "", nil)
	if err := p.Produce("ghost", nil, []byte("x")); !errors.Is(err, ErrTopicNotFound) {
		t.Errorf("produce to missing topic = %v", err)
	}
}

func TestTopicsSorted(t *testing.T) {
	c := testCluster(t, 1)
	for _, name := range []string{"zeta", "alpha", "mid"} {
		mustCreate(t, c, name, TopicConfig{Partitions: 1})
	}
	got := c.Topics()
	if len(got) != 3 || got[0] != "alpha" || got[2] != "zeta" {
		t.Errorf("Topics = %v", got)
	}
}

// nopTarget acknowledges everything; it isolates what the Producer itself
// does to a batch.
type nopTarget struct{}

func (nopTarget) Produce(string, []Message, int64) error { return nil }

// Stamping the audit metadata allocates nothing: no map, no formatted uuid
// or timestamp string, whatever the batch size.
func TestProduceBatchStampsWithoutAllocating(t *testing.T) {
	p := NewProducer(nopTarget{}, "svc", "", nil)
	msgs := make([]Message, 100)
	extras := map[string]string{HeaderRetryCount: "2"}
	for i := range msgs {
		msgs[i] = Message{Value: []byte("v"), Headers: extras}
	}
	if n := testing.AllocsPerRun(50, func() { _ = p.ProduceBatch("t", msgs) }); n != 0 {
		t.Errorf("ProduceBatch allocates %v times per 100-message batch, want 0", n)
	}
	if len(extras) != 1 {
		t.Errorf("producer wrote into the caller's Headers map: %v", extras)
	}
	last := msgs[len(msgs)-1]
	if last.Service != "svc" || last.Tier != "prod" || last.AppTime == 0 || last.UUID() != fmt.Sprintf("svc-%d", last.Seq) {
		t.Errorf("audit fields = %+v", last)
	}
	if last.HeaderOr(HeaderRetryCount, "") != "2" || last.HeaderOr(HeaderTier, "") != "prod" || last.HeaderOr("absent", "def") != "def" {
		t.Error("HeaderOr does not answer from both the fields and the map")
	}
}

// Byte retention charges the audit fields what they cost as four map
// entries, so a partition holds as many messages as before they moved out
// of the map.
func TestSizeBytesChargesAuditFieldsAsHeaders(t *testing.T) {
	asHeaders := func(m Message) int64 {
		n := int64(len(m.Key) + len(m.Value) + 32)
		for _, k := range []string{HeaderUUID, HeaderAppTime, HeaderService, HeaderTier, HeaderRetryCount} {
			if v := m.HeaderOr(k, ""); v != "" {
				n += int64(len(k) + len(v) + 8)
			}
		}
		return n
	}
	for _, m := range []Message{
		{Value: make([]byte, 40)},
		{Key: []byte("k"), Value: make([]byte, 40), Service: "bench-producer", Tier: "prod", Seq: 1, AppTime: 1700000000000},
		{Value: make([]byte, 7), Service: "s", Tier: "staging", Seq: 99999, AppTime: 9},
		{Value: []byte("v"), Service: "s", Tier: "t", Seq: 10, AppTime: -15, Headers: map[string]string{HeaderRetryCount: "3"}},
		{Value: []byte("v"), Headers: map[string]string{HeaderUUID: "hand-built", HeaderAppTime: "12"}},
	} {
		if got, want := m.sizeBytes(), asHeaders(m); got != want {
			t.Errorf("sizeBytes(%+v) = %d, want %d", m, got, want)
		}
	}
	// The benchmark's message: 46-byte payload, no key, bench-producer/prod.
	m := Message{Value: make([]byte, 46), Service: "bench-producer", Tier: "prod", Seq: 123456, AppTime: 1700000000000}
	if got := m.sizeBytes(); got != 46+32+(4+21+8)+(6+13+8)+(7+14+8)+(4+4+8) {
		t.Errorf("sizeBytes = %d", got)
	}
}

// A fetch sizes its result once.
func TestFetchAllocatesOnce(t *testing.T) {
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 1, SegmentBytes: 2000})
	produceN(t, c, "t", 500, false) // spans many segments
	tp := TopicPartition{Topic: "t", Partition: 0}
	if n := testing.AllocsPerRun(20, func() {
		if msgs, err := c.Fetch(tp, 100, 128); err != nil || len(msgs) != 128 || msgs[127].Offset != 227 {
			t.Fatalf("fetch = %d msgs, %v", len(msgs), err)
		}
	}); n > 1 {
		t.Errorf("Fetch(…, 128) allocates %v times, want 1", n)
	}
}
