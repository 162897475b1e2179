package stream

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

func TestConsumerGroupBasicConsume(t *testing.T) {
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 2})
	produceN(t, c, "t", 50, false)

	consumer := c.NewConsumer("g1", "t")
	defer consumer.Close()
	var got []Message
	for len(got) < 50 {
		msgs := consumer.Poll(time.Second, 10)
		if len(msgs) == 0 {
			t.Fatalf("stalled after %d messages", len(got))
		}
		got = append(got, msgs...)
	}
	if len(got) != 50 {
		t.Fatalf("consumed %d, want 50", len(got))
	}
	// Per-partition order is preserved.
	lastOffset := map[int]int64{0: -1, 1: -1}
	for _, m := range got {
		if m.Offset <= lastOffset[m.Partition] {
			t.Fatalf("out of order in partition %d: %d after %d", m.Partition, m.Offset, lastOffset[m.Partition])
		}
		lastOffset[m.Partition] = m.Offset
	}
}

func TestConsumerGroupSplitsPartitions(t *testing.T) {
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 4})
	c1 := c.NewConsumer("g", "t")
	defer c1.Close()
	c2 := c.NewConsumer("g", "t")
	defer c2.Close()
	a1, a2 := c1.Assignment(), c2.Assignment()
	if len(a1) != 2 || len(a2) != 2 {
		t.Fatalf("assignments = %v / %v, want 2+2", a1, a2)
	}
	seen := map[TopicPartition]bool{}
	for _, tp := range append(a1, a2...) {
		if seen[tp] {
			t.Fatalf("partition %v assigned twice", tp)
		}
		seen[tp] = true
	}
}

func TestConsumerGroupCapAtPartitionCount(t *testing.T) {
	// The open-source consumer-group parallelism cap (§4.1.3): members
	// beyond the partition count receive no assignment.
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 2})
	var consumers []*Consumer
	for i := 0; i < 5; i++ {
		consumers = append(consumers, c.NewConsumer("g", "t"))
	}
	defer func() {
		for _, cc := range consumers {
			cc.Close()
		}
	}()
	withWork := 0
	for _, cc := range consumers {
		if len(cc.Assignment()) > 0 {
			withWork++
		}
	}
	if withWork != 2 {
		t.Errorf("%d members have assignments, want exactly 2 (partition cap)", withWork)
	}
}

func TestRebalanceOnLeave(t *testing.T) {
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 4})
	c1 := c.NewConsumer("g", "t")
	c2 := c.NewConsumer("g", "t")
	if len(c1.Assignment()) != 2 {
		t.Fatalf("c1 pre-leave = %v", c1.Assignment())
	}
	c2.Close()
	if got := c1.Assignment(); len(got) != 4 {
		t.Errorf("after leave c1 has %v, want all 4", got)
	}
	c1.Close()
}

func TestCommitAndResume(t *testing.T) {
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 1})
	produceN(t, c, "t", 30, false)

	c1 := c.NewConsumer("g", "t")
	first := c1.Poll(time.Second, 10)
	if len(first) != 10 {
		t.Fatalf("first poll = %d", len(first))
	}
	c1.Commit()
	c1.Close()

	// A new member of the same group resumes from the committed offset.
	c2 := c.NewConsumer("g", "t")
	defer c2.Close()
	second := c2.Poll(time.Second, 10)
	if len(second) == 0 || second[0].Offset != 10 {
		t.Errorf("resume offset = %d, want 10", second[0].Offset)
	}
}

func TestResetPolicyLatest(t *testing.T) {
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 1})
	produceN(t, c, "t", 10, false)
	consumer := c.NewConsumer("fresh", "t")
	defer consumer.Close()
	consumer.SetResetPolicy(ResetLatest)
	if msgs := consumer.Poll(20*time.Millisecond, 100); len(msgs) != 0 {
		t.Fatalf("latest-reset consumer saw %d old messages", len(msgs))
	}
	produceN(t, c, "t", 3, false)
	msgs := consumer.Poll(time.Second, 100)
	if len(msgs) != 3 || msgs[0].Offset != 10 {
		t.Errorf("latest-reset consumer = %d msgs from %d", len(msgs), msgs[0].Offset)
	}
}

func TestSeekAndPosition(t *testing.T) {
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 1})
	produceN(t, c, "t", 20, false)
	consumer := c.NewConsumer("g", "t")
	defer consumer.Close()
	tp := TopicPartition{Topic: "t", Partition: 0}
	consumer.Seek(tp, 15)
	if pos := consumer.Position(tp); pos != 15 {
		t.Fatalf("Position = %d", pos)
	}
	msgs := consumer.Poll(time.Second, 100)
	if len(msgs) != 5 || msgs[0].Offset != 15 {
		t.Errorf("after seek: %d msgs from %d", len(msgs), msgs[0].Offset)
	}
}

func TestLagTracking(t *testing.T) {
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 2})
	consumer := c.NewConsumer("g", "t")
	defer consumer.Close()
	if lag := consumer.Lag(); lag != 0 {
		t.Fatalf("initial lag = %d", lag)
	}
	produceN(t, c, "t", 40, false)
	if lag := consumer.Lag(); lag != 40 {
		t.Fatalf("lag = %d, want 40", lag)
	}
	for consumed := 0; consumed < 40; {
		consumed += len(consumer.Poll(time.Second, 10))
	}
	if lag := consumer.Lag(); lag != 0 {
		t.Errorf("drained lag = %d", lag)
	}
	consumer.Commit()
	if lag := c.GroupLag("g", "t"); lag != 0 {
		t.Errorf("group lag = %d", lag)
	}
}

func TestGroupLagAndManualCommit(t *testing.T) {
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 1})
	produceN(t, c, "t", 25, false)
	tp := TopicPartition{Topic: "t", Partition: 0}
	if lag := c.GroupLag("g", "t"); lag != 25 {
		t.Fatalf("uncommitted group lag = %d", lag)
	}
	c.CommitGroupOffset("g", tp, 20)
	if got := c.Committed("g", tp); got != 20 {
		t.Fatalf("Committed = %d", got)
	}
	if lag := c.GroupLag("g", "t"); lag != 5 {
		t.Errorf("lag after manual commit = %d, want 5", lag)
	}
}

func TestConsumerSkipsAheadAfterRetention(t *testing.T) {
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 1, SegmentBytes: 300, RetentionBytes: 600})
	consumer := c.NewConsumer("g", "t")
	defer consumer.Close()
	_ = consumer.Assignment() // pin position 0 before retention kicks in

	p := NewProducer(c, "svc", "", nil)
	for i := 0; i < 50; i++ {
		if err := p.Produce("t", nil, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	// Position 0 is now below the low watermark; Poll must skip ahead
	// rather than stall forever.
	msgs := consumer.Poll(time.Second, 10)
	if len(msgs) == 0 {
		t.Fatal("consumer stalled at retained-away offset")
	}
	low, _, _ := c.Watermarks(TopicPartition{Topic: "t", Partition: 0})
	if msgs[0].Offset < low {
		t.Errorf("consumer read below low watermark")
	}
}

func TestConcurrentProducersAndGroupConsumers(t *testing.T) {
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 4})
	const total = 400
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			p := NewProducer(c, fmt.Sprintf("svc-%d", w), "", nil)
			for i := 0; i < total/4; i++ {
				if err := p.Produce("t", []byte(fmt.Sprintf("k-%d-%d", w, i)), []byte("v")); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	// Consumer-group semantics are at-least-once: a rebalance (here, one
	// member finishing and leaving) redelivers uncommitted messages. Assert
	// full coverage, not an exact count.
	c1 := c.NewConsumer("g", "t")
	c2 := c.NewConsumer("g", "t")
	results := make(chan map[TopicPartition]map[int64]bool, 2)
	for _, consumer := range []*Consumer{c1, c2} {
		go func(consumer *Consumer) {
			seen := make(map[TopicPartition]map[int64]bool)
			for {
				msgs := consumer.Poll(200*time.Millisecond, 50)
				if len(msgs) == 0 {
					break
				}
				for _, m := range msgs {
					tp := TopicPartition{Topic: m.Topic, Partition: m.Partition}
					if seen[tp] == nil {
						seen[tp] = make(map[int64]bool)
					}
					seen[tp][m.Offset] = true
				}
				consumer.Commit()
			}
			consumer.Commit()
			consumer.Close()
			results <- seen
		}(consumer)
	}
	covered := 0
	merged := make(map[TopicPartition]map[int64]bool)
	for i := 0; i < 2; i++ {
		for tp, offs := range <-results {
			if merged[tp] == nil {
				merged[tp] = make(map[int64]bool)
			}
			for o := range offs {
				if !merged[tp][o] {
					merged[tp][o] = true
					covered++
				}
			}
		}
	}
	if covered != total {
		t.Errorf("group covered %d distinct messages, want %d", covered, total)
	}
}

// A poll on an idle topic parks once, for its whole wait, and returns at the
// deadline without leaving anything behind; data arriving meanwhile ends it
// early.
func TestPollParksUntilDeadlineOrData(t *testing.T) {
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 2})
	mustCreate(t, c, "u", TopicConfig{Partitions: 1})
	k := c.NewConsumer("g", "t", "u")
	defer k.Close()
	before := runtime.NumGoroutine()

	start := time.Now()
	if msgs := k.Poll(50*time.Millisecond, 10); len(msgs) != 0 {
		t.Fatalf("idle poll returned %d messages", len(msgs))
	}
	if d := time.Since(start); d < 40*time.Millisecond || d > time.Second {
		t.Errorf("idle Poll(50ms) took %v", d)
	}

	produced := make(chan struct{})
	go func() {
		defer close(produced)
		time.Sleep(20 * time.Millisecond)
		NewProducer(c, "svc", "", nil).Produce("u", nil, []byte("late"))
	}()
	start = time.Now()
	msgs := k.Poll(5*time.Second, 10)
	if len(msgs) != 1 || msgs[0].Topic != "u" {
		t.Fatalf("poll = %v", msgs)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Poll took %v to see an append to its second topic", d)
	}
	for _, topic := range []string{"t", "u"} {
		n, _ := c.Partitions(topic)
		for i := 0; i < n; i++ {
			p, _ := c.partition(topic, i)
			p.mu.Lock()
			if len(p.waiters) != 0 {
				t.Errorf("%s[%d] still holds %d waiters", topic, i, len(p.waiters))
			}
			p.mu.Unlock()
		}
	}
	<-produced
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before polling, %d after", before, runtime.NumGoroutine())
		}
	}
}
