package stream

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

func mustReader(t *testing.T, c *Cluster, reset ResetPolicy, topic string, parts int) *Reader {
	t.Helper()
	tps := make([]TopicPartition, parts)
	for i := range tps {
		tps[i] = TopicPartition{Topic: topic, Partition: i}
	}
	r, err := c.NewReader(reset, tps...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// parkedReader starts r.Wait on its own goroutine and returns a channel
// carrying its result, after the waiter has registered with partition 0.
func parkedReader(t *testing.T, c *Cluster, r *Reader, maxWait time.Duration) <-chan bool {
	t.Helper()
	done := make(chan bool, 1)
	go func() { done <- r.Wait(maxWait) }()
	c.mu.RLock()
	p := c.partitionLocked(r.at[0].TopicPartition)
	c.mu.RUnlock()
	for deadline := time.Now().Add(2 * time.Second); ; {
		p.mu.Lock()
		n := len(p.waiters)
		p.mu.Unlock()
		if n > 0 {
			return done
		}
		if time.Now().After(deadline) {
			t.Fatal("Reader.Wait never parked")
		}
		runtime.Gosched()
	}
}

// drain reads partition 0 to its end the way every client does: fetch, then
// seek past what was taken.
func drain(t *testing.T, r *Reader) []Message {
	t.Helper()
	var out []Message
	for {
		msgs, err := r.Fetch(0, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) == 0 {
			return out
		}
		r.Seek(0, msgs[len(msgs)-1].Offset+1)
		out = append(out, msgs...)
	}
}

func produceValues(t *testing.T, c *Cluster, topic, prefix string, n int) {
	t.Helper()
	p := NewProducer(c, "svc", "", nil)
	for i := 0; i < n; i++ {
		if err := p.Produce(topic, nil, []byte(fmt.Sprintf("%s%d", prefix, i))); err != nil {
			t.Fatal(err)
		}
	}
}

// lossyCluster has one AckLeader partition whose replication pump never
// fires: failing the leader cuts the log back to offset 0.
func lossyCluster(t *testing.T) (c *Cluster, failLeader func()) {
	t.Helper()
	c, err := NewCluster(ClusterConfig{Name: "t", Nodes: 3, ReplicationInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	mustCreate(t, c, "fast", TopicConfig{Partitions: 1, ReplicationFactor: 2, Acks: AckLeader})
	return c, func() {
		t.Helper()
		if err := c.FailNode(c.PartitionStats()[0]["leader"].(int)); err != nil {
			t.Fatal(err)
		}
	}
}

// wantValues checks that msgs are exactly prefix0 … prefix(n-1), in order.
func wantValues(t *testing.T, who string, msgs []Message, prefix string, n int) {
	t.Helper()
	if len(msgs) != n {
		t.Fatalf("%s read %d messages, want %d", who, len(msgs), n)
	}
	for i, m := range msgs {
		if want := fmt.Sprintf("%s%d", prefix, i); string(m.Value) != want {
			t.Fatalf("%s message %d = %q at offset %d, want %q", who, i, m.Value, m.Offset, want)
		}
	}
}

// A leader failure cuts an AckLeader log and producers carry on from the
// cut, so new messages get offsets the reader has already passed. The
// reader must come back to the cut — when it looks while the log is still
// shorter than its position, and when the log has regrown past its position
// before it looks, which no range check can see — and say that it did.
func TestReaderRewindsToTheCutAfterTruncation(t *testing.T) {
	for _, regrowPast := range []bool{false, true} {
		c, failLeader := lossyCluster(t)
		r := mustReader(t, c, ResetEarliest, "fast", 1)
		k := c.NewConsumer("g", "fast")
		defer k.Close()
		produceValues(t, c, "fast", "a", 20)
		wantValues(t, "reader", drain(t, r), "a", 20)
		wantValues(t, "consumer", k.Poll(time.Second, 100), "a", 20)

		failLeader()
		var after []Message
		if !regrowPast {
			produceValues(t, c, "fast", "b", 5) // high 5 < position 20
			after = drain(t, r)
			produceValues(t, c, "fast", "b5-", 25)
			after = append(after, drain(t, r)...)
			wantValues(t, "reader", after[:5], "b", 5)
			wantValues(t, "reader", after[5:], "b5-", 25)
		} else {
			produceValues(t, c, "fast", "b", 30) // high 30 > position 20
			wantValues(t, "reader", drain(t, r), "b", 30)
		}
		if n := r.Repairs(); n != 1 {
			t.Errorf("regrowPast=%v: reader counted %d repairs, want 1", regrowPast, n)
		}
		if lag := r.Lag(); lag != 0 {
			t.Errorf("regrowPast=%v: lag %d after reading to the end", regrowPast, lag)
		}

		// A member joins and leaves before the consumer looks: it keeps the
		// partition through two rebalances, and the epoch it read under.
		c.NewConsumer("g", "fast").Close()
		var polled []Message
		for len(polled) < 30 {
			msgs := k.Poll(time.Second, 100)
			if len(msgs) == 0 {
				break
			}
			polled = append(polled, msgs...)
		}
		if len(polled) != 30 || polled[0].Offset != 0 {
			t.Errorf("regrowPast=%v: consumer polled %d messages after the cut, want the 30 new ones from offset 0", regrowPast, len(polled))
		}
		if n := k.reader.Repairs(); n != 1 {
			t.Errorf("regrowPast=%v: consumer's reader counted %d repairs, want 1", regrowPast, n)
		}
	}
}

// Two cuts between two looks: the later cut is above the reader's position,
// the earlier one below it. The position is taken back to the lowest.
func TestReaderRewindsAcrossSeveralCuts(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Name: "t", Nodes: 3, ReplicationInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustCreate(t, c, "fast", TopicConfig{Partitions: 1, ReplicationFactor: 3, Acks: AckLeader})
	p, _ := c.partition("fast", 0)
	r := mustReader(t, c, ResetEarliest, "fast", 1)
	produceValues(t, c, "fast", "a", 20)
	p.advanceReplication() // 20 messages are safe
	produceValues(t, c, "fast", "a2-", 10)
	if got := drain(t, r); len(got) != 30 {
		t.Fatalf("read %d, want 30", len(got))
	}
	leader := func() int { return c.PartitionStats()[0]["leader"].(int) }
	if err := c.FailNode(leader()); err != nil { // cut at 20
		t.Fatal(err)
	}
	produceValues(t, c, "fast", "b", 25) // 20..44
	p.advanceReplication()
	produceValues(t, c, "fast", "b2-", 5)        // 45..49
	if err := c.FailNode(leader()); err != nil { // cut at 45, above the reader's 30
		t.Fatal(err)
	}
	got := drain(t, r)
	wantValues(t, "reader", got, "b", 25)
	if got[0].Offset != 20 || r.Repairs() != 1 {
		t.Errorf("resumed at offset %d with %d repairs, want 20 and 1", got[0].Offset, r.Repairs())
	}
}

// Retention moved past the position: the reader resumes at the low
// watermark (what TestConsumerSkipsAheadAfterRetention sees through Poll).
func TestReaderSkipsAheadAfterRetention(t *testing.T) {
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 1, SegmentBytes: 300, RetentionBytes: 600})
	r := mustReader(t, c, ResetEarliest, "t", 1)
	p := NewProducer(c, "svc", "", nil)
	for i := 0; i < 50; i++ {
		if err := p.Produce("t", nil, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	low, high, _ := c.Watermarks(TopicPartition{Topic: "t", Partition: 0})
	if low == 0 {
		t.Fatal("retention never ran")
	}
	if !r.Wait(0) {
		t.Error("a position below the low watermark must not park")
	}
	got := drain(t, r)
	if len(got) == 0 || got[0].Offset != low || int64(len(got)) != high-low {
		t.Fatalf("read %d messages from %d, want %d from %d", len(got), got[0].Offset, high-low, low)
	}
	if r.Repairs() != 1 {
		t.Errorf("repairs = %d, want 1", r.Repairs())
	}
}

// A position beyond a log that was never cut under the reader — a restored
// checkpoint of a topic that was deleted and created again — resumes at the
// high watermark.
func TestReaderBeyondTheLogResumesAtHigh(t *testing.T) {
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 1})
	produceN(t, c, "t", 5, false)
	r := mustReader(t, c, ResetEarliest, "t", 1)
	r.Seek(0, 40)
	if got := drain(t, r); len(got) != 0 {
		t.Fatalf("read %d messages from beyond the log", len(got))
	}
	produceN(t, c, "t", 3, false)
	if got := drain(t, r); len(got) != 3 || got[0].Offset != 5 {
		t.Fatalf("read %d messages, want the 3 appended after the repair", len(got))
	}
	if r.Repairs() != 1 {
		t.Errorf("repairs = %d, want 1", r.Repairs())
	}
}

func TestReaderParksThroughOfflineAndResumes(t *testing.T) {
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 1, Acks: AckAll})
	produceN(t, c, "t", 5, false)
	r := mustReader(t, c, ResetEarliest, "t", 1)
	if err := c.FailNode(0); err != nil { // RF 1: offline
		t.Fatal(err)
	}
	if _, err := r.Fetch(0, 10); err == nil {
		t.Fatal("fetch on an offline partition succeeded")
	}
	// Unread data, but not fetchable: the reader parks instead of spinning.
	done := parkedReader(t, c, r, time.Minute)
	if err := c.RecoverNode(0); err != nil {
		t.Fatal(err)
	}
	wantWake(t, done, "RecoverNode")
	if got := drain(t, r); len(got) != 5 {
		t.Errorf("read %d after recovery, want 5", len(got))
	}
	if r.Repairs() != 0 {
		t.Errorf("an outage is not a repair: %d", r.Repairs())
	}
}

func TestReaderWokenByDeleteTopicAndClose(t *testing.T) {
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 1})
	mustCreate(t, c, "u", TopicConfig{Partitions: 1})
	rt := mustReader(t, c, ResetEarliest, "t", 1)
	ru := mustReader(t, c, ResetEarliest, "u", 1)

	done := parkedReader(t, c, rt, time.Minute)
	if err := c.DeleteTopic("t"); err != nil {
		t.Fatal(err)
	}
	wantWake(t, done, "DeleteTopic")
	if _, err := rt.Fetch(0, 10); err == nil {
		t.Error("fetch from a deleted topic succeeded")
	}

	done = parkedReader(t, c, ru, time.Minute)
	c.Close()
	wantWake(t, done, "Close")
}

func TestReaderOffsetsSeekRoundTrip(t *testing.T) {
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 3})
	produceN(t, c, "t", 30, false) // 10 per partition
	r := mustReader(t, c, ResetEarliest, "t", 3)
	for _, read := range []struct{ part, n int }{{0, 3}, {2, 10}} { // partition 1 stays unread
		msgs, _ := r.Fetch(read.part, read.n)
		r.Seek(read.part, msgs[len(msgs)-1].Offset+1)
	}
	saved := r.Offsets()
	if fmt.Sprint(saved) != "[3 0 10]" || r.Lag() != 17 {
		t.Fatalf("offsets %v lag %d, want [3 0 10] and 17", saved, r.Lag())
	}
	latest := mustReader(t, c, ResetLatest, "t", 3)
	if fmt.Sprint(latest.Offsets()) != "[10 10 10]" || latest.Lag() != 0 {
		t.Fatalf("ResetLatest starts at %v", latest.Offsets())
	}
	for i, off := range saved {
		latest.Seek(i, off)
	}
	if fmt.Sprint(latest.Offsets()) != fmt.Sprint(saved) || latest.Lag() != 17 {
		t.Errorf("restored %v lag %d, want %v and 17", latest.Offsets(), latest.Lag(), saved)
	}
	if msgs, _ := latest.Fetch(0, 100); len(msgs) != 7 || msgs[0].Offset != 3 {
		t.Errorf("restored reader fetched %d messages, want 7 from offset 3", len(msgs))
	}
}

// Lag, Offsets and Repairs answer from another goroutine while the owner is
// parked: they take nothing the owner holds in Wait.
func TestReaderLagWhileOwnerIsParked(t *testing.T) {
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 2})
	r := mustReader(t, c, ResetEarliest, "t", 2)
	done := parkedReader(t, c, r, time.Second)
	start := time.Now()
	if r.Lag() != 0 || len(r.Offsets()) != 2 || r.Repairs() != 0 {
		t.Error("an idle reader reports a backlog")
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("Lag took %v behind a parked owner", d)
	}
	select {
	case <-done:
		t.Error("the owner was not parked while Lag was asked")
	default:
	}
	if <-done {
		t.Error("nothing was produced, Wait = true")
	}
}

// An empty cycle — nothing to read, nothing to repair — costs what the
// cluster's own Wait costs and nothing more.
func TestReaderEmptyCycleAllocatesNothing(t *testing.T) {
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 2})
	produceN(t, c, "t", 4, false)
	r := mustReader(t, c, ResetEarliest, "t", 2)
	for i := 0; i < 2; i++ {
		msgs, _ := r.Fetch(i, 10)
		r.Seek(i, msgs[len(msgs)-1].Offset+1)
	}
	cycle := func(maxWait time.Duration) float64 {
		return testing.AllocsPerRun(50, func() {
			r.Wait(maxWait)
			for i := 0; i < 2; i++ {
				if msgs, err := r.Fetch(i, 10); err != nil || len(msgs) != 0 {
					t.Fatalf("fetch = %d messages, %v", len(msgs), err)
				}
			}
		})
	}
	bare := func(maxWait time.Duration) float64 {
		at := watchAll("t", 2, 2)
		return testing.AllocsPerRun(50, func() { c.Wait(at, maxWait) })
	}
	if got := cycle(0); got != 0 {
		t.Errorf("empty cycle without a park: %v allocs, want 0", got)
	}
	if got, want := cycle(100*time.Microsecond), bare(100*time.Microsecond); got > want {
		t.Errorf("empty cycle with a park: %v allocs, Cluster.Wait alone %v", got, want)
	}
}

// A timed-out park allocates nothing: the reader parks with its own
// waiter, channel, watched list and timer every time. The reused waiter
// still wakes on an append during a park, and a wake-up left in its channel
// after a park ended does not end the next one early.
func TestReaderParkAllocatesNothing(t *testing.T) {
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 2})
	r := mustReader(t, c, ResetEarliest, "t", 2)
	if got := testing.AllocsPerRun(20, func() {
		if r.Wait(50 * time.Microsecond) {
			t.Fatal("nothing was produced, Wait = true")
		}
	}); got != 0 {
		t.Errorf("a timed-out park: %v allocs, want 0", got)
	}
	for round := range 3 {
		done := parkedReader(t, c, r, time.Minute)
		produceN(t, c, "t", 1, false)
		select {
		case ready := <-done:
			if !ready {
				t.Fatalf("round %d: Wait ran into its bound", round)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("round %d: an append did not wake the reused waiter", round)
		}
		for i := range 2 {
			msgs, _ := r.Fetch(i, 10)
			if len(msgs) > 0 {
				r.Seek(i, msgs[len(msgs)-1].Offset+1)
			}
		}
	}
	r.waiter.ch <- struct{}{} // a wake-up that arrived after the last park
	if r.Wait(20 * time.Millisecond) {
		t.Error("a stale wake-up ended a park with nothing to read")
	}
}
