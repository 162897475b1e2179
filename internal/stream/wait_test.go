package stream

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

func watchAll(topic string, offsets ...int64) []Position {
	at := make([]Position, len(offsets))
	for i, off := range offsets {
		at[i] = Position{TopicPartition: TopicPartition{Topic: topic, Partition: i}, Offset: off}
	}
	return at
}

// parked starts Wait on its own goroutine and returns a channel carrying
// its result, after the waiter has registered with the partition.
func parked(t *testing.T, c *Cluster, at []Position, maxWait time.Duration) <-chan bool {
	t.Helper()
	done := make(chan bool, 1)
	go func() { done <- c.Wait(at, maxWait) }()
	c.mu.RLock()
	p := c.partitionLocked(at[0].TopicPartition)
	c.mu.RUnlock()
	for deadline := time.Now().Add(2 * time.Second); ; {
		p.mu.Lock()
		n := len(p.waiters)
		p.mu.Unlock()
		if n > 0 {
			return done
		}
		if time.Now().After(deadline) {
			t.Fatal("Wait never parked")
		}
		runtime.Gosched()
	}
}

func wantWake(t *testing.T, done <-chan bool, what string) {
	t.Helper()
	select {
	case ready := <-done:
		if !ready {
			t.Errorf("%s: Wait ran into its bound", what)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("%s: Wait did not wake", what)
	}
}

func TestWaitReturnsAtOnceWhenDataIsThere(t *testing.T) {
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 2})
	produceN(t, c, "t", 2, false) // one message per partition
	start := time.Now()
	if !c.Wait(watchAll("t", 1, 0), time.Minute) {
		t.Error("data at partition 1 offset 0, Wait = false")
	}
	if !c.Wait(watchAll("t", 0, 1), 0) {
		t.Error("zero maxWait must still report fetchable data")
	}
	if c.Wait(watchAll("t", 1, 1), 0) {
		t.Error("both positions at the high watermark, Wait = true")
	}
	if time.Since(start) > time.Second {
		t.Error("Wait parked although data was fetchable")
	}
}

func TestWaitWakesOnAppendToAnyWatchedPartition(t *testing.T) {
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 3})
	for part := 0; part < 3; part++ {
		offsets := make([]int64, 3)
		for i := 0; i < part; i++ {
			offsets[i] = 1 // earlier rounds left one message there
		}
		done := parked(t, c, watchAll("t", offsets...), time.Minute)
		// rrHint pins an unkeyed message to partition rrHint % 3.
		if err := c.Produce("t", []Message{{Value: []byte("x")}}, int64(part)); err != nil {
			t.Fatal(err)
		}
		wantWake(t, done, fmt.Sprintf("append to partition %d", part))
	}
	// Every waiter deregistered itself from the partitions that did not
	// wake it.
	for part := 0; part < 3; part++ {
		p, _ := c.partition("t", part)
		p.mu.Lock()
		if n := len(p.waiters); n != 0 {
			t.Errorf("partition %d still holds %d waiters", part, n)
		}
		p.mu.Unlock()
	}
}

func TestWaitHonoursItsBound(t *testing.T) {
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 2})
	mustCreate(t, c, "other", TopicConfig{Partitions: 1})
	done := parked(t, c, watchAll("t", 0, 0), 60*time.Millisecond)
	start := time.Now()
	// Traffic on a topic nobody watches wakes nobody.
	produceN(t, c, "other", 5, false)
	if ready := <-done; ready {
		t.Error("no data on the watched topic, Wait = true")
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Errorf("Wait returned after %v, before its bound", d)
	}
	// Nothing resolvable to watch is still a bounded wait, not a spin.
	start = time.Now()
	if c.Wait(watchAll("missing", 0), 30*time.Millisecond) {
		t.Error("unknown topic, Wait = true")
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("Wait on an unknown topic returned after %v", d)
	}
}

func TestWaitWakesOnAvailabilityChanges(t *testing.T) {
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 1})
	at := watchAll("t", 0)

	done := parked(t, c, at, time.Minute)
	if err := c.FailNode(0); err != nil { // RF 1: the partition goes offline
		t.Fatal(err)
	}
	wantWake(t, done, "partition offline")

	// Offline is not fetchable whatever the position (any offset below the
	// high watermark counts as data)...
	behind := watchAll("t", -1)
	if c.Wait(behind, 0) {
		t.Error("offline partition reported fetchable")
	}
	// ...and coming back wakes whoever waited it out.
	done = parked(t, c, at, time.Minute)
	if err := c.RecoverNode(0); err != nil {
		t.Fatal(err)
	}
	wantWake(t, done, "partition back online")

	c.SetDown(true)
	if c.Wait(behind, 0) {
		t.Error("downed cluster reported fetchable")
	}
	done = parked(t, c, at, time.Minute)
	c.SetDown(false)
	wantWake(t, done, "cluster back up")

	done = parked(t, c, at, time.Minute)
	c.Close()
	wantWake(t, done, "Close")

	// A closed cluster still bounds a wait instead of spinning.
	start := time.Now()
	c.Wait(at, 30*time.Millisecond)
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("Wait after Close returned after %v", d)
	}
}

func TestWaitWakesOnDeleteTopic(t *testing.T) {
	c := testCluster(t, 1)
	mustCreate(t, c, "t", TopicConfig{Partitions: 1})
	done := parked(t, c, watchAll("t", 0), time.Minute)
	if err := c.DeleteTopic("t"); err != nil {
		t.Fatal(err)
	}
	wantWake(t, done, "DeleteTopic")
}

// No lost wake-up: consumers that only read after Wait says so, with a bound
// long enough that one missed wake-up fails the test, must see every
// message concurrent producers append. One consumer watches all partitions
// (the flow source's shape), the others one each (the ingester's).
func TestWaitNoLostWakeupUnderConcurrentProducers(t *testing.T) {
	c := testCluster(t, 1)
	const parts, producers, perProducer = 3, 4, 300 // round-robin: parts divides perProducer
	mustCreate(t, c, "t", TopicConfig{Partitions: parts})

	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := NewProducer(c, "svc-"+strconv.Itoa(i), "", nil)
			for n := 0; n < perProducer; n++ {
				if err := p.Produce("t", nil, []byte("v")); err != nil {
					t.Error(err)
					return
				}
				if n%16 == 0 {
					runtime.Gosched() // let consumers drain and park again
				}
			}
		}(i)
	}
	consume := func(at []Position, want int) {
		defer wg.Done()
		for got := 0; got < want; {
			if !c.Wait(at, 10*time.Second) {
				t.Errorf("Wait on %v timed out with %d of %d messages read", at, got, want)
				return
			}
			for i := range at {
				msgs, err := c.Fetch(at[i].TopicPartition, at[i].Offset, 64)
				if err != nil {
					t.Error(err)
					return
				}
				at[i].Offset += int64(len(msgs))
				got += len(msgs)
			}
		}
	}
	wg.Add(1)
	go consume(watchAll("t", make([]int64, parts)...), producers*perProducer)
	for part := 0; part < parts; part++ {
		wg.Add(1)
		go consume(watchAll("t", make([]int64, parts)...)[part:part+1], producers*perProducer/parts)
	}
	wg.Wait()
}

// BenchmarkWaitHandoff is one produce → wake → fetch hand-off between two
// goroutines: the consumer parks in Wait at the high watermark, the
// producer appends one message and waits for the consumer to have read it.
func BenchmarkWaitHandoff(b *testing.B) {
	c, err := NewCluster(ClusterConfig{Name: "bench", Nodes: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTopic("t", TopicConfig{Partitions: 1, RetentionBytes: 1 << 20, SegmentBytes: 1 << 16}); err != nil {
		b.Fatal(err)
	}
	read := make(chan struct{})
	go func() {
		at := watchAll("t", 0)
		for n := 0; n < b.N; {
			c.Wait(at, time.Second)
			msgs, err := c.Fetch(at[0].TopicPartition, at[0].Offset, 128)
			if err != nil {
				b.Error(err)
				return
			}
			for range msgs {
				at[0].Offset++
				n++
				read <- struct{}{}
			}
		}
	}()
	p := NewProducer(c, "svc", "", nil)
	msg := []Message{{Value: []byte("payload")}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg[0] = Message{Value: msg[0].Value}
		if err := p.ProduceBatch("t", msg); err != nil {
			b.Fatal(err)
		}
		<-read
	}
}
