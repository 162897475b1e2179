package qcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheHitMissAndLRU(t *testing.T) {
	c := NewCache(100)
	if _, ok := c.Get("a", 1); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", 1, "va", 40)
	c.Put("b", 1, "vb", 40)
	if v, ok := c.Get("a", 1); !ok || v != "va" {
		t.Fatalf("want va hit, got %v %v", v, ok)
	}
	// "a" is now most recently used; inserting a third 40-byte entry must
	// evict "b", the LRU.
	c.Put("c", 1, "vc", 40)
	if _, ok := c.Get("b", 1); ok {
		t.Fatal("LRU entry b should have been evicted")
	}
	if _, ok := c.Get("a", 1); !ok {
		t.Fatal("recently-used entry a should survive")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Bytes != 80 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCacheByteBoundHolds(t *testing.T) {
	c := NewCache(1000)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("k%d", i), 1, i, 64)
		if got := c.Bytes(); got > 1000 {
			t.Fatalf("bytes %d exceeds bound after insert %d", got, i)
		}
	}
	// An entry larger than the whole bound is refused outright.
	c.Put("huge", 1, "x", 4096)
	if _, ok := c.Get("huge", 1); ok {
		t.Fatal("oversized entry should not be cached")
	}
}

func TestCacheGenerationInvalidation(t *testing.T) {
	c := NewCache(100)
	c.Put("q", 7, "old", 10)
	if _, ok := c.Get("q", 8); ok {
		t.Fatal("stale generation must miss")
	}
	if _, ok := c.Get("q", 7); ok {
		t.Fatal("stale entry must have been dropped, not kept for the old generation")
	}
	st := c.Stats()
	if st.Invalidations != 1 {
		t.Fatalf("want 1 invalidation, got %+v", st)
	}
	// A Put from an older snapshot must not clobber a newer entry.
	c.Put("q", 9, "new", 10)
	c.Put("q", 8, "stale-writer", 10)
	if v, ok := c.Get("q", 9); !ok || v != "new" {
		t.Fatalf("newer entry lost: %v %v", v, ok)
	}
	// A reader with an OLD generation view must miss without destroying
	// the newer entry current readers are hitting.
	if _, ok := c.Get("q", 8); ok {
		t.Fatal("old-view reader must miss")
	}
	if v, ok := c.Get("q", 9); !ok || v != "new" {
		t.Fatalf("old-view reader destroyed the fresh entry: %v %v", v, ok)
	}
}

// TestSegmentEntriesAreGenerationFree: a segment entry survives every
// generation a result Get or SweepStale carries, shares the byte bound and
// the LRU with result entries, is counted apart, and leaves by
// SweepSegments once its (segment, version) is no longer live.
func TestSegmentEntriesAreGenerationFree(t *testing.T) {
	c := NewCache(100)
	c.Put("result", 1, "r", 10)
	c.PutSegment("s1", 0, "P-s1-v0", "p1", 20)
	c.PutSegment("s1", 1, "P-s1-v1", "p1'", 20)
	c.PutSegment("s2", 0, "P-s2-v0", "p2", 20)
	c.Get("P-s1-v0", 9) // a result reader's newer generation
	c.SweepStale(9)
	if v, ok := c.GetSegment([]byte("P-s1-v0")); !ok || v != "p1" {
		t.Fatalf("a generation bump dropped a segment entry: %v %v", v, ok)
	}
	if _, ok := c.GetSegment([]byte("P-none")); ok {
		t.Fatal("absent segment key hit")
	}
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 || st.SegmentEntries != 3 || st.SegmentBytes != 60 ||
		st.SegmentHits != 1 || st.SegmentMisses != 1 || c.Bytes() != 60 {
		t.Fatalf("stats %+v bytes %d", st, c.Bytes())
	}
	// s1 moved to version 1 and s2 is no longer placed.
	live := map[string]uint64{"s1": 1}
	dropped := c.SweepSegments(func(seg string, version uint64) bool {
		v, ok := live[seg]
		return ok && v == version
	})
	if st := c.Stats(); dropped != 2 || st.SegmentEntries != 1 || st.SegmentBytes != 20 || st.Invalidations != 3 {
		t.Fatalf("sweep dropped %d: %+v", dropped, st)
	}
	// One bound: a result entry that does not fit evicts the LRU segment
	// entry.
	c.Put("big", 1, "b", 90)
	if st := c.Stats(); st.SegmentEntries != 0 || st.Entries != 1 || st.Evictions != 1 || c.Bytes() != 90 {
		t.Fatalf("after a 90-byte result entry: %+v", st)
	}
}

func TestGroupCoalesces(t *testing.T) {
	g := NewGroup()
	var executions atomic.Int64
	var started, done sync.WaitGroup
	gate := make(chan struct{})
	const n = 64
	results := make([]any, n)
	started.Add(n)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer done.Done()
			started.Done()
			v, _, err := g.Do(context.Background(), "k", func() (any, error) {
				executions.Add(1)
				<-gate // hold every follower in the waiting state
				return "shared", nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	started.Wait()
	for g.Coalesced() != n-1 { // deterministic: every follower is waiting
		time.Sleep(time.Millisecond)
	}
	close(gate)
	done.Wait()
	if got := executions.Load(); got != 1 {
		t.Fatalf("want 1 execution, got %d", got)
	}
	for i, v := range results {
		if v != "shared" {
			t.Fatalf("caller %d got %v", i, v)
		}
	}
	if g.Coalesced() != n-1 {
		t.Fatalf("want %d coalesced, got %d", n-1, g.Coalesced())
	}
}

func TestGroupFollowerContextCancel(t *testing.T) {
	g := NewGroup()
	gate := make(chan struct{})
	leaderStarted := make(chan struct{})
	go func() {
		g.Do(context.Background(), "k", func() (any, error) {
			close(leaderStarted)
			<-gate
			return nil, nil
		})
	}()
	<-leaderStarted
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, shared, err := g.Do(ctx, "k", func() (any, error) { return nil, nil })
	if !shared || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled follower: shared=%v err=%v", shared, err)
	}
	close(gate)
}

func TestTenantQuota(t *testing.T) {
	a := NewAdmission(AdmissionConfig{
		TenantRate:  1000,
		TenantBurst: 3,
		TenantOverrides: map[string]TenantQuota{
			"free": {}, // unlimited
		},
	})
	now := time.Unix(0, 0)
	a.now = func() time.Time { return now }
	for i := 0; i < 3; i++ {
		if err := a.ChargeTenant("burst"); err != nil {
			t.Fatalf("charge %d within burst: %v", i, err)
		}
	}
	err := a.ChargeTenant("burst")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	// Another tenant has its own bucket — isolation.
	if err := a.ChargeTenant("other"); err != nil {
		t.Fatalf("tenant isolation broken: %v", err)
	}
	// Overridden tenants can be unlimited.
	for i := 0; i < 100; i++ {
		if err := a.ChargeTenant("free"); err != nil {
			t.Fatalf("unlimited override shed: %v", err)
		}
	}
	// Refill: 10ms at 1000/s restores 10 tokens (capped to burst 3).
	now = now.Add(10 * time.Millisecond)
	for i := 0; i < 3; i++ {
		if err := a.ChargeTenant("burst"); err != nil {
			t.Fatalf("post-refill charge %d: %v", i, err)
		}
	}
	if a.Shed() != 1 {
		t.Fatalf("want 1 shed, got %d", a.Shed())
	}
}

func TestSlotQueueAndShed(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 1})

	rel1, queued, err := a.AcquireSlot(context.Background())
	if err != nil || queued {
		t.Fatalf("first acquire: queued=%v err=%v", queued, err)
	}

	// Second caller queues; hold it in the wait state.
	type res struct {
		rel    func()
		queued bool
		err    error
	}
	second := make(chan res, 1)
	go func() {
		r, q, e := a.AcquireSlot(context.Background())
		second <- res{r, q, e}
	}()
	for a.Stats().QueueLen == 0 {
		time.Sleep(time.Millisecond)
	}

	// Third caller finds the queue full: shed.
	_, _, err = a.AcquireSlot(context.Background())
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queue-full shed: %v", err)
	}

	// Release the slot; the queued caller proceeds with queued=true.
	rel1()
	got := <-second
	if got.err != nil || !got.queued {
		t.Fatalf("queued caller: %+v", got)
	}
	got.rel()

	// A request whose deadline already passed is shed without queueing.
	rel2, _, err := a.AcquireSlot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, _, err = a.AcquireSlot(expired)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("expired-deadline shed: %v", err)
	}
	rel2()

	st := a.Stats()
	if st.Shed != 2 || st.Queued != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSlotQueuedContextCancelSheds(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 4})
	rel, _, err := a.AcquireSlot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, e := a.AcquireSlot(ctx)
		errc <- e
	}()
	for a.Stats().QueueLen == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if e := <-errc; !errors.Is(e, ErrOverloaded) {
		t.Fatalf("cancelled-in-queue must shed typed: %v", e)
	}
	rel()
	if a.Stats().QueueLen != 0 {
		t.Fatal("queue length leaked")
	}
}
