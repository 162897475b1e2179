package objstore

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestMemStoreBasics(t *testing.T) {
	s := NewMemStore()
	if err := s.Put("a/1", []byte("x")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get("a/1")
	if err != nil || string(v) != "x" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := s.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(missing) = %v, want ErrNotFound", err)
	}
	if err := s.Put("", nil); err == nil {
		t.Error("empty key should error")
	}
	sz, err := s.Size("a/1")
	if err != nil || sz != 1 {
		t.Errorf("Size = %d, %v", sz, err)
	}
	if _, err := s.Size("missing"); !errors.Is(err, ErrNotFound) {
		t.Error("Size(missing) should be ErrNotFound")
	}
	if err := s.Delete("a/1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("a/1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete = %v, want ErrNotFound", err)
	}
}

func TestMemStoreList(t *testing.T) {
	s := NewMemStore()
	for _, k := range []string{"b/2", "a/1", "a/2", "c"} {
		if err := s.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := s.List("a/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "a/1" || keys[1] != "a/2" {
		t.Errorf("List(a/) = %v", keys)
	}
	all, _ := s.List("")
	if len(all) != 4 {
		t.Errorf("List(\"\") = %v", all)
	}
}

// TestMemStorePutKeepsCallersBytes: Put takes an exact-size buffer as the
// object, without a copy — the caller hands over bytes it never writes
// again — so Get lends that very array; a buffer with spare capacity is
// copied into an exact-size one, so the store holds the bytes it counts and
// no slack behind them. A later Put of the key stores the new buffer and
// leaves the bytes already lent as they were.
func TestMemStorePutKeepsCallersBytes(t *testing.T) {
	s := NewMemStore()
	buf := make([]byte, 4)
	copy(buf, "orig")
	if allocs := testing.AllocsPerRun(10, func() { s.Put("k", buf) }); allocs != 0 {
		t.Errorf("Put allocated %.0f times, want 0: it copies an exact-size value", allocs)
	}
	v, _ := s.Get("k")
	if &v[0] != &buf[0] {
		t.Fatal("the stored object is not the caller's array")
	}
	if len(v) != 4 || cap(v) != 4 {
		t.Errorf("Get = %d bytes of capacity %d, want 4 of 4: the lent slice must stop at the object", len(v), cap(v))
	}
	next := make([]byte, 4, 1<<16)
	copy(next, "next")
	s.Put("k", next)
	got, _ := s.Get("k")
	if string(v) != "orig" || &v[0] != &buf[0] {
		t.Errorf("a second Put touched the lent bytes: %q", v)
	}
	if string(got) != "next" || &got[0] == &next[0] || cap(got) != 4 {
		t.Errorf("after a Put of 4 bytes in a %d-byte buffer Get = %q of capacity %d, the caller's array %v; want an exact-size copy",
			cap(next), got, cap(got), &got[0] == &next[0])
	}
	if puts, _, _, putBytes := s.Stats(); puts != 12 || putBytes != 12*4 {
		t.Errorf("Stats = %d puts of %d bytes, want 12 of 48", puts, putBytes)
	}
}

// TestMemStoreGetLends: Get returns the stored bytes themselves, capped at
// their length, so an append by the caller reallocates instead of writing
// past them; and a later Put of the key stores new bytes without touching
// the lent ones.
func TestMemStoreGetLends(t *testing.T) {
	s := NewMemStore()
	s.Put("k", []byte("orig"))
	v, _ := s.Get("k")
	again, _ := s.Get("k")
	if &v[0] != &again[0] {
		t.Error("Get copied the stored object")
	}
	if cap(v) != len(v) {
		t.Errorf("Get = %d bytes of capacity %d, want capacity = length", len(v), cap(v))
	}
	grown := append(v, 'Z')
	grown[0] = 'Y'
	if got, _ := s.Get("k"); string(got) != "orig" || &got[0] != &v[0] {
		t.Errorf("an append to the lent bytes changed the stored object: %q", got)
	}
	s.Put("k", []byte("next"))
	if got, _ := s.Get("k"); string(v) != "orig" || string(got) != "next" {
		t.Errorf("after a second Put: lent %q, stored %q; want orig, next", v, got)
	}
}

func TestMemStoreReadAfterWriteConcurrent(t *testing.T) {
	// Read-after-write consistency under concurrency: a Get issued after a
	// successful Put must observe that Put's value (or a later one).
	s := NewMemStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := fmt.Sprintf("w%d", w)
			for i := 0; i < 200; i++ {
				val := []byte(fmt.Sprintf("%d", i))
				if err := s.Put(key, val); err != nil {
					t.Error(err)
					return
				}
				got, err := s.Get(key)
				if err != nil {
					t.Error(err)
					return
				}
				if string(got) != string(val) {
					t.Errorf("read-after-write violated: got %s want %s", got, val)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestMemStoreTotalBytesAndStats(t *testing.T) {
	s := NewMemStore()
	s.Put("a", make([]byte, 10))
	s.Put("b", make([]byte, 5))
	if s.TotalBytes() != 15 {
		t.Errorf("TotalBytes = %d, want 15", s.TotalBytes())
	}
	s.Put("a", make([]byte, 2)) // overwrite shrinks
	if s.TotalBytes() != 7 {
		t.Errorf("TotalBytes after overwrite = %d, want 7", s.TotalBytes())
	}
	puts, gets, lists, putBytes := s.Stats()
	if puts != 3 || gets != 0 || lists != 0 || putBytes != 17 {
		t.Errorf("Stats = %d %d %d %d", puts, gets, lists, putBytes)
	}
}

func TestFaultStoreOutage(t *testing.T) {
	f := NewFaultStore(NewMemStore())
	if err := f.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	f.SetDown(true)
	if !f.Down() {
		t.Error("Down() should be true")
	}
	if err := f.Put("k2", nil); !errors.Is(err, ErrUnavailable) {
		t.Errorf("Put during outage = %v", err)
	}
	if _, err := f.Get("k"); !errors.Is(err, ErrUnavailable) {
		t.Errorf("Get during outage = %v", err)
	}
	if _, err := f.List(""); !errors.Is(err, ErrUnavailable) {
		t.Errorf("List during outage = %v", err)
	}
	if err := f.Delete("k"); !errors.Is(err, ErrUnavailable) {
		t.Errorf("Delete during outage = %v", err)
	}
	if _, err := f.Size("k"); !errors.Is(err, ErrUnavailable) {
		t.Errorf("Size during outage = %v", err)
	}
	if f.RejectedPuts() != 1 {
		t.Errorf("RejectedPuts = %d, want 1", f.RejectedPuts())
	}
	f.SetDown(false)
	if v, err := f.Get("k"); err != nil || string(v) != "v" {
		t.Errorf("after recovery Get = %q, %v", v, err)
	}
}

func TestFaultStoreLatency(t *testing.T) {
	f := NewFaultStore(NewMemStore())
	f.SetLatency(20*time.Millisecond, 0)
	start := time.Now()
	if err := f.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Errorf("Put latency %v, want >= 20ms injected", d)
	}
}

func TestStorePutGetProperty(t *testing.T) {
	s := NewMemStore()
	f := func(key string, val []byte) bool {
		if key == "" {
			return true
		}
		if err := s.Put(key, val); err != nil {
			return false
		}
		got, err := s.Get(key)
		if err != nil {
			return false
		}
		if len(got) != len(val) {
			return false
		}
		for i := range got {
			if got[i] != val[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
