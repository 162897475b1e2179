// Package qcache is the broker-side query admission layer of the OLAP
// serving stack: a bounded-memory LRU cache of results and per-segment
// partials, in-flight request deduplication (singleflight), and per-tenant
// admission control with a bounded execution queue.
//
// The package is deliberately value-agnostic — keys are canonical strings
// and cached values are opaque (any) with caller-provided sizes — so it has
// no dependency on the olap package's types and the olap broker can layer it
// over typed requests without an import cycle. One byte budget and one LRU
// hold two kinds of entry:
//
//   - A result entry (Get/Put) is generation-keyed. Correctness against
//     concurrent data mutation comes from the generation fingerprint: every
//     entry records the table generation observed *before* the producing
//     execution snapshotted its data, and Get treats any generation mismatch
//     as an invalidation. A mutation that lands mid-execution therefore can
//     never be masked: the entry was stored under the pre-execution
//     generation, which the mutation has already bumped past.
//   - A segment entry (GetSegment/PutSegment) is generation-free. Its key
//     names immutable data — one sealed segment at one validity version —
//     so no mutation elsewhere in the table can make it stale, and Get and
//     SweepStale never drop it. It leaves by LRU eviction, or by
//     SweepSegments once its segment is no longer placed or its version has
//     moved on.
package qcache

import (
	"container/list"
	"sync"
)

// CacheStats is a snapshot of cache effectiveness counters. Result and
// segment entries are reported apart; the byte bound covers their sum.
type CacheStats struct {
	// Hits / Misses count Get outcomes (result entries). A generation
	// mismatch counts as both a miss and an invalidation.
	Hits   int64
	Misses int64
	// Evictions counts entries of either kind dropped to keep the resident
	// size under the bound.
	Evictions int64
	// Invalidations counts result entries dropped because their generation
	// no longer matched the table's (stale after ingest/seal/compact/
	// offload/drop), and segment entries SweepSegments dropped.
	Invalidations int64
	// Entries / Bytes describe the resident result entries.
	Entries int
	Bytes   int64
	// SegmentHits / SegmentMisses count GetSegment outcomes.
	SegmentHits   int64
	SegmentMisses int64
	// SegmentEntries / SegmentBytes describe the resident segment entries.
	SegmentEntries int
	SegmentBytes   int64
}

// entry is one cached value: a result entry with its admission-time
// generation fingerprint, or (segment set) a generation-free segment entry
// with the validity version its key names.
type entry struct {
	key     string
	gen     int64
	segment string
	version uint64
	val     any
	size    int64
}

// Cache is a bounded-memory LRU cache keyed by canonical strings: result
// entries with generation-fingerprint invalidation and generation-free
// segment entries, under one byte bound. Safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	curBytes int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	segBytes int64 // the share of curBytes segment entries hold
	segN     int

	hits, misses, evictions, invalidations int64
	segHits, segMisses                     int64
}

// NewCache creates a cache bounded to maxBytes of accounted entry size.
// maxBytes must be positive.
func NewCache(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = 1
	}
	return &Cache{
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// Get returns the cached value for key if present AND stored under the same
// generation. An entry with an OLDER generation is stale — some mutation
// bumped the table since it was stored — so it is dropped and the call
// misses. An entry with a NEWER generation only means the *reader's* view
// is old (it read the counter before a concurrent writer refreshed the
// entry): the call misses but the fresh entry is kept for current readers.
// Segment entries carry no generation and are never invalidated here.
func (c *Cache) Get(key string, gen int64) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	e := el.Value.(*entry)
	if e.segment == "" && e.gen != gen {
		if e.gen < gen {
			c.removeLocked(el)
			c.invalidations++
		}
		c.misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return e.val, true
}

// Put stores a value under key at the given generation, evicting
// least-recently-used entries until the byte bound holds. Values larger than
// the whole bound are not cached. A racing Put for the same key keeps the
// newer generation (or the latest write on a tie).
func (c *Cache) Put(key string, gen int64, val any, size int64) {
	if size > c.maxBytes {
		return
	}
	if size < 1 {
		size = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		if el.Value.(*entry).gen > gen {
			return // an entry from a newer snapshot already landed
		}
		c.removeLocked(el)
	}
	c.insertLocked(&entry{key: key, gen: gen, val: val, size: size})
}

// GetSegment returns the segment entry cached under key. It takes the key
// as bytes so a hit allocates nothing.
func (c *Cache) GetSegment(key []byte) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[string(key)]
	if !ok {
		c.segMisses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.segHits++
	return el.Value.(*entry).val, true
}

// PutSegment stores a generation-free entry under key: a value computed from
// segment at the given validity version alone, which SweepSegments drops
// once that pair is no longer live. It evicts like Put; a value larger than
// the whole bound is not cached.
func (c *Cache) PutSegment(segment string, version uint64, key string, val any, size int64) {
	if size > c.maxBytes {
		return
	}
	if size < 1 {
		size = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.removeLocked(el) // a racing scan of the same segment stored it first
	}
	c.insertLocked(&entry{key: key, segment: segment, version: version, val: val, size: size})
}

// insertLocked evicts least-recently-used entries until e fits the bound,
// then links e in front. Caller holds c.mu.
func (c *Cache) insertLocked(e *entry) {
	for c.curBytes+e.size > c.maxBytes {
		back := c.ll.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.evictions++
	}
	c.items[e.key] = c.ll.PushFront(e)
	c.curBytes += e.size
	if e.segment != "" {
		c.segBytes += e.size
		c.segN++
	}
}

// removeLocked unlinks one element. Caller holds c.mu.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.curBytes -= e.size
	if e.segment != "" {
		c.segBytes -= e.size
		c.segN--
	}
}

// SweepStale drops every result entry stored under a generation older than gen,
// counting each as an invalidation, and returns how many were dropped. Get
// already invalidates stale entries lazily, but only when their own key is
// re-queried — an entry stored by an execution that a mutation raced past
// (in-flight at eviction time) or a warmed set orphaned by a generation
// bump would otherwise keep its bytes in the resident gauge indefinitely.
// The broker calls this from CacheStats so Entries/Bytes only ever count
// memory that can still serve a hit.
func (c *Cache) SweepStale(gen int64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sweepLocked(func(e *entry) bool { return e.segment == "" && e.gen < gen })
}

// SweepSegments drops every segment entry whose (segment, version) live
// rejects — a segment compacted away, retired or expired, or one whose
// validity has moved to a newer version — counting each as an
// invalidation, and returns how many were dropped. Such an entry can never
// serve a hit again; without the sweep it would hold its bytes until the
// LRU reached it. live runs under the cache lock.
func (c *Cache) SweepSegments(live func(segment string, version uint64) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sweepLocked(func(e *entry) bool { return e.segment != "" && !live(e.segment, e.version) })
}

// sweepLocked drops the entries dead reports, counting them as
// invalidations. Caller holds c.mu.
func (c *Cache) sweepLocked(dead func(e *entry) bool) int {
	dropped := 0
	for el := c.ll.Back(); el != nil; {
		prev := el.Prev()
		if dead(el.Value.(*entry)) {
			c.removeLocked(el)
			c.invalidations++
			dropped++
		}
		el = prev
	}
	return dropped
}

// Bytes returns the current accounted resident size, of both kinds of
// entry.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.curBytes
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:           c.hits,
		Misses:         c.misses,
		Evictions:      c.evictions,
		Invalidations:  c.invalidations,
		Entries:        c.ll.Len() - c.segN,
		Bytes:          c.curBytes - c.segBytes,
		SegmentHits:    c.segHits,
		SegmentMisses:  c.segMisses,
		SegmentEntries: c.segN,
		SegmentBytes:   c.segBytes,
	}
}
