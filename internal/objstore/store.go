package objstore

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrNotFound is returned by Get/Delete for missing keys.
var ErrNotFound = errors.New("objstore: object not found")

// ErrUnavailable is returned by a FaultStore while an outage is injected.
var ErrUnavailable = errors.New("objstore: store unavailable")

// Store is the object storage interface shared by all layers above it.
// Implementations must provide read-after-write consistency: a Get that
// begins after a successful Put returns the new value.
type Store interface {
	// Put stores value under key, overwriting any existing object. The
	// bytes become the store's: the caller hands over a buffer it never
	// writes again, and an in-process store may keep that very array.
	Put(key string, value []byte) error
	// Get returns the object stored under key. The bytes are the store's,
	// lent to the caller: they must not be written, and the store never
	// writes them either — a later Put or Delete of the key replaces the
	// object and leaves bytes already lent as they were, so a reader may
	// keep views of them.
	Get(key string) ([]byte, error)
	// Delete removes the object; it is an error to delete a missing key.
	Delete(key string) error
	// List returns all keys with the given prefix, sorted.
	List(prefix string) ([]string, error)
	// Size returns the stored byte size of an object.
	Size(key string) (int64, error)
}

// MemStore is the in-memory reference implementation of Store. It is safe
// for concurrent use. Put keeps an exact-size array (capacity equal to
// length) as the object, without a copy, and copies a value with spare
// capacity into one, so an object holds no more memory than the bytes Stats
// counts. It never writes an object: a later Put of the key replaces the
// entry, so Get lends the stored bytes without a copy, capped at their
// length so a caller's append cannot reach past them.
type MemStore struct {
	mu      sync.RWMutex
	objects map[string][]byte

	putBytes, putCount, getCount, listCount atomic.Int64
}

// NewMemStore returns an empty in-memory object store.
func NewMemStore() *MemStore {
	return &MemStore{objects: make(map[string][]byte)}
}

// Put implements Store.
func (m *MemStore) Put(key string, value []byte) error {
	if key == "" {
		return fmt.Errorf("objstore: empty key")
	}
	if cap(value) != len(value) {
		value = append(make([]byte, 0, len(value)), value...)
	}
	m.mu.Lock()
	m.objects[key] = value
	m.mu.Unlock()
	m.putBytes.Add(int64(len(value)))
	m.putCount.Add(1)
	return nil
}

// Get implements Store.
func (m *MemStore) Get(key string) ([]byte, error) {
	m.mu.RLock()
	v, ok := m.objects[key]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	m.getCount.Add(1)
	return v[:len(v):len(v)], nil
}

// Delete implements Store.
func (m *MemStore) Delete(key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.objects[key]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	delete(m.objects, key)
	return nil
}

// List implements Store.
func (m *MemStore) List(prefix string) ([]string, error) {
	m.mu.RLock()
	keys := make([]string, 0, 16)
	for k := range m.objects {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	m.mu.RUnlock()
	m.listCount.Add(1)
	sort.Strings(keys)
	return keys, nil
}

// Size implements Store.
func (m *MemStore) Size(key string) (int64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	v, ok := m.objects[key]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return int64(len(v)), nil
}

// TotalBytes returns the sum of stored object sizes — the store's "disk
// footprint" as reported by the OLAP footprint experiments.
func (m *MemStore) TotalBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var total int64
	for _, v := range m.objects {
		total += int64(len(v))
	}
	return total
}

// Stats reports cumulative operation counts.
func (m *MemStore) Stats() (puts, gets, lists int64, putBytes int64) {
	return m.putCount.Load(), m.getCount.Load(), m.listCount.Load(), m.putBytes.Load()
}

// FaultStore wraps a Store and injects failures, used to reproduce the
// paper's segment-store outage scenario (§4.3.4) and slow-archival behavior.
// The zero injection state passes all calls through unchanged; Get passes on
// the inner store's lent bytes as they are.
type FaultStore struct {
	inner Store

	mu       sync.RWMutex
	down     bool
	putDelay time.Duration
	getDelay time.Duration

	rejectedPuts int64
}

// NewFaultStore wraps inner with fault injection controls.
func NewFaultStore(inner Store) *FaultStore {
	return &FaultStore{inner: inner}
}

// SetDown toggles a full outage: every operation fails with ErrUnavailable.
func (f *FaultStore) SetDown(down bool) {
	f.mu.Lock()
	f.down = down
	f.mu.Unlock()
}

// Down reports whether the store is currently in an injected outage.
func (f *FaultStore) Down() bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.down
}

// SetLatency injects a synchronous delay on every Put and Get, modeling the
// single-controller archival bottleneck the paper describes.
func (f *FaultStore) SetLatency(put, get time.Duration) {
	f.mu.Lock()
	f.putDelay, f.getDelay = put, get
	f.mu.Unlock()
}

// RejectedPuts returns how many Puts failed due to an injected outage.
func (f *FaultStore) RejectedPuts() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.rejectedPuts
}

func (f *FaultStore) check(isPut bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		if isPut {
			f.rejectedPuts++
		}
		return ErrUnavailable
	}
	return nil
}

// Put implements Store.
func (f *FaultStore) Put(key string, value []byte) error {
	if err := f.check(true); err != nil {
		return err
	}
	f.mu.RLock()
	d := f.putDelay
	f.mu.RUnlock()
	if d > 0 {
		time.Sleep(d)
	}
	return f.inner.Put(key, value)
}

// Get implements Store.
func (f *FaultStore) Get(key string) ([]byte, error) {
	if err := f.check(false); err != nil {
		return nil, err
	}
	f.mu.RLock()
	d := f.getDelay
	f.mu.RUnlock()
	if d > 0 {
		time.Sleep(d)
	}
	return f.inner.Get(key)
}

// Delete implements Store.
func (f *FaultStore) Delete(key string) error {
	if err := f.check(false); err != nil {
		return err
	}
	return f.inner.Delete(key)
}

// List implements Store.
func (f *FaultStore) List(prefix string) ([]string, error) {
	if err := f.check(false); err != nil {
		return nil, err
	}
	return f.inner.List(prefix)
}

// Size implements Store.
func (f *FaultStore) Size(key string) (int64, error) {
	if err := f.check(false); err != nil {
		return 0, err
	}
	return f.inner.Size(key)
}
