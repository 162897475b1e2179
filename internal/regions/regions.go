package regions

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/stream"
	"repro/internal/stream/replicator"
)

// ActiveActiveDB is the replicated key-value store of Fig 6/7 ("an
// active/active database"): a synchronously replicated KV visible from all
// regions. Loss semantics are out of scope; the experiments need its role,
// not its internals.
type ActiveActiveDB struct {
	mu   sync.RWMutex
	data map[string]string
}

// NewActiveActiveDB returns an empty store.
func NewActiveActiveDB() *ActiveActiveDB {
	return &ActiveActiveDB{data: make(map[string]string)}
}

// Put stores a value.
func (db *ActiveActiveDB) Put(key, value string) {
	db.mu.Lock()
	db.data[key] = value
	db.mu.Unlock()
}

// Get returns the value and whether it exists.
func (db *ActiveActiveDB) Get(key string) (string, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	v, ok := db.data[key]
	return v, ok
}

// Keys returns all keys with the prefix, sorted.
func (db *ActiveActiveDB) Keys(prefix string) []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []string
	for k := range db.data {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Region is one deployment region: a regional cluster receiving locally
// produced events and an aggregate cluster receiving the replicated global
// view.
type Region struct {
	Name      string
	Regional  *stream.Cluster
	Aggregate *stream.Cluster
}

// MappingStore collects uReplicator offset-mapping checkpoints keyed by
// (src cluster, dst cluster, topic, partition), kept sorted by source
// offset. It implements replicator.CheckpointStore and is typically backed
// by the active-active DB in deployment; here it holds the mappings
// in-memory with the same semantics.
type MappingStore struct {
	mu       sync.RWMutex
	mappings map[string][]replicator.OffsetMapping
}

// NewMappingStore returns an empty store.
func NewMappingStore() *MappingStore {
	return &MappingStore{mappings: make(map[string][]replicator.OffsetMapping)}
}

func mappingKey(src, dst, topic string, partition int) string {
	return fmt.Sprintf("%s|%s|%s|%d", src, dst, topic, partition)
}

// SaveMapping implements replicator.CheckpointStore.
func (ms *MappingStore) SaveMapping(src, dst string, m replicator.OffsetMapping) {
	key := mappingKey(src, dst, m.Topic, m.Partition)
	ms.mu.Lock()
	defer ms.mu.Unlock()
	list := ms.mappings[key]
	// Checkpoints arrive in increasing SrcOffset per partition; keep sorted.
	if n := len(list); n > 0 && list[n-1].SrcOffset > m.SrcOffset {
		i := sort.Search(n, func(i int) bool { return list[i].SrcOffset >= m.SrcOffset })
		list = append(list[:i], append([]replicator.OffsetMapping{m}, list[i:]...)...)
	} else {
		list = append(list, m)
	}
	ms.mappings[key] = list
}

// SrcForDst returns the largest source offset whose replicated prefix ends
// at or before dstOffset in (src→dst) replication, or false when no
// checkpoint covers it.
func (ms *MappingStore) SrcForDst(src, dst, topic string, partition int, dstOffset int64) (int64, bool) {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	list := ms.mappings[mappingKey(src, dst, topic, partition)]
	var best int64
	found := false
	for _, m := range list {
		if m.DstOffset <= dstOffset {
			best = m.SrcOffset
			found = true
		}
	}
	return best, found
}

// DstForSrc returns the destination offset corresponding to the largest
// checkpointed source offset ≤ srcOffset, or false when none.
func (ms *MappingStore) DstForSrc(src, dst, topic string, partition int, srcOffset int64) (int64, bool) {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	list := ms.mappings[mappingKey(src, dst, topic, partition)]
	var best int64
	found := false
	for _, m := range list {
		if m.SrcOffset <= srcOffset {
			best = m.DstOffset
			found = true
		}
	}
	return best, found
}

// start returns the destination offset at which (src→dst) replication wrote
// its first message — the replicator checkpoints it before that write — or
// false when src has sent dst nothing.
func (ms *MappingStore) start(src, dst, topic string, partition int) (int64, bool) {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	list := ms.mappings[mappingKey(src, dst, topic, partition)]
	if len(list) == 0 {
		return 0, false
	}
	return list[0].DstOffset, true
}

// MultiRegion wires regions together: one uReplicator per (regional →
// aggregate) pair, a shared mapping store, an active-active DB, and the
// coordinator's primary-region pointer.
type MultiRegion struct {
	regions  []*Region
	topics   []string
	mappings *MappingStore
	db       *ActiveActiveDB

	mu          sync.Mutex
	replicators []*replicator.Replicator
	primary     int
	failovers   int
}

// NewMultiRegion creates the mesh for the given topics. Every topic must
// already exist with identical partition counts on every regional and
// aggregate cluster.
func NewMultiRegion(regions []*Region, topics []string, cfg replicator.Config) (*MultiRegion, error) {
	if len(regions) < 2 {
		return nil, fmt.Errorf("regions: need at least 2 regions")
	}
	mr := &MultiRegion{
		regions:  regions,
		topics:   topics,
		mappings: NewMappingStore(),
		db:       NewActiveActiveDB(),
	}
	// Each region's regional cluster replicates into EVERY region's
	// aggregate cluster ("all the trip events are sent over to the Kafka
	// regional cluster and then aggregated into the aggregate clusters for
	// the global view").
	for _, src := range regions {
		for _, dst := range regions {
			r, err := replicator.New(src.Regional, dst.Aggregate, topics, cfg, mr.mappings)
			if err != nil {
				return nil, err
			}
			mr.replicators = append(mr.replicators, r)
		}
	}
	return mr, nil
}

// Start launches all replicators.
func (mr *MultiRegion) Start() {
	for _, r := range mr.replicators {
		r.Start()
	}
}

// Stop halts all replicators.
func (mr *MultiRegion) Stop() {
	for _, r := range mr.replicators {
		r.Stop()
	}
}

// DB returns the active-active database.
func (mr *MultiRegion) DB() *ActiveActiveDB { return mr.db }

// Mappings returns the offset-mapping store.
func (mr *MultiRegion) Mappings() *MappingStore { return mr.mappings }

// Region returns a region by index.
func (mr *MultiRegion) Region(i int) *Region { return mr.regions[i] }

// Primary returns the coordinator's current primary region index.
func (mr *MultiRegion) Primary() int {
	mr.mu.Lock()
	defer mr.mu.Unlock()
	return mr.primary
}

// Failover moves the primary to the next healthy region (the "all-active
// coordinating service" reacting to disaster) and returns the new primary.
func (mr *MultiRegion) Failover() int {
	mr.mu.Lock()
	defer mr.mu.Unlock()
	mr.failovers++
	for i := 1; i < len(mr.regions); i++ {
		cand := (mr.primary + i) % len(mr.regions)
		if !mr.regions[cand].Aggregate.Down() {
			mr.primary = cand
			return cand
		}
	}
	return mr.primary
}

// Failovers counts coordinator failovers.
func (mr *MultiRegion) Failovers() int {
	mr.mu.Lock()
	defer mr.mu.Unlock()
	return mr.failovers
}

// WaitReplicated blocks until every replicator's lag is zero or the timeout
// passes; it returns the residual total lag.
func (mr *MultiRegion) WaitReplicated(timeout time.Duration) int64 {
	deadline := time.Now().Add(timeout)
	for {
		var lag int64
		for _, r := range mr.replicators {
			lag += r.Lag()
		}
		if lag == 0 || time.Now().After(deadline) {
			return lag
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// OffsetSync is the offset sync job of Fig 7: it periodically translates an
// active/passive consumer group's committed offsets from the active region's
// aggregate cluster into equivalent offsets on every passive region's
// aggregate cluster, via the uReplicator offset-mapping checkpoints.
type OffsetSync struct {
	mr    *MultiRegion
	group string
	topic string
}

// NewOffsetSync creates a sync job for one consumer group on one topic.
func NewOffsetSync(mr *MultiRegion, group, topic string) *OffsetSync {
	return &OffsetSync{mr: mr, group: group, topic: topic}
}

// Sync translates the group's committed offsets from the region `active` to
// every other region. It returns the number of partition offsets synced.
// The translation goes aggregate(active) → regional source offset → every
// other aggregate: conservative (≤ exact position), so failover re-reads a
// suffix (at-least-once) instead of losing data. The suffix is as long as
// the two aggregates interleave the regions differently — a few replication
// batches while the replicators keep pace, the full backlog at worst.
func (s *OffsetSync) Sync(active int) int {
	mr := s.mr
	act := mr.regions[active]
	n, err := act.Aggregate.Partitions(s.topic)
	if err != nil {
		return 0
	}
	synced := 0
	for p := 0; p < n; p++ {
		tp := stream.TopicPartition{Topic: s.topic, Partition: p}
		committed := act.Aggregate.Committed(s.group, tp)
		if committed == 0 {
			continue
		}
		// The aggregate cluster interleaves messages replicated from every
		// regional cluster; translate through each source region and take
		// the minimum safe position per destination.
		for di, dst := range mr.regions {
			if di == active {
				continue
			}
			var dstOffset int64
			resolved := false
			for _, src := range mr.regions {
				var d int64
				srcOff, found := mr.mappings.SrcForDst(src.Regional.Name(), act.Aggregate.Name(), s.topic, p, committed)
				if found {
					// Not found: the passive aggregate has not received
					// this source's data at all, only offset 0 is safe.
					d, _ = mr.mappings.DstForSrc(src.Regional.Name(), dst.Aggregate.Name(), s.topic, p, srcOff)
				} else if d, found = mr.mappings.start(src.Regional.Name(), dst.Aggregate.Name(), s.topic, p); !found {
					// The group has read none of this source's data and the
					// passive aggregate holds none: no constraint. Where it
					// holds some — the aggregates need not interleave the
					// regions alike — the group resumes no later than where
					// that data starts.
					continue
				}
				if !resolved || d < dstOffset {
					dstOffset = d
				}
				resolved = true
			}
			if resolved {
				dst.Aggregate.CommitGroupOffset(s.group, tp, dstOffset)
				synced++
			}
		}
	}
	return synced
}
