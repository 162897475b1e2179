package stream

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TopicPartition identifies one partition of one topic.
type TopicPartition struct {
	Topic     string
	Partition int
}

// String formats as "topic[3]".
func (tp TopicPartition) String() string { return fmt.Sprintf("%s[%d]", tp.Topic, tp.Partition) }

// ClusterConfig configures one physical cluster.
type ClusterConfig struct {
	// Name identifies the cluster within a federation / region.
	Name string
	// Nodes is the number of broker nodes. Partition leaders and replicas
	// are placed on nodes; node failures are simulated per node. The
	// paper's empirical sweet spot is < 150 nodes per cluster (§4.1.1):
	// per-append ISR membership confirmation costs O(nodes), so oversized
	// clusters slow down — the effect the federation experiment measures.
	Nodes int
	// Clock is the time source; nil uses the system clock.
	Clock Clock
	// ReplicationInterval is the cadence of the asynchronous replication
	// pump for AckLeader topics. Zero uses 2ms.
	ReplicationInterval time.Duration
}

// Cluster is one physical broker cluster: a set of nodes hosting topic
// partitions. It exposes the minimal Kafka surface the rest of the stack
// needs: topic admin, produce, fetch, consumer groups and failure injection.
// All methods are safe for concurrent use.
type Cluster struct {
	cfg   ClusterConfig
	clock Clock

	mu         sync.RWMutex
	topics     map[string]*topicState
	nodeAlive  []bool
	heartbeats []int64 // per-node heartbeat epochs, scanned on append
	down       bool
	epoch      int64

	groups map[string]*groupState

	propCounter  atomic.Int64
	lostMessages int64

	pumpStop chan struct{}
	pumpDone chan struct{}
}

type topicState struct {
	name       string
	cfg        TopicConfig
	partitions []*partition
}

// NewCluster creates a cluster with the given config and starts its
// asynchronous replication pump. Call Close when done.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("stream: cluster %q needs >= 1 node, got %d", cfg.Name, cfg.Nodes)
	}
	if cfg.Clock == nil {
		cfg.Clock = SystemClock
	}
	if cfg.ReplicationInterval <= 0 {
		cfg.ReplicationInterval = 2 * time.Millisecond
	}
	c := &Cluster{
		cfg:        cfg,
		clock:      cfg.Clock,
		topics:     make(map[string]*topicState),
		nodeAlive:  make([]bool, cfg.Nodes),
		heartbeats: make([]int64, cfg.Nodes),
		groups:     make(map[string]*groupState),
		pumpStop:   make(chan struct{}),
		pumpDone:   make(chan struct{}),
	}
	for i := range c.nodeAlive {
		c.nodeAlive[i] = true
	}
	go c.replicationPump()
	return c, nil
}

// Name returns the cluster name.
func (c *Cluster) Name() string { return c.cfg.Name }

// Nodes returns the configured node count.
func (c *Cluster) Nodes() int { return c.cfg.Nodes }

// Close stops the background replication pump and wakes every consumer
// parked in Wait.
func (c *Cluster) Close() {
	select {
	case <-c.pumpStop:
		return // already closed
	default:
		close(c.pumpStop)
		<-c.pumpDone
	}
	c.mu.RLock()
	c.wakeAllLocked()
	c.mu.RUnlock()
}

func (c *Cluster) replicationPump() {
	defer close(c.pumpDone)
	ticker := time.NewTicker(c.cfg.ReplicationInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.pumpStop:
			return
		case <-ticker.C:
			c.mu.RLock()
			for _, t := range c.topics {
				if t.cfg.Acks == AckLeader {
					for _, p := range t.partitions {
						p.advanceReplication()
					}
				}
			}
			c.mu.RUnlock()
		}
	}
}

// CreateTopic provisions a topic. Partition leaders are spread over nodes by
// consistent placement; replicas land on the following nodes.
func (c *Cluster) CreateTopic(name string, cfg TopicConfig) error {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return err
	}
	if cfg.ReplicationFactor > c.cfg.Nodes {
		return fmt.Errorf("stream: replication factor %d exceeds node count %d", cfg.ReplicationFactor, c.cfg.Nodes)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return ErrClusterUnavailable
	}
	if _, ok := c.topics[name]; ok {
		return fmt.Errorf("%w: %s", ErrTopicExists, name)
	}
	t := &topicState{name: name, cfg: cfg}
	base := Hash(name)
	for i := 0; i < cfg.Partitions; i++ {
		p := newPartition(name, i, cfg, c.clock)
		p.leaderNode = int((base + uint32(i)) % uint32(c.cfg.Nodes))
		for r := 1; r < cfg.ReplicationFactor; r++ {
			p.replicaNodes = append(p.replicaNodes, (p.leaderNode+r)%c.cfg.Nodes)
		}
		t.partitions = append(t.partitions, p)
	}
	c.topics[name] = t
	return nil
}

// DeleteTopic removes a topic and all its data.
func (c *Cluster) DeleteTopic(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.topics[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrTopicNotFound, name)
	}
	delete(c.topics, name)
	t.wakeAll()
	return nil
}

// Topics returns the cluster's topic names, sorted.
func (c *Cluster) Topics() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.topics))
	for n := range c.topics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// HasTopic reports whether the topic exists on this cluster.
func (c *Cluster) HasTopic(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.topics[name]
	return ok
}

// Partitions returns the partition count of a topic.
func (c *Cluster) Partitions(topic string) (int, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.topics[topic]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrTopicNotFound, topic)
	}
	return len(t.partitions), nil
}

func (c *Cluster) partition(topic string, index int) (*partition, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.down {
		return nil, ErrClusterUnavailable
	}
	t, ok := c.topics[topic]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrTopicNotFound, topic)
	}
	if index < 0 || index >= len(t.partitions) {
		return nil, fmt.Errorf("stream: %s has no partition %d", topic, index)
	}
	return t.partitions[index], nil
}

// confirmMembership is the per-append ISR membership check: the leader
// confirms the broker membership view by scanning per-node heartbeats
// (O(nodes) per batch). On top of that, metadata-propagation events fire at
// a frequency proportional to node count (node churn grows with fleet size)
// and each costs O(nodes) to disseminate — an O(nodes²) aggregate overhead
// that makes oversized clusters slow. This is the mechanism behind the
// paper's "ideal cluster size is less than 150 nodes" (§4.1.1) and what the
// federation experiment (E6) measures.
func (c *Cluster) confirmMembership() int64 {
	var sum int64
	for i := range c.heartbeats {
		sum += c.heartbeats[i]
	}
	// Churn-driven propagation: every (propagationBase/nodes) appends, scan
	// the full metadata view (nodes × propagationFanout entries).
	interval := int64(propagationBase / c.cfg.Nodes)
	if interval < 1 {
		interval = 1
	}
	if c.propCounter.Add(1)%interval == 0 {
		n := c.cfg.Nodes * propagationFanout
		for i := 0; i < n; i++ {
			sum += c.heartbeats[i%c.cfg.Nodes]
		}
	}
	return sum
}

// propagationBase and propagationFanout calibrate the churn model: small
// clusters pay almost nothing, oversized ones pay a per-append cost that
// grows quadratically with node count.
const (
	propagationBase   = 5000
	propagationFanout = 512
)

// Produce appends messages to a topic. Keyed messages go to
// hash(key) % partitions; unkeyed messages use the provided rrHint for
// round-robin spreading (producers pass an incrementing counter). It returns
// the per-partition base offsets of the first appended message.
func (c *Cluster) Produce(topic string, msgs []Message, rrHint int64) error {
	c.mu.RLock()
	if c.down {
		c.mu.RUnlock()
		return ErrClusterUnavailable
	}
	t, ok := c.topics[topic]
	if !ok {
		c.mu.RUnlock()
		return fmt.Errorf("%w: %s", ErrTopicNotFound, topic)
	}
	c.confirmMembership()
	parts := t.partitions
	c.mu.RUnlock()
	picks, ends := bucketByPartition(msgs, len(parts), rrHint)
	var err error
	from := int32(0)
	for pi, end := range ends {
		if end > from && err == nil {
			err = parts[pi].append(msgs, picks[from:end])
		}
		from = end
	}
	// Wake consumers only now that every partition has its share: one woken
	// by the first append would read the others before the rest of the
	// batch reached them, and a flow source would put its watermark between
	// rows that were produced together.
	from = 0
	for pi, end := range ends {
		if end > from {
			parts[pi].wake()
		}
		from = end
	}
	return err
}

// bucketByPartition groups the indices of msgs by destination partition,
// preserving order, as a counting sort in one allocation whatever the batch
// size: partition pi's share is picks[ends[pi-1]:ends[pi]] (from 0 for the
// first), and no message is copied.
func bucketByPartition(msgs []Message, n int, rrHint int64) (picks, ends []int32) {
	buf := make([]int32, 2*len(msgs)+n)
	dest, picks, ends := buf[:len(msgs)], buf[len(msgs):2*len(msgs)], buf[2*len(msgs):]
	for i := range msgs {
		if key := msgs[i].Key; len(key) > 0 {
			dest[i] = int32(Hash(key) % uint32(n))
		} else {
			dest[i] = int32((rrHint + int64(i)) % int64(n))
		}
		ends[dest[i]]++
	}
	var start int32
	for pi, c := range ends {
		ends[pi], start = start, start+c
	}
	// Each partition's cursor starts at its first place and ends past its
	// last.
	for i, pi := range dest {
		picks[ends[pi]] = int32(i)
		ends[pi]++
	}
	return picks, ends
}

// Fetch returns up to max messages from the given partition starting at
// offset, without blocking, in a slice of the caller's.
func (c *Cluster) Fetch(tp TopicPartition, offset int64, max int) ([]Message, error) {
	p, err := c.partition(tp.Topic, tp.Partition)
	if err != nil {
		return nil, err
	}
	return p.fetch(nil, offset, max)
}

// Watermarks returns the low and high watermark of a partition.
func (c *Cluster) Watermarks(tp TopicPartition) (low, high int64, err error) {
	p, err := c.partition(tp.Topic, tp.Partition)
	if err != nil {
		return 0, 0, err
	}
	low, high = p.watermarks()
	return low, high, nil
}

// SetDown injects or clears a cluster-wide outage.
func (c *Cluster) SetDown(down bool) {
	c.mu.Lock()
	c.down = down
	c.wakeAllLocked()
	c.mu.Unlock()
}

// Down reports whether a cluster-wide outage is injected.
func (c *Cluster) Down() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.down
}

// FailNode simulates the loss of one broker node. Partitions whose leader
// was on the node fail over to the first live replica; AckLeader topics lose
// the unreplicated tail (counted in LostMessages). Partitions with no live
// replica go offline.
func (c *Cluster) FailNode(node int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if node < 0 || node >= c.cfg.Nodes {
		return fmt.Errorf("stream: no node %d in cluster %s", node, c.cfg.Name)
	}
	if !c.nodeAlive[node] {
		return nil
	}
	c.nodeAlive[node] = false
	c.epoch++
	for _, t := range c.topics {
		for _, p := range t.partitions {
			p.mu.Lock()
			leader := p.leaderNode
			p.mu.Unlock()
			if leader != node {
				continue
			}
			if t.cfg.Acks == AckLeader {
				c.lostMessages += p.truncateUnreplicated()
			}
			newLeader := -1
			for _, r := range p.replicaNodes {
				if c.nodeAlive[r] {
					newLeader = r
					break
				}
			}
			if newLeader < 0 {
				p.setOffline(true)
			} else {
				p.mu.Lock()
				p.leaderNode = newLeader
				p.mu.Unlock()
			}
		}
	}
	return nil
}

// RecoverNode brings a failed node back; offline partitions whose leader was
// on it come back online (having lost their unreplicated tail already).
func (c *Cluster) RecoverNode(node int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if node < 0 || node >= c.cfg.Nodes {
		return fmt.Errorf("stream: no node %d in cluster %s", node, c.cfg.Name)
	}
	c.nodeAlive[node] = true
	c.epoch++
	for _, t := range c.topics {
		for _, p := range t.partitions {
			p.mu.Lock()
			wasOffline := p.offline && p.leaderNode == node
			p.mu.Unlock()
			if wasOffline {
				p.setOffline(false)
			}
		}
	}
	return nil
}

// LostMessages returns the cumulative count of messages lost to AckLeader
// leader failures — zero for AckAll (lossless) topics by construction.
func (c *Cluster) LostMessages() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.lostMessages
}

// PartitionStats returns a snapshot of every partition, for admin tooling.
// "bytes" is what retention charges the partition, "resident_bytes" what its
// log holds in memory (see partitionStats).
func (c *Cluster) PartitionStats() []map[string]any {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []map[string]any
	names := make([]string, 0, len(c.topics))
	for n := range c.topics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for _, p := range c.topics[n].partitions {
			s := p.stats()
			out = append(out, map[string]any{
				"topic": s.Topic, "partition": s.Partition,
				"low": s.LowWatermark, "high": s.HighWatermark,
				"replicated": s.Replicated, "segments": s.Segments,
				"bytes": s.Bytes, "resident_bytes": s.ResidentBytes,
				"leader": s.LeaderNode, "offline": s.Offline,
			})
		}
	}
	return out
}

// Hash is the 32-bit FNV-1a hash of key, the one hash that places topics,
// routes keyed messages to partitions, routes flow's keyBy and maps an OLAP
// partition-column value to its partition.
func Hash[K string | []byte](key K) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}
