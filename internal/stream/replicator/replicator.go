// Package replicator implements uReplicator (§4.1.4): robust, elastic
// cross-cluster replication of topics. Its two algorithmic contributions are
// reproduced faithfully:
//
//   - a sticky rebalancing algorithm that minimizes the number of affected
//     topic-partitions when workers join or leave (experiment E8 compares it
//     against a naive modulo reassignment);
//   - adaptivity to bursty workloads: when a worker's replication lag
//     exceeds a threshold, the controller redistributes some of its
//     partitions to standby workers.
//
// The replicator also periodically checkpoints the source→destination offset
// mapping into a shared store, which the §6 active/passive offset sync
// service consumes for cross-region consumer failover.
package replicator

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/sticky"
	"repro/internal/stream"
)

// OffsetMapping records that source offset SrcOffset of a topic-partition
// was written to the destination cluster at DstOffset. Checkpointed
// periodically (§6, Fig 7).
type OffsetMapping struct {
	Topic     string
	Partition int
	SrcOffset int64 // next source offset after the last replicated message
	DstOffset int64 // destination high watermark after that write
}

// CheckpointStore receives offset-mapping checkpoints. The regions package
// implements this with its replicated "active-active database".
type CheckpointStore interface {
	SaveMapping(src, dst string, m OffsetMapping)
}

// Assignment maps worker IDs to their topic-partitions.
type Assignment map[string][]stream.TopicPartition

// clone deep-copies an assignment.
func (a Assignment) clone() Assignment {
	c := make(Assignment, len(a))
	for w, tps := range a {
		c[w] = append([]stream.TopicPartition(nil), tps...)
	}
	return c
}

// count returns the total number of assigned partitions.
func (a Assignment) count() int {
	n := 0
	for _, tps := range a {
		n += len(tps)
	}
	return n
}

// tpLess is the deterministic topic-partition order the rebalance
// strategies place orphans in.
func tpLess(a, b stream.TopicPartition) bool {
	if a.Topic != b.Topic {
		return a.Topic < b.Topic
	}
	return a.Partition < b.Partition
}

// StickyRebalance computes a new assignment for the given workers, keeping
// every partition on its current worker when possible and moving only the
// minimum needed to fill new workers up to the balanced share. It returns
// the new assignment and the number of moved partitions. The algorithm is
// the shared sticky-assignment core (internal/sticky) with no placement
// constraints — the same algebra the OLAP segment rebalancer applies to
// sealed-segment replicas.
func StickyRebalance(current Assignment, workers []string, partitions []stream.TopicPartition) (Assignment, int) {
	next, moved := sticky.Rebalance(current, workers, partitions,
		sticky.Options[stream.TopicPartition]{Less: tpLess})
	return next, moved
}

// NaiveRebalance is the baseline strategy: partition i goes to worker
// i % len(workers), with no regard for current placement. It returns the new
// assignment and the number of partitions that changed workers.
func NaiveRebalance(current Assignment, workers []string, partitions []stream.TopicPartition) (Assignment, int) {
	next, moved := sticky.Naive(current, workers, partitions, tpLess)
	return next, moved
}

// Config tunes a Replicator.
type Config struct {
	// Workers is the initial active worker count. Default 2.
	Workers int
	// Standby is the number of standby workers available for burst
	// redistribution. Default 0.
	Standby int
	// LagThreshold is the per-worker backlog (messages) above which the
	// controller activates a standby and redistributes. Default 1000.
	LagThreshold int64
	// BatchSize is the per-fetch replication batch. Default 256.
	BatchSize int
	// CheckpointEvery is how many replicated messages trigger an offset
	// mapping checkpoint per partition. Default 100.
	CheckpointEvery int64
	// Interval is the worker poll interval. Default 2ms.
	Interval time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.LagThreshold <= 0 {
		c.LagThreshold = 1000
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 100
	}
	if c.Interval <= 0 {
		c.Interval = 2 * time.Millisecond
	}
	return c
}

// Replicator copies the configured topics from a source cluster to a
// destination cluster, preserving partition assignment (source partition i
// writes to destination partition i) and stamping HeaderOrigin so audit
// tooling can distinguish replicated from natively produced messages.
type Replicator struct {
	src, dst *stream.Cluster
	topics   []string
	cfg      Config
	ckpt     CheckpointStore

	mu         sync.Mutex
	assignment Assignment
	positions  map[stream.TopicPartition]int64
	sinceCkpt  map[stream.TopicPartition]int64
	active     []string
	standby    []string
	moved      int64
	replicated int64

	stop chan struct{}
	done chan struct{}
}

// New creates a replicator between two clusters for the given topics. The
// destination topics must already exist with the same partition counts.
// ckpt may be nil to disable offset-mapping checkpoints.
func New(src, dst *stream.Cluster, topics []string, cfg Config, ckpt CheckpointStore) (*Replicator, error) {
	cfg = cfg.withDefaults()
	var partitions []stream.TopicPartition
	for _, t := range topics {
		n, err := src.Partitions(t)
		if err != nil {
			return nil, err
		}
		dn, err := dst.Partitions(t)
		if err != nil {
			return nil, fmt.Errorf("replicator: destination missing topic %s: %w", t, err)
		}
		if dn != n {
			return nil, fmt.Errorf("replicator: partition mismatch for %s: src %d dst %d", t, n, dn)
		}
		for i := 0; i < n; i++ {
			partitions = append(partitions, stream.TopicPartition{Topic: t, Partition: i})
		}
	}
	r := &Replicator{
		src:       src,
		dst:       dst,
		topics:    topics,
		cfg:       cfg,
		ckpt:      ckpt,
		positions: make(map[stream.TopicPartition]int64),
		sinceCkpt: make(map[stream.TopicPartition]int64),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	for i := 0; i < cfg.Workers; i++ {
		r.active = append(r.active, fmt.Sprintf("worker-%d", i))
	}
	for i := 0; i < cfg.Standby; i++ {
		r.standby = append(r.standby, fmt.Sprintf("standby-%d", i))
	}
	r.assignment, _ = StickyRebalance(nil, r.active, partitions)
	return r, nil
}

// Start launches the controller loop; Stop shuts it down.
func (r *Replicator) Start() { go r.run() }

// Stop halts replication and waits for the controller to exit.
func (r *Replicator) Stop() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	<-r.done
}

// partitionsList returns all partitions across the replicator's topics.
func (r *Replicator) partitionsList() []stream.TopicPartition {
	var out []stream.TopicPartition
	for _, t := range r.topics {
		n, err := r.src.Partitions(t)
		if err != nil {
			continue
		}
		for i := 0; i < n; i++ {
			out = append(out, stream.TopicPartition{Topic: t, Partition: i})
		}
	}
	return out
}

func (r *Replicator) run() {
	defer close(r.done)
	ticker := time.NewTicker(r.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
			r.replicateRound()
			r.adaptToLoad()
		}
	}
}

// replicateRound copies up to BatchSize messages per assigned partition.
// Workers are simulated as sequential slices of the round; their identity
// matters for assignment-churn accounting, not for throughput here.
func (r *Replicator) replicateRound() {
	r.mu.Lock()
	assignment := r.assignment.clone()
	r.mu.Unlock()
	for _, tps := range assignment {
		for _, tp := range tps {
			r.replicatePartition(tp)
		}
	}
}

func (r *Replicator) replicatePartition(tp stream.TopicPartition) {
	r.mu.Lock()
	pos := r.positions[tp]
	r.mu.Unlock()
	msgs, err := r.src.Fetch(tp, pos, r.cfg.BatchSize)
	if err != nil {
		// Source retention may have advanced; skip to the low watermark.
		if low, _, werr := r.src.Watermarks(tp); werr == nil && pos < low {
			r.mu.Lock()
			r.positions[tp] = low
			r.mu.Unlock()
		}
		return
	}
	if len(msgs) == 0 {
		return
	}
	out := make([]stream.Message, len(msgs))
	for i, m := range msgs {
		headers := make(map[string]string, len(m.Headers)+1)
		for k, v := range m.Headers {
			headers[k] = v
		}
		headers[stream.HeaderOrigin] = r.src.Name()
		// The audit fields travel with the copy, so an end-to-end audit
		// matches a replicated message to its original by uuid.
		out[i] = stream.Message{
			Key: m.Key, Value: m.Value, Timestamp: m.Timestamp, Partition: tp.Partition,
			Service: m.Service, Tier: m.Tier, Seq: m.Seq, AppTime: m.AppTime,
			Headers: headers,
		}
	}
	// Preserve partition: write directly to the matching destination
	// partition by using keys only when present; the destination cluster
	// routes by explicit partition when keys are absent. We emulate
	// partition-preserving produce by sending per-partition batches keyed
	// to land on tp.Partition via rrHint.
	if err := r.produceToPartition(tp, out); err != nil {
		return
	}
	newPos := msgs[len(msgs)-1].Offset + 1
	r.mu.Lock()
	r.positions[tp] = newPos
	r.replicated += int64(len(msgs))
	r.sinceCkpt[tp] += int64(len(msgs))
	doCkpt := r.sinceCkpt[tp] >= r.cfg.CheckpointEvery
	if doCkpt {
		r.sinceCkpt[tp] = 0
	}
	r.mu.Unlock()
	if doCkpt && r.ckpt != nil {
		_, dstHigh, _ := r.dst.Watermarks(tp)
		r.ckpt.SaveMapping(r.src.Name(), r.dst.Name(), OffsetMapping{
			Topic: tp.Topic, Partition: tp.Partition,
			SrcOffset: newPos, DstOffset: dstHigh,
		})
	}
}

// produceToPartition appends a batch to one specific destination partition.
// Unkeyed messages with rrHint spread round-robin, so to pin the partition
// we exploit the broker's routing: rrHint = partition for a batch of size n
// would spread across partitions. Instead we produce each batch with an
// rrHint that maps every message to tp.Partition.
func (r *Replicator) produceToPartition(tp stream.TopicPartition, msgs []stream.Message) error {
	// The broker assigns unkeyed message i to (rrHint+i) % n. Produce one
	// message at a time with rrHint = partition to pin placement; batch
	// inserts would interleave across partitions otherwise.
	for i := range msgs {
		if err := r.dst.Produce(tp.Topic, msgs[i:i+1], int64(tp.Partition)); err != nil {
			return err
		}
	}
	return nil
}

// adaptToLoad activates standby workers when total lag exceeds the
// threshold, redistributing partitions stickily (the elasticity behavior).
func (r *Replicator) adaptToLoad() {
	lag := r.Lag()
	r.mu.Lock()
	defer r.mu.Unlock()
	if lag > r.cfg.LagThreshold && len(r.standby) > 0 {
		promoted := r.standby[0]
		r.standby = r.standby[1:]
		r.active = append(r.active, promoted)
		next, moved := StickyRebalance(r.assignment, r.active, r.partitionsList())
		r.assignment = next
		r.moved += int64(moved)
	}
}

// AddWorker adds an active worker and rebalances stickily, returning the
// number of moved partitions.
func (r *Replicator) AddWorker(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.active = append(r.active, name)
	next, moved := StickyRebalance(r.assignment, r.active, r.partitionsList())
	r.assignment = next
	r.moved += int64(moved)
	return moved
}

// RemoveWorker removes a worker and rebalances stickily, returning the
// number of moved partitions (at least the removed worker's share).
func (r *Replicator) RemoveWorker(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var remaining []string
	for _, w := range r.active {
		if w != name {
			remaining = append(remaining, w)
		}
	}
	r.active = remaining
	next, moved := StickyRebalance(r.assignment, r.active, r.partitionsList())
	r.assignment = next
	r.moved += int64(moved)
	return moved
}

// Lag returns the total unreplicated backlog across assigned partitions.
func (r *Replicator) Lag() int64 {
	r.mu.Lock()
	positions := make(map[stream.TopicPartition]int64, len(r.positions))
	for tp, p := range r.positions {
		positions[tp] = p
	}
	r.mu.Unlock()
	var lag int64
	for _, tp := range r.partitionsList() {
		_, high, err := r.src.Watermarks(tp)
		if err != nil {
			continue
		}
		if d := high - positions[tp]; d > 0 {
			lag += d
		}
	}
	return lag
}

// Replicated returns the total number of messages copied so far.
func (r *Replicator) Replicated() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.replicated
}

// MovedPartitions returns the cumulative count of partition reassignments.
func (r *Replicator) MovedPartitions() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.moved
}

// ActiveWorkers returns the current active worker names.
func (r *Replicator) ActiveWorkers() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.active...)
}
