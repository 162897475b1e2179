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
// mapping into a shared store — first of all where a partition's data starts
// in the destination — which the §6 active/passive offset sync service
// consumes for cross-region consumer failover.
//
// It reads the source through one stream.Reader over every partition of its
// topics — positions, the park while the source is idle, repair of a
// position the source log no longer has and the lag sum are the reader's —
// and adds the copy, the worker assignment, the pace and the checkpoints.
package replicator

import (
	"fmt"
	"sync"
	"sync/atomic"
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
	return c
}

// Replicator copies the configured topics from a source cluster to a
// destination cluster, preserving partition assignment (source partition i
// writes to destination partition i) and stamping HeaderOrigin so audit
// tooling can distinguish replicated from natively produced messages.
type Replicator struct {
	src, dst   *stream.Cluster
	partitions []stream.TopicPartition // every partition of the topics
	reader     *stream.Reader          // over partitions, on src
	copied     []int64                 // per partition, messages copied; run's alone
	replicated atomic.Int64            // their sum, for everyone else
	cfg        Config
	ckpt       CheckpointStore

	mu         sync.Mutex
	assignment Assignment
	active     []string
	standby    []string
	moved      int64

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
	reader, err := src.NewReader(stream.ResetEarliest, partitions...)
	if err != nil {
		return nil, err
	}
	r := &Replicator{
		src:        src,
		dst:        dst,
		partitions: partitions,
		reader:     reader,
		copied:     make([]int64, len(partitions)),
		cfg:        cfg,
		ckpt:       ckpt,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
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

// replicateWait bounds one park on an idle source, and so how long Stop can
// take. replicatePace is the least time between two rounds while there is
// something to copy — the WAN hop. It is what keeps the replicators that
// feed the aggregates from one burst in step, a batch each per pace, so the
// aggregates interleave the regions alike and an offset translated from one
// to another (regions.OffsetSync) lands a few batches back, not at the
// start; it is also the retry pause while a destination refuses writes.
const (
	replicateWait = 10 * time.Millisecond
	replicatePace = time.Millisecond
)

func (r *Replicator) run() {
	defer close(r.done)
	for {
		// Wait parks through a source outage too (nothing is fetchable).
		woke := r.reader.Wait(replicateWait)
		select {
		case <-r.stop:
			return
		default:
		}
		r.replicateRound()
		r.adaptToLoad()
		if woke {
			time.Sleep(replicatePace)
		}
	}
}

// replicateRound copies up to BatchSize messages per partition, each tried
// whatever became of the others. Every partition is copied every round: the
// workers are simulated, and the assignment is accounting (how many
// partitions a join, a leave or a burst moves), not who copies what.
func (r *Replicator) replicateRound() {
	for i := range r.partitions {
		r.replicatePartition(i)
	}
}

// replicatePartition copies one batch of partition i, an index into
// r.partitions.
func (r *Replicator) replicatePartition(i int) {
	tp := r.partitions[i]
	msgs, err := r.reader.Fetch(i, r.cfg.BatchSize)
	if err != nil || len(msgs) == 0 {
		return // an unavailable source is waited out in Wait
	}
	out := make([]stream.Message, len(msgs))
	for j, m := range msgs {
		headers := make(map[string]string, len(m.Headers)+1)
		for k, v := range m.Headers {
			headers[k] = v
		}
		headers[stream.HeaderOrigin] = r.src.Name()
		// The audit fields travel with the copy, so an end-to-end audit
		// matches a replicated message to its original by uuid.
		out[j] = stream.Message{
			Key: m.Key, Value: m.Value, Timestamp: m.Timestamp, Partition: tp.Partition,
			Service: m.Service, Tier: m.Tier, Seq: m.Seq, AppTime: m.AppTime,
			Headers: headers,
		}
	}
	if r.copied[i] == 0 {
		// Where this source's data starts in the destination: what the
		// offset sync falls back on for a group that has read none of it.
		r.checkpoint(tp, msgs[0].Offset)
	}
	if err := r.produceToPartition(tp, out); err != nil {
		return // fetched again next round: the position has not moved
	}
	newPos := msgs[len(msgs)-1].Offset + 1
	r.reader.Seek(i, newPos)
	r.replicated.Add(int64(len(msgs)))
	every, before := r.cfg.CheckpointEvery, r.copied[i]
	r.copied[i] += int64(len(msgs))
	if before/every != r.copied[i]/every {
		r.checkpoint(tp, newPos)
	}
}

// checkpoint records that the source's messages below srcOffset lie below
// the destination's current high watermark, and the rest at or above it.
func (r *Replicator) checkpoint(tp stream.TopicPartition, srcOffset int64) {
	if r.ckpt == nil {
		return
	}
	_, dstHigh, _ := r.dst.Watermarks(tp)
	r.ckpt.SaveMapping(r.src.Name(), r.dst.Name(), OffsetMapping{
		Topic: tp.Topic, Partition: tp.Partition,
		SrcOffset: srcOffset, DstOffset: dstHigh,
	})
}

// produceToPartition appends a batch to one specific destination partition,
// so that source partition i lands on destination partition i. The broker
// assigns unkeyed message j of a batch to (rrHint+j) % n, which would spread
// a batch across partitions: produce one message at a time with rrHint =
// partition to pin the placement.
func (r *Replicator) produceToPartition(tp stream.TopicPartition, msgs []stream.Message) error {
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
		next, moved := StickyRebalance(r.assignment, r.active, r.partitions)
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
	next, moved := StickyRebalance(r.assignment, r.active, r.partitions)
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
	next, moved := StickyRebalance(r.assignment, r.active, r.partitions)
	r.assignment = next
	r.moved += int64(moved)
	return moved
}

// Lag returns the total unreplicated backlog across the topics' partitions.
func (r *Replicator) Lag() int64 { return r.reader.Lag() }

// Replicated returns the total number of messages copied so far.
func (r *Replicator) Replicated() int64 { return r.replicated.Load() }

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
