package stream

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// ResetPolicy selects where a consumer group starts reading a partition with
// no committed offset.
type ResetPolicy int

const (
	// ResetEarliest starts at the low watermark (all retained data).
	ResetEarliest ResetPolicy = iota
	// ResetLatest starts at the high watermark (only new data).
	ResetLatest
)

// groupState is the broker-side coordinator state for one consumer group.
type groupState struct {
	mu            sync.Mutex
	generation    int64
	nextMember    int64
	subscriptions map[string][]string // memberID -> topics
	assignments   map[string][]TopicPartition
	committed     map[TopicPartition]int64
}

func (c *Cluster) group(name string) *groupState {
	c.mu.Lock()
	defer c.mu.Unlock()
	g, ok := c.groups[name]
	if !ok {
		g = &groupState{
			subscriptions: make(map[string][]string),
			assignments:   make(map[string][]TopicPartition),
			committed:     make(map[TopicPartition]int64),
		}
		c.groups[name] = g
	}
	return g
}

// rebalanceLocked recomputes range assignments: for each topic, its
// partitions are split into contiguous ranges over the subscribed members in
// member-id order. Members beyond the partition count receive nothing —
// the open-source consumer-group parallelism cap the consumer proxy
// (§4.1.3) exists to remove.
func (g *groupState) rebalanceLocked(c *Cluster) {
	g.generation++
	g.assignments = make(map[string][]TopicPartition, len(g.subscriptions))
	members := make([]string, 0, len(g.subscriptions))
	for m := range g.subscriptions {
		members = append(members, m)
		g.assignments[m] = nil
	}
	sort.Strings(members)
	topicSubs := make(map[string][]string)
	for _, m := range members {
		for _, t := range g.subscriptions[m] {
			topicSubs[t] = append(topicSubs[t], m)
		}
	}
	for topic, subs := range topicSubs {
		n, err := c.Partitions(topic)
		if err != nil {
			continue
		}
		per := n / len(subs)
		extra := n % len(subs)
		next := 0
		for i, m := range subs {
			count := per
			if i < extra {
				count++
			}
			for j := 0; j < count && next < n; j++ {
				g.assignments[m] = append(g.assignments[m], TopicPartition{Topic: topic, Partition: next})
				next++
			}
		}
	}
}

// Consumer reads topics as a member of a consumer group, with broker-side
// committed offsets: a Reader over the partitions the group assigns it,
// plus the assignment and the commits. It is NOT safe for concurrent use;
// each goroutine should own its consumer (matching the Kafka client
// contract).
type Consumer struct {
	cluster *Cluster
	g       *groupState
	id      string
	reset   ResetPolicy

	generation int64
	assigned   []TopicPartition
	reader     *Reader // over assigned, index for index
	nextIdx    int     // round-robin cursor over assigned partitions
	closed     bool
}

// NewConsumer joins the group, subscribing to the given topics, and triggers
// a rebalance. The default reset policy is ResetEarliest.
func (c *Cluster) NewConsumer(group string, topics ...string) *Consumer {
	g := c.group(group)
	g.mu.Lock()
	g.nextMember++
	id := fmt.Sprintf("%s-member-%d", group, g.nextMember)
	g.subscriptions[id] = append([]string(nil), topics...)
	g.rebalanceLocked(c)
	g.mu.Unlock()
	return &Consumer{
		cluster: c,
		g:       g,
		id:      id,
		reader:  &Reader{cluster: c},
	}
}

// SetResetPolicy changes where unpositioned partitions start. It affects
// partitions first read after the call.
func (k *Consumer) SetResetPolicy(p ResetPolicy) { k.reset = p }

// ID returns the group member id.
func (k *Consumer) ID() string { return k.id }

// Assignment returns the partitions currently assigned to this member.
func (k *Consumer) Assignment() []TopicPartition {
	k.refreshAssignment()
	return append([]TopicPartition(nil), k.assigned...)
}

// refreshAssignment picks up a rebalance: the reader goes over to the new
// assignment, each partition at the position (and log epoch) it had before
// the rebalance, else the group's committed offset, else where the reset
// policy starts (an unreadable partition starts at 0 and is repaired when
// read).
func (k *Consumer) refreshAssignment() {
	k.g.mu.Lock()
	defer k.g.mu.Unlock()
	if k.g.generation == k.generation {
		return
	}
	assigned := append([]TopicPartition(nil), k.g.assignments[k.id]...)
	at := make([]Position, len(assigned))
	kept := make([]int, len(assigned))
	offsets := k.reader.Offsets()
	for i, tp := range assigned {
		at[i].TopicPartition = tp
		kept[i] = k.index(tp)
		if j := kept[i]; j >= 0 {
			at[i].Offset = offsets[j]
		} else if off, ok := k.g.committed[tp]; ok {
			at[i].Offset = off
		} else {
			at[i].Offset, _ = k.cluster.startOffset(tp, k.reset)
		}
	}
	k.generation, k.assigned, k.nextIdx = k.g.generation, assigned, 0
	k.reader.assign(at, kept)
}

// index returns tp's place in the assignment, -1 when it is not assigned.
func (k *Consumer) index(tp TopicPartition) int {
	for i, a := range k.assigned {
		if a == tp {
			return i
		}
	}
	return -1
}

// Poll returns up to max messages, waiting up to maxWait for data. It cycles
// fairly over assigned partitions. An empty return means no data arrived
// within maxWait. An idle poll parks in the reader's Wait on the assigned
// positions; a rebalance is picked up when the wait ends.
func (k *Consumer) Poll(maxWait time.Duration, max int) []Message {
	if k.closed || max <= 0 {
		return nil
	}
	deadline := time.Now().Add(maxWait)
	for {
		k.refreshAssignment()
		left := time.Until(deadline)
		k.reader.Wait(left)
		var out []Message
		for range k.assigned {
			i := k.nextIdx % len(k.assigned)
			k.nextIdx++
			// An unavailable partition is skipped; Wait is the back-off.
			msgs, _ := k.reader.Fetch(i, max-len(out))
			if len(msgs) > 0 {
				k.reader.Seek(i, msgs[len(msgs)-1].Offset+1)
				out = append(out, msgs...)
			}
			if len(out) >= max {
				return out
			}
		}
		if len(out) > 0 || left <= 0 {
			return out
		}
	}
}

// Commit persists the consumer's current positions as the group's committed
// offsets for its assigned partitions.
func (k *Consumer) Commit() {
	offsets := k.reader.Offsets()
	k.g.mu.Lock()
	defer k.g.mu.Unlock()
	for i, tp := range k.assigned {
		k.g.committed[tp] = offsets[i]
	}
}

// CommitOffset persists an explicit offset for one partition.
func (k *Consumer) CommitOffset(tp TopicPartition, offset int64) {
	k.g.mu.Lock()
	k.g.committed[tp] = offset
	k.g.mu.Unlock()
}

// Seek moves the consumer's read position for an assigned partition.
func (k *Consumer) Seek(tp TopicPartition, offset int64) {
	k.refreshAssignment()
	if i := k.index(tp); i >= 0 {
		k.reader.Seek(i, offset)
	}
}

// Position returns the next offset the consumer will read for tp.
func (k *Consumer) Position(tp TopicPartition) int64 {
	k.refreshAssignment()
	if i := k.index(tp); i >= 0 {
		return k.reader.Offsets()[i]
	}
	return 0
}

// Lag returns the total unconsumed backlog across assigned partitions,
// measured against the consumer's read positions.
func (k *Consumer) Lag() int64 {
	k.refreshAssignment()
	return k.reader.Lag()
}

// Close leaves the group, triggering a rebalance of its partitions to the
// remaining members.
func (k *Consumer) Close() {
	if k.closed {
		return
	}
	k.closed = true
	k.g.mu.Lock()
	delete(k.g.subscriptions, k.id)
	delete(k.g.assignments, k.id)
	k.g.rebalanceLocked(k.cluster)
	k.g.mu.Unlock()
}

// Committed returns the group's committed offset for tp (0 if none).
func (c *Cluster) Committed(group string, tp TopicPartition) int64 {
	g := c.group(group)
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.committed[tp]
}

// CommitGroupOffset sets a group's committed offset directly — used by the
// cross-region offset sync service (§6) to prime a passive region.
func (c *Cluster) CommitGroupOffset(group string, tp TopicPartition, offset int64) {
	g := c.group(group)
	g.mu.Lock()
	g.committed[tp] = offset
	g.mu.Unlock()
}

// GroupLag returns the total backlog of a group over a topic, measured from
// committed offsets to high watermarks.
func (c *Cluster) GroupLag(group, topic string) int64 {
	n, err := c.Partitions(topic)
	if err != nil {
		return 0
	}
	g := c.group(group)
	at := make([]Position, n)
	g.mu.Lock()
	for i := range at {
		at[i].TopicPartition = TopicPartition{Topic: topic, Partition: i}
		at[i].Offset = g.committed[at[i].TopicPartition]
	}
	g.mu.Unlock()
	return c.lag(at)
}
