package stream

import (
	"fmt"
	"sync"
	"time"
)

// segment is one chunk of a partition's log. Like Kafka, retention removes
// whole segments from the head of the log, never individual messages.
type segment struct {
	baseOffset int64
	messages   []Message
	bytes      int64
	maxTime    time.Time
}

// partition is a single partition's replicated log. All access goes through
// the owning topic/cluster which handles leader placement; partition itself
// is safe for concurrent use.
type partition struct {
	topic string
	index int
	cfg   TopicConfig
	clock Clock

	mu sync.Mutex
	// waiters are the goroutines parked in Cluster.Wait on this partition;
	// a produce that appended here and every availability change wake and
	// drop them.
	waiters []*waiter

	segments []*segment
	// logStart is the low watermark: the oldest retained offset.
	logStart int64
	// next is the high watermark: the offset the next append receives.
	next int64
	// replicated is the highest offset (exclusive) known to be on all
	// in-sync replicas. For AckAll topics it always equals next; for
	// AckLeader topics it lags by the asynchronous replication window.
	replicated int64
	// leaderNode is the node hosting the leader replica; replicaNodes are
	// the follower nodes. Used by the cluster's failure simulation.
	leaderNode   int
	replicaNodes []int
	offline      bool
	// cuts holds, for every truncation of this log, the offset it was cut
	// at; len(cuts) is the log's epoch (Kafka's leader epoch). Offsets at or
	// above a cut that were handed out before it name messages that are
	// gone — the same offsets are assigned again when the log regrows — so a
	// reader compares the epoch it last read under with this one (resume).
	cuts []int64

	totalBytes int64
}

func newPartition(topic string, index int, cfg TopicConfig, clock Clock) *partition {
	return &partition{topic: topic, index: index, cfg: cfg, clock: clock}
}

// append adds messages to the log and returns the base offset assigned to
// the first of them. For AckAll topics the replicated watermark advances
// synchronously (the in-process stand-in for waiting on ISR acks). It does
// not wake the partition's waiters: Cluster.Produce does, once the whole
// batch is in.
func (p *partition) append(msgs []Message) (int64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.offline {
		return 0, fmt.Errorf("%w: %s[%d]", ErrPartitionOffline, p.topic, p.index)
	}
	base := p.next
	now := p.clock()
	for i := range msgs {
		msgs[i].Topic = p.topic
		msgs[i].Partition = p.index
		msgs[i].Offset = p.next
		if msgs[i].Timestamp == 0 {
			msgs[i].Timestamp = now.UnixMilli()
		}
		p.appendOneLocked(msgs[i], now)
	}
	if p.cfg.Acks == AckAll {
		p.replicated = p.next
	}
	p.enforceRetentionLocked(now)
	return base, nil
}

func (p *partition) appendOneLocked(m Message, now time.Time) {
	seg := p.activeSegmentLocked()
	sz := m.sizeBytes()
	seg.messages = append(seg.messages, m)
	seg.bytes += sz
	if t := time.UnixMilli(m.Timestamp); t.After(seg.maxTime) {
		seg.maxTime = t
	}
	p.totalBytes += sz
	p.next++
}

func (p *partition) activeSegmentLocked() *segment {
	if len(p.segments) == 0 {
		p.segments = append(p.segments, &segment{baseOffset: p.next})
	}
	last := p.segments[len(p.segments)-1]
	if last.bytes >= p.cfg.SegmentBytes {
		last = &segment{baseOffset: p.next}
		p.segments = append(p.segments, last)
	}
	return last
}

// enforceRetentionLocked drops whole head segments violating the byte or
// time retention bounds. The active (last) segment is never dropped.
func (p *partition) enforceRetentionLocked(now time.Time) {
	for len(p.segments) > 1 {
		head := p.segments[0]
		overBytes := p.cfg.RetentionBytes > 0 && p.totalBytes > p.cfg.RetentionBytes
		overTime := p.cfg.RetentionTime > 0 && now.Sub(head.maxTime) > p.cfg.RetentionTime
		if !overBytes && !overTime {
			return
		}
		p.totalBytes -= head.bytes
		p.segments = p.segments[1:]
		p.logStart = p.segments[0].baseOffset
	}
}

// advanceReplication moves the async-replication watermark forward (called
// by the cluster's background replication pump for AckLeader topics).
func (p *partition) advanceReplication() {
	p.mu.Lock()
	p.replicated = p.next
	p.mu.Unlock()
}

// fetch returns up to max messages starting at offset. A fetch exactly at
// the high watermark returns an empty slice; below the low watermark or
// beyond the high watermark it returns ErrOffsetOutOfRange.
func (p *partition) fetch(offset int64, max int) ([]Message, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fetchLocked(offset, max)
}

func (p *partition) fetchLocked(offset int64, max int) ([]Message, error) {
	if p.offline {
		return nil, fmt.Errorf("%w: %s[%d]", ErrPartitionOffline, p.topic, p.index)
	}
	if offset < p.logStart || offset > p.next {
		return nil, fmt.Errorf("%w: %s[%d] offset %d, range [%d,%d)", ErrOffsetOutOfRange, p.topic, p.index, offset, p.logStart, p.next)
	}
	if offset == p.next {
		return nil, nil
	}
	n := p.next - offset
	if max > 0 && n > int64(max) {
		n = int64(max)
	}
	out := make([]Message, 0, n)
	for _, seg := range p.segments {
		segEnd := seg.baseOffset + int64(len(seg.messages))
		if offset >= segEnd {
			continue
		}
		start := 0
		if offset > seg.baseOffset {
			start = int(offset - seg.baseOffset)
		}
		take := seg.messages[start:]
		if room := int(n) - len(out); len(take) > room {
			take = take[:room]
		}
		out = append(out, take...)
		if len(out) == int(n) {
			break
		}
	}
	return out, nil
}

// watermarks returns the low (oldest retained) and high (next write) offsets.
func (p *partition) watermarks() (low, high int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.logStart, p.next
}

// setOffline marks the partition unavailable (leader lost with no replica).
func (p *partition) setOffline(off bool) {
	p.mu.Lock()
	p.offline = off
	p.wakeLocked()
	p.mu.Unlock()
}

// truncateUnreplicated drops messages above the replicated watermark — the
// data-loss event when an AckLeader topic's leader node fails before async
// replication catches up — and records the cut. It returns the number of
// messages lost.
func (p *partition) truncateUnreplicated() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	lost := p.next - p.replicated
	if lost <= 0 {
		return 0
	}
	remaining := p.replicated
	p.cuts = append(p.cuts, remaining)
	for i, seg := range p.segments {
		segEnd := seg.baseOffset + int64(len(seg.messages))
		if segEnd <= remaining {
			continue
		}
		keep := 0
		if remaining > seg.baseOffset {
			keep = int(remaining - seg.baseOffset)
		}
		for _, m := range seg.messages[keep:] {
			p.totalBytes -= m.sizeBytes()
		}
		seg.messages = seg.messages[:keep]
		p.segments = p.segments[:i+1]
		break
	}
	p.next = remaining
	return lost
}

// resume is the one place a faulty read position is decided. A reader that
// stands at offset and last read under epoch (negative: none, it only asks) gets
// back where to read next and the epoch now. Every truncation since its
// epoch pulls an offset above the cut back to the cut, whether or not the
// log has regrown past it since; when its fetch was out of range, what is
// left is a position retention has passed (→ the low watermark) or one
// beyond a log that was never cut under it, such as a restored checkpoint of
// a recreated topic (→ the high watermark).
func (p *partition) resume(offset int64, epoch int, outOfRange bool) (int64, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if epoch >= 0 && epoch < len(p.cuts) {
		for _, cut := range p.cuts[epoch:] {
			offset = min(offset, cut)
		}
	}
	if outOfRange {
		offset = min(max(offset, p.logStart), p.next)
	}
	return offset, len(p.cuts)
}

// stats is a snapshot used by admin tooling and benchmarks.
type partitionStats struct {
	Topic         string
	Partition     int
	LowWatermark  int64
	HighWatermark int64
	Replicated    int64
	Bytes         int64
	Segments      int
	LeaderNode    int
	Offline       bool
}

func (p *partition) stats() partitionStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return partitionStats{
		Topic:         p.topic,
		Partition:     p.index,
		LowWatermark:  p.logStart,
		HighWatermark: p.next,
		Replicated:    p.replicated,
		Bytes:         p.totalBytes,
		Segments:      len(p.segments),
		LeaderNode:    p.leaderNode,
		Offline:       p.offline,
	}
}
