package stream

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

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

// append adds msgs[i] for each i of picks, in that order, to the log — the
// share of a produced batch that is this partition's, encoded straight from
// the caller's slice, which is neither written nor kept. For AckAll topics
// the replicated watermark advances synchronously (the in-process stand-in
// for waiting on ISR acks). It does not wake the partition's waiters:
// Cluster.Produce does, once the whole batch is in.
func (p *partition) append(msgs []Message, picks []int32) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.offline {
		return fmt.Errorf("%w: %s[%d]", ErrPartitionOffline, p.topic, p.index)
	}
	now := p.clock()
	for _, i := range picks {
		m := &msgs[i]
		ts := m.Timestamp
		if ts == 0 {
			ts = now.UnixMilli()
		}
		sz := m.sizeBytes()
		p.activeSegmentLocked().append(m, ts, sz, p.cfg.SegmentBytes+sz)
		p.totalBytes += sz
		p.next++
	}
	if p.cfg.Acks == AckAll {
		p.replicated = p.next
	}
	p.enforceRetentionLocked(now)
	return nil
}

// activeSegmentLocked returns the segment the next message goes to, rolling
// a new one when the last has been charged its fill.
func (p *partition) activeSegmentLocked() *segment {
	var last *segment
	if len(p.segments) > 0 {
		last = p.segments[len(p.segments)-1]
		if last.bytes < p.cfg.SegmentBytes {
			return last
		}
		last.seal()
	}
	last = newSegment(p.next, last)
	p.segments = append(p.segments, last)
	return last
}

// enforceRetentionLocked drops whole head segments violating the byte or
// time retention bounds. The active (last) segment is never dropped.
func (p *partition) enforceRetentionLocked(now time.Time) {
	for len(p.segments) > 1 {
		head := p.segments[0]
		overBytes := p.cfg.RetentionBytes > 0 && p.totalBytes > p.cfg.RetentionBytes
		overTime := p.cfg.RetentionTime > 0 && now.Sub(time.UnixMilli(head.maxTime)) > p.cfg.RetentionTime
		if !overBytes && !overTime {
			return
		}
		p.totalBytes -= head.bytes
		p.segments[0] = nil // the array outlives the reslice; the slab must not
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

// fetch appends up to max messages starting at offset to buf[:0] and returns
// it (a nil buf is sized once, to what the fetch returns). A fetch exactly at
// the high watermark returns no messages; below the low watermark or beyond
// the high watermark it returns ErrOffsetOutOfRange.
func (p *partition) fetch(buf []Message, offset int64, max int) ([]Message, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.offline {
		return nil, fmt.Errorf("%w: %s[%d]", ErrPartitionOffline, p.topic, p.index)
	}
	if offset < p.logStart || offset > p.next {
		return nil, fmt.Errorf("%w: %s[%d] offset %d, range [%d,%d)", ErrOffsetOutOfRange, p.topic, p.index, offset, p.logStart, p.next)
	}
	n := int(p.next - offset)
	if max > 0 && n > max {
		n = max
	}
	out := buf[:0]
	if cap(out) < n {
		out = make([]Message, 0, n)
	}
	// The last segment that begins at or below offset holds it.
	si := sort.Search(len(p.segments), func(i int) bool { return p.segments[i].baseOffset > offset }) - 1
	for ; len(out) < n; si++ {
		seg := p.segments[si]
		for i := int(offset - seg.baseOffset); i < seg.count() && len(out) < n; i++ {
			out = out[:len(out)+1]
			m := &out[len(out)-1]
			m.Topic, m.Partition, m.Offset = p.topic, p.index, offset
			seg.message(i, m)
			offset++
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
	cut := p.replicated
	p.cuts = append(p.cuts, cut)
	// Whole segments above the cut go, then the tail of the one it falls in.
	for last := len(p.segments) - 1; last >= 0; last-- {
		seg := p.segments[last]
		if seg.baseOffset < cut {
			p.totalBytes -= seg.truncate(int(cut - seg.baseOffset))
			break
		}
		p.totalBytes -= seg.bytes
		p.segments[last] = nil
		p.segments = p.segments[:last]
	}
	// Retention may have outrun replication: nothing retained is below the
	// cut then, and the empty log stands at it.
	p.logStart = min(p.logStart, cut)
	p.next = cut
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
	// Bytes is what retention charges (sizeBytes per message); ResidentBytes
	// is what the log holds in memory: the capacities of the retained
	// segments' slabs and indexes.
	Bytes         int64
	ResidentBytes int64
	Segments      int
	LeaderNode    int
	Offline       bool
}

func (p *partition) stats() partitionStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var resident int64
	for _, seg := range p.segments {
		resident += seg.residentBytes()
	}
	return partitionStats{
		Topic:         p.topic,
		Partition:     p.index,
		LowWatermark:  p.logStart,
		HighWatermark: p.next,
		Replicated:    p.replicated,
		Bytes:         p.totalBytes,
		ResidentBytes: resident,
		Segments:      len(p.segments),
		LeaderNode:    p.leaderNode,
		Offline:       p.offline,
	}
}
