package stream

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Reader tails an explicit set of partitions — Kafka's assign() beside
// Consumer's subscribe() — and is the one log reader of the stack: the
// group consumer, the flow source, the OLAP ingester and the replicator
// each own one and add only what is theirs (commits, decoding, ingestion,
// the copy). It holds the positions, parks in the cluster's Wait, fetches,
// and decides what a position that no longer names the next unread message
// becomes (partition.resume), counting each such repair.
//
// One goroutine owns a Reader and calls Wait, Fetch and Seek; Lag, Offsets
// and Repairs may be called from any goroutine, also while the owner is
// parked. Fetch does not move a position: the owner Seeks as far as it got
// (an ingester advances by the rows its table took, not the rows fetched).
type Reader struct {
	cluster *Cluster

	// mu orders the owner's writes of at[i].Offset against Lag and Offsets
	// on other goroutines. The owner reads without it, and holds it neither
	// parked nor fetching.
	mu sync.Mutex
	at []Position
	// epochs[i] is the log epoch partition i's position is of: the one it
	// was last read under, before that the one it was assigned under (0, a
	// log never cut, where there was none to ask). Only the owner touches it.
	epochs  []int
	repairs atomic.Int64
	// buf is the last fetch, and what the next decodes into. Only the owner
	// touches it.
	buf []Message
	// waiter is what the owner parks with in Wait.
	waiter waiter
}

// NewReader assigns the given partitions to a new reader, each starting at
// its low (ResetEarliest) or high (ResetLatest) watermark.
func (c *Cluster) NewReader(reset ResetPolicy, tps ...TopicPartition) (*Reader, error) {
	at := make([]Position, len(tps))
	for i, tp := range tps {
		off, err := c.startOffset(tp, reset)
		if err != nil {
			return nil, err
		}
		at[i] = Position{TopicPartition: tp, Offset: off}
	}
	r := &Reader{cluster: c}
	r.assign(at, nil)
	return r, nil
}

// startOffset is where a reader with no position of its own begins.
func (c *Cluster) startOffset(tp TopicPartition, reset ResetPolicy) (int64, error) {
	low, high, err := c.Watermarks(tp)
	if reset == ResetLatest {
		return high, err
	}
	return low, err
}

// assign replaces the assignment, for the owner (a group consumer after a
// rebalance). kept[i] >= 0 says at[i] carries on from that partition of the
// old assignment and stays under its epoch. Any other position is taken to
// be of the log as it is now: a committed or checkpointed offset carries no
// epoch, so one above a cut made before it was assigned is rewound only if
// the log has not regrown past it (it is then out of range).
func (r *Reader) assign(at []Position, kept []int) {
	epochs := make([]int, len(at))
	for i, pos := range at {
		if kept != nil && kept[i] >= 0 {
			epochs[i] = r.epochs[kept[i]]
		} else if p, err := r.cluster.partition(pos.Topic, pos.Partition); err == nil {
			_, epochs[i] = p.resume(pos.Offset, -1, false)
		}
	}
	r.mu.Lock()
	r.at, r.epochs = at, epochs
	r.mu.Unlock()
}

// Wait parks until one of the reader's partitions has a message at its
// position, or something about a position needs repair, for at most
// maxWait; see Cluster.Wait. A park allocates nothing: the reader parks
// with a waiter of its own every time.
func (r *Reader) Wait(maxWait time.Duration) bool { return r.cluster.wait(r.at, maxWait, &r.waiter) }

// Fetch returns up to max messages of partition i (an index into the
// assignment) from its position, without blocking and without moving the
// position. The messages are decoded into a buffer the reader owns and are
// valid until its next Fetch, of any partition; an owner that keeps one
// longer copies it (Key and Value alias the log and may be kept as they
// are). A position the log no longer has — retention passed it, a
// truncation cut it off, or it was never in this log — is repaired and the
// fetch repeated; an unavailable partition (offline, outage, unknown topic)
// is the caller's error to wait out, in Wait.
func (r *Reader) Fetch(i, max int) ([]Message, error) {
	for {
		pos := r.at[i]
		p, err := r.cluster.partition(pos.Topic, pos.Partition)
		if err != nil {
			return nil, err
		}
		msgs, err := p.fetch(r.buf, pos.Offset, max)
		outOfRange := errors.Is(err, ErrOffsetOutOfRange)
		if err != nil && !outOfRange {
			return nil, err
		}
		if err == nil {
			// What the last fetch held beyond this one is let go: a message
			// pins the slab it aliases, long after retention dropped it.
			if len(msgs) < len(r.buf) {
				clear(r.buf[len(msgs):])
			}
			r.buf = msgs
		}
		// Looking after the fetch is what makes it exact: an unchanged
		// epoch says no truncation fell between the last look and this one,
		// so msgs are of the log the position was taken from. Otherwise
		// they may be of the branch that was cut: drop them and read again.
		offset, epoch := p.resume(pos.Offset, r.epochs[i], outOfRange)
		if offset == pos.Offset && epoch == r.epochs[i] {
			return msgs, nil
		}
		r.epochs[i] = epoch
		if offset != pos.Offset {
			r.repairs.Add(1)
			r.Seek(i, offset)
		}
	}
}

// Seek moves partition i's position: past what the owner consumed of a
// fetch, or to a restored checkpoint (which, as in assign, is taken to be of
// the log the reader last saw).
func (r *Reader) Seek(i int, offset int64) {
	r.mu.Lock()
	r.at[i].Offset = offset
	r.mu.Unlock()
}

// Offsets snapshots the positions, in assignment order.
func (r *Reader) Offsets() []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int64, len(r.at))
	for i, pos := range r.at {
		out[i] = pos.Offset
	}
	return out
}

// Lag returns the unread backlog, position to high watermark, summed over
// the partitions that can be asked.
func (r *Reader) Lag() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cluster.lag(r.at)
}

// lag is the one backlog sum: a reader's, and a group's over its committed
// offsets.
func (c *Cluster) lag(at []Position) int64 {
	var lag int64
	for _, pos := range at {
		if _, high, err := c.Watermarks(pos.TopicPartition); err == nil && high > pos.Offset {
			lag += high - pos.Offset
		}
	}
	return lag
}

// Repairs counts the positions Fetch had to move: each is a gap (retention)
// or a re-read (truncation) in what the owner saw.
func (r *Reader) Repairs() int64 { return r.repairs.Load() }
