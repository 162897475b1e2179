package stream

import "time"

// Position is a consumer's read position in one partition: the offset of
// the next message it wants.
type Position struct {
	TopicPartition
	Offset int64
}

// waiter is one goroutine parked in Cluster.Wait. Every partition it
// watches holds it until that partition wakes it; ch has room for the one
// wake-up the waiter consumes, so wakers never block. A Reader owns one and
// parks with it every time, so a park allocates nothing once its channel,
// watched list and timer exist.
type waiter struct {
	ch      chan struct{}
	watched []*partition // the partitions of the current park
	timer   *time.Timer
}

// Wait is the stream layer's one blocking hand-off: it parks the caller
// until a message is fetchable at any of the given positions, for at most
// maxWait, and reports whether it returned before that bound. It is woken
// by a produce that appended to a watched partition and by every
// availability change (partition offline or back, SetDown, DeleteTopic,
// Close), so callers re-evaluate promptly; a position on an offline partition, a downed
// cluster or an unknown topic is simply not fetchable, which makes Wait the
// back-off for readers whose Fetch keeps failing. A position outside the
// log on either side counts as fetchable — the Fetch that follows reports
// ErrOffsetOutOfRange and the Reader repairs it. Wait parks at most
// once: after a wake-up it returns without re-checking, and the caller's
// next Wait parks again if there was nothing to read. Each call parks with
// a waiter of its own; Reader.Wait parks with the reader's.
func (c *Cluster) Wait(at []Position, maxWait time.Duration) bool {
	return c.wait(at, maxWait, new(waiter))
}

// wait is Wait parking with w, which no other goroutine parks with.
func (c *Cluster) wait(at []Position, maxWait time.Duration, w *waiter) bool {
	// Holding c.mu across the check and the registration orders both
	// against SetDown, DeleteTopic and Close, which wake under it.
	c.mu.RLock()
	for _, pos := range at {
		if p := c.partitionLocked(pos.TopicPartition); p != nil && p.fetchable(pos.Offset, c.down, nil) {
			c.mu.RUnlock()
			return true
		}
	}
	if maxWait <= 0 {
		c.mu.RUnlock()
		return false
	}
	// Nothing yet: register with every watched partition, re-checking each
	// under its lock so an append between the two passes is not missed. A
	// wake-up that reached w after its last park ended is dropped first: no
	// partition held w then, so none can send until it registers again.
	if w.ch == nil {
		w.ch = make(chan struct{}, 1)
	}
	select {
	case <-w.ch:
	default:
	}
	ready := false
	for _, pos := range at {
		p := c.partitionLocked(pos.TopicPartition)
		if p == nil {
			continue
		}
		w.watched = append(w.watched, p)
		if p.fetchable(pos.Offset, c.down, w) {
			ready = true
			break
		}
	}
	c.mu.RUnlock()

	if !ready {
		if w.timer == nil {
			w.timer = time.NewTimer(maxWait)
		} else {
			w.timer.Reset(maxWait) // stopped below, so its channel is empty
		}
		select {
		case <-w.ch:
			ready = true
		case <-w.timer.C:
		}
		w.timer.Stop()
	}
	for _, p := range w.watched {
		p.unwatch(w)
	}
	clear(w.watched)
	w.watched = w.watched[:0]
	return ready
}

// partitionLocked resolves a partition, nil if the topic or index does not
// exist. Unlike partition it ignores c.down. Caller holds c.mu.
func (c *Cluster) partitionLocked(tp TopicPartition) *partition {
	t, ok := c.topics[tp.Topic]
	if !ok || tp.Partition < 0 || tp.Partition >= len(t.partitions) {
		return nil
	}
	return t.partitions[tp.Partition]
}

// wakeAllLocked wakes every waiter of every topic. Caller holds c.mu.
func (c *Cluster) wakeAllLocked() {
	for _, t := range c.topics {
		t.wakeAll()
	}
}

func (t *topicState) wakeAll() {
	for _, p := range t.partitions {
		p.wake()
	}
}

func (p *partition) wake() {
	p.mu.Lock()
	p.wakeLocked()
	p.mu.Unlock()
}

// fetchable reports whether a fetch at offset would return messages (or
// ErrOffsetOutOfRange, on either side of the log); down is the cluster-wide
// outage flag. When it would not and w is non-nil, w is registered for the
// partition's next wake-up — in the same critical section, so no append can
// fall between the check and the registration.
func (p *partition) fetchable(offset int64, down bool, w *waiter) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !down && !p.offline && offset != p.next {
		return true
	}
	if w != nil {
		p.waiters = append(p.waiters, w)
	}
	return false
}

// wakeLocked wakes and drops every registered waiter. Caller holds p.mu.
func (p *partition) wakeLocked() {
	for i, w := range p.waiters {
		select {
		case w.ch <- struct{}{}:
		default: // already woken through another partition
		}
		p.waiters[i] = nil
	}
	p.waiters = p.waiters[:0]
}

// unwatch removes w if a wake-up has not already dropped it.
func (p *partition) unwatch(w *waiter) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, x := range p.waiters {
		if x == w {
			last := len(p.waiters) - 1
			p.waiters[i] = p.waiters[last]
			p.waiters[last] = nil
			p.waiters = p.waiters[:last]
			return
		}
	}
}
