// Package proxy implements the Kafka Consumer Proxy of §4.1.3 (Fig 4): a
// layer that consumes messages from the broker and *pushes* them to a
// user-registered handler endpoint (the stand-in for the gRPC service
// endpoint), instead of applications polling through a thick client
// library.
//
// The proxy removes the consumer-group parallelism cap (group size ≤
// partition count) by dispatching to a worker pool that can be much larger
// than the partition count — the property experiment E5 measures. Because
// workers complete out of order, the proxy tracks per-partition in-flight
// offsets and commits only the contiguous prefix (so delivery stays
// at-least-once across crashes). Failed dispatches are retried and then sent
// to the dead letter queue through dlq.Publish, the §4.1.2 machinery.
package proxy

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stream"
	"repro/internal/stream/dlq"
)

// Endpoint is the user-registered handler the proxy pushes messages to. It
// models the machine-generated thin gRPC client: implementations contain
// only business logic, no Kafka mechanics.
type Endpoint func(stream.Message) error

// Config tunes a Proxy.
type Config struct {
	// Workers is the push-dispatch parallelism. Unlike a consumer group it
	// may exceed the topic's partition count. Default 16.
	Workers int
	// MaxRetries before a failed message is dead-lettered. Default 3.
	MaxRetries int
	// DLQ enables dead-lettering of repeatedly failing messages. When
	// false, failed messages are dropped after retries.
	DLQ bool
}

// pollBatch is the per-poll fetch size.
const pollBatch = 128

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 16
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	return c
}

// Stats counts proxy outcomes.
type Stats struct {
	Dispatched   int64 // messages handed to the endpoint (first attempts)
	Succeeded    int64
	Retried      int64
	DeadLettered int64
	Dropped      int64
}

// offsetTracker tracks in-flight offsets for one partition and yields the
// committable contiguous prefix as out-of-order acks arrive.
type offsetTracker struct {
	mu       sync.Mutex
	next     int64 // lowest offset not yet acked
	acked    map[int64]bool
	inflight int
}

func newOffsetTracker(start int64) *offsetTracker {
	return &offsetTracker{next: start, acked: make(map[int64]bool)}
}

// begin registers an offset as in-flight.
func (t *offsetTracker) begin() {
	t.mu.Lock()
	t.inflight++
	t.mu.Unlock()
}

// ack marks an offset processed and returns the new committable offset
// (exclusive): the end of the contiguous acked prefix.
func (t *offsetTracker) ack(offset int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.inflight--
	t.acked[offset] = true
	for t.acked[t.next] {
		delete(t.acked, t.next)
		t.next++
	}
	return t.next
}

// Proxy consumes one topic in one group and pushes messages to the endpoint
// with Workers-way parallelism.
type Proxy struct {
	cluster  *stream.Cluster
	topic    string
	group    string
	cfg      Config
	endpoint Endpoint
	dead     *stream.Producer // publishes the dead letters

	stats struct {
		dispatched, succeeded, retried, deadLettered, dropped atomic.Int64
	}

	stop chan struct{}
	done chan struct{}
}

// New creates a proxy. When cfg.DLQ is set, the topic's DLQ is created if
// missing.
func New(cluster *stream.Cluster, group, topic string, cfg Config, ep Endpoint) (*Proxy, error) {
	cfg = cfg.withDefaults()
	if cfg.DLQ {
		if err := dlq.EnsureDLQTopic(cluster, topic); err != nil {
			return nil, err
		}
	}
	return &Proxy{
		cluster:  cluster,
		topic:    topic,
		group:    group,
		cfg:      cfg,
		endpoint: ep,
		dead:     stream.NewProducer(cluster, "consumer-proxy", "", nil),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}, nil
}

// Start launches the proxy's poll/dispatch loop. Call Stop to drain and
// shut down.
func (p *Proxy) Start() { go p.loop(50*time.Millisecond, false) }

// Stop signals shutdown and waits for in-flight dispatches to finish.
func (p *Proxy) Stop() {
	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
	<-p.done
}

// DrainUntilIdle runs the proxy inline until the topic has been idle for
// idleWait, then returns the stats. Used by batch-shaped experiments.
func (p *Proxy) DrainUntilIdle(idleWait time.Duration) Stats {
	p.loop(idleWait, true)
	return p.Stats()
}

// loop is the poll → push-dispatch → track-acks cycle. With exitOnIdle set,
// one empty poll ends the loop (batch drain); otherwise the loop runs until
// Stop is called.
func (p *Proxy) loop(pollWait time.Duration, exitOnIdle bool) {
	defer close(p.done)
	consumer := p.cluster.NewConsumer(p.group, p.topic)
	defer consumer.Close()
	sem := make(chan struct{}, p.cfg.Workers)
	trackers := make(map[stream.TopicPartition]*offsetTracker)
	var wg sync.WaitGroup
	commitMu := sync.Mutex{}

	for {
		select {
		case <-p.stop:
			goto drain
		default:
		}
		msgs := consumer.Poll(pollWait, pollBatch)
		if len(msgs) == 0 {
			if exitOnIdle {
				goto drain
			}
			continue
		}
		for _, m := range msgs {
			tp := stream.TopicPartition{Topic: m.Topic, Partition: m.Partition}
			tr, ok := trackers[tp]
			if !ok {
				tr = newOffsetTracker(m.Offset)
				trackers[tp] = tr
			}
			tr.begin()
			sem <- struct{}{}
			wg.Add(1)
			go func(m stream.Message, tr *offsetTracker, tp stream.TopicPartition) {
				defer wg.Done()
				defer func() { <-sem }()
				p.dispatch(m)
				committable := tr.ack(m.Offset)
				commitMu.Lock()
				consumer.CommitOffset(tp, committable)
				commitMu.Unlock()
			}(m, tr, tp)
		}
	}
drain:
	wg.Wait()
	// Final commit of the contiguous prefixes.
	commitMu.Lock()
	for tp, tr := range trackers {
		tr.mu.Lock()
		consumer.CommitOffset(tp, tr.next)
		tr.mu.Unlock()
	}
	commitMu.Unlock()
}

// dispatch pushes one message with retry and DLQ handling.
func (p *Proxy) dispatch(m stream.Message) {
	p.stats.dispatched.Add(1)
	for attempt := 0; attempt <= p.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			p.stats.retried.Add(1)
		}
		if err := p.endpoint(m); err == nil {
			p.stats.succeeded.Add(1)
			return
		}
	}
	if p.cfg.DLQ && dlq.Publish(p.dead, p.topic, m) == nil {
		p.stats.deadLettered.Add(1)
		return
	}
	p.stats.dropped.Add(1)
}

// Stats returns a snapshot of the proxy's counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Dispatched:   p.stats.dispatched.Load(),
		Succeeded:    p.stats.succeeded.Load(),
		Retried:      p.stats.retried.Load(),
		DeadLettered: p.stats.deadLettered.Load(),
		Dropped:      p.stats.dropped.Load(),
	}
}

// PollingGroup is the baseline E5 compares against: the open-source model
// where each group member polls and processes sequentially, capping
// parallelism at the partition count. It drains the topic with `members`
// consumers and returns the processed count.
func PollingGroup(cluster *stream.Cluster, group, topic string, members int, handler Endpoint, idleWait time.Duration) int64 {
	var processed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < members; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			consumer := cluster.NewConsumer(group, topic)
			defer consumer.Close()
			for {
				msgs := consumer.Poll(idleWait, 128)
				if len(msgs) == 0 {
					return
				}
				for _, m := range msgs {
					for handler(m) != nil {
						// poll-model consumer retries in place (blocking)
					}
					processed.Add(1)
				}
				consumer.Commit()
			}
		}()
	}
	wg.Wait()
	return processed.Load()
}
