// Package dlq implements the Dead Letter Queue strategy of §4.1.2: when a
// consumer cannot process a message after several retries, the message is
// published to a dead letter topic instead of being dropped (data loss) or
// retried forever (head-of-line blocking). DLQ'd messages can later be
// purged or merged (re-injected) on demand.
//
// The package also implements the two open-source alternatives — Drop and
// Block — so experiment E7 can compare the three strategies on the same
// poisoned workload.
package dlq

import (
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/stream"
)

// Strategy selects how processing failures are handled.
type Strategy int

const (
	// StrategyDLQ retries MaxRetries times then publishes to the DLQ topic.
	StrategyDLQ Strategy = iota
	// StrategyDrop retries MaxRetries times then discards the message —
	// "drop those messages" in the paper's framing (data loss).
	StrategyDrop
	// StrategyBlock retries the message forever, blocking all subsequent
	// messages in its partition — "retry indefinitely which blocks
	// processing of the subsequent messages".
	StrategyBlock
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyDrop:
		return "drop"
	case StrategyBlock:
		return "block"
	default:
		return "dlq"
	}
}

// DLQTopic returns the conventional dead letter topic name for a topic.
func DLQTopic(topic string) string { return topic + ".dlq" }

// Handler processes one message; a non-nil error triggers the failure
// strategy.
type Handler func(stream.Message) error

// Config tunes a Processor.
type Config struct {
	// Strategy selects the failure handling mode. Default StrategyDLQ.
	Strategy Strategy
	// MaxRetries is the number of retries before the strategy's terminal
	// action (DLQ publish or drop). Ignored by StrategyBlock. Default 3.
	MaxRetries int
	// MaxBlockRetries caps StrategyBlock's retry loop so experiments
	// terminate; 0 means retry forever.
	MaxBlockRetries int
}

func (c Config) withDefaults() Config {
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	return c
}

// Stats counts processing outcomes.
type Stats struct {
	Processed    int64 // handler succeeded
	Retried      int64 // individual retry attempts
	DeadLettered int64
	Dropped      int64
	Blocked      int64 // messages stuck behind a blocking failure
}

// Processor consumes a topic through a group consumer and applies the
// configured failure strategy around the user handler. It is the in-process
// equivalent of the DLQ library Uber built on top of the Kafka interface.
type Processor struct {
	cluster  *stream.Cluster
	consumer *stream.Consumer
	producer *stream.Producer
	topic    string
	cfg      Config
	handler  Handler

	processed    atomic.Int64
	retried      atomic.Int64
	deadLettered atomic.Int64
	dropped      atomic.Int64
	blocked      atomic.Int64
}

// NewProcessor creates a processor for the topic in the given group. For
// StrategyDLQ the dead letter topic must already exist (use EnsureDLQTopic).
func NewProcessor(cluster *stream.Cluster, group, topic string, cfg Config, h Handler) *Processor {
	cfg = cfg.withDefaults()
	return &Processor{
		cluster:  cluster,
		consumer: cluster.NewConsumer(group, topic),
		producer: stream.NewProducer(cluster, "dlq-processor", "", nil),
		topic:    topic,
		cfg:      cfg,
		handler:  h,
	}
}

// EnsureDLQTopic creates topic's dead letter topic with the same partition
// count, if it does not already exist.
func EnsureDLQTopic(cluster *stream.Cluster, topic string) error {
	if cluster.HasTopic(DLQTopic(topic)) {
		return nil
	}
	n, err := cluster.Partitions(topic)
	if err != nil {
		return err
	}
	return cluster.CreateTopic(DLQTopic(topic), stream.TopicConfig{Partitions: n, Acks: stream.AckAll})
}

// Run polls and processes until the topic stays empty for idleExit. It
// returns the stats accumulated during the run.
func (p *Processor) Run(idleExit time.Duration) Stats {
	for {
		msgs := p.consumer.Poll(idleExit, 64)
		if len(msgs) == 0 {
			break
		}
		for i := range msgs {
			if !p.processOne(msgs[i]) {
				// Blocking strategy gave up (bounded experiment): count the
				// rest of this poll batch in the same partition as blocked.
				for _, m := range msgs[i+1:] {
					if m.Partition == msgs[i].Partition {
						p.blocked.Add(1)
					}
				}
			}
		}
		p.consumer.Commit()
	}
	p.consumer.Close()
	return p.Stats()
}

// processOne applies the strategy; it returns false only when StrategyBlock
// exhausted MaxBlockRetries (i.e. the partition is considered clogged).
func (p *Processor) processOne(m stream.Message) bool {
	if err := p.handler(m); err == nil {
		p.processed.Add(1)
		return true
	}
	switch p.cfg.Strategy {
	case StrategyBlock:
		attempts := 0
		for {
			p.retried.Add(1)
			attempts++
			if err := p.handler(m); err == nil {
				p.processed.Add(1)
				return true
			}
			if p.cfg.MaxBlockRetries > 0 && attempts >= p.cfg.MaxBlockRetries {
				p.blocked.Add(1)
				return false
			}
		}
	default:
		for attempt := 0; attempt < p.cfg.MaxRetries; attempt++ {
			p.retried.Add(1)
			if err := p.handler(m); err == nil {
				p.processed.Add(1)
				return true
			}
		}
		if p.cfg.Strategy == StrategyDrop {
			p.dropped.Add(1)
			return true
		}
		if err := Publish(p.producer, p.topic, m); err == nil {
			p.deadLettered.Add(1)
		} else {
			// DLQ publish failed: the message would otherwise be lost, so
			// count it as dropped to keep the accounting honest.
			p.dropped.Add(1)
		}
		return true
	}
}

// Publish is the one dead-letter publish: m, a message of topic whose
// retries are spent, goes to topic's dead letter topic through the caller's
// long-lived producer (so every dead letter gets its own audit id), with its
// headers copied — never the map the source log retains — and retry-count
// one higher.
func Publish(producer *stream.Producer, topic string, m stream.Message) error {
	headers := make(map[string]string, len(m.Headers)+1)
	for k, v := range m.Headers {
		headers[k] = v
	}
	retries, _ := strconv.Atoi(headers[stream.HeaderRetryCount])
	headers[stream.HeaderRetryCount] = strconv.Itoa(retries + 1)
	dead := stream.Message{Key: m.Key, Value: m.Value, Timestamp: m.Timestamp, Headers: headers}
	return producer.ProduceBatch(DLQTopic(topic), []stream.Message{dead})
}

// Stats returns a snapshot of the processor's counters.
func (p *Processor) Stats() Stats {
	return Stats{
		Processed:    p.processed.Load(),
		Retried:      p.retried.Load(),
		DeadLettered: p.deadLettered.Load(),
		Dropped:      p.dropped.Load(),
		Blocked:      p.blocked.Load(),
	}
}

// Merge re-injects up to max messages from the topic's DLQ back into the
// main topic (the "merged (i.e. retried) on demand by the users" path). It
// returns the number of messages merged.
func Merge(cluster *stream.Cluster, topic string, max int) (int, error) {
	consumer := cluster.NewConsumer("dlq-merge-"+topic, DLQTopic(topic))
	defer consumer.Close()
	producer := stream.NewProducer(cluster, "dlq-merge", "", nil)
	merged := 0
	for merged < max {
		msgs := consumer.Poll(50*time.Millisecond, max-merged)
		if len(msgs) == 0 {
			break
		}
		batch := make([]stream.Message, len(msgs))
		for i, m := range msgs {
			// Headers is shared with the message retained in the DLQ's log;
			// the producer only reads it.
			batch[i] = stream.Message{Key: m.Key, Value: m.Value, Timestamp: m.Timestamp, Headers: m.Headers}
		}
		if err := producer.ProduceBatch(topic, batch); err != nil {
			return merged, err
		}
		merged += len(batch)
		consumer.Commit()
	}
	consumer.Commit()
	return merged, nil
}

// Purge discards up to max messages from the topic's DLQ (advancing the
// purge group's committed offsets past them). It returns the purge count.
func Purge(cluster *stream.Cluster, topic string, max int) int {
	consumer := cluster.NewConsumer("dlq-purge-"+topic, DLQTopic(topic))
	defer consumer.Close()
	purged := 0
	for purged < max {
		msgs := consumer.Poll(50*time.Millisecond, max-purged)
		if len(msgs) == 0 {
			break
		}
		purged += len(msgs)
		consumer.Commit()
	}
	consumer.Commit()
	return purged
}
