package flow

import (
	"sync"

	"repro/internal/record"
	"repro/internal/stream"
)

// Sink receives a job's output events. The runtime drives a sink from a
// single goroutine.
type Sink interface {
	// Write delivers a batch of output events (at-least-once across
	// restarts): the run of events that was ready when the sink loop came
	// round, in order, at most JobSpec.BufferSize of them. The slice is
	// reused after Write returns.
	Write(events []Event) error
	// Flush is called at checkpoints and end-of-stream.
	Flush() error
}

// CollectSink accumulates events in memory; tests and examples read them
// back with Events. It is safe to read concurrently with the running job.
type CollectSink struct {
	mu     sync.Mutex
	events []Event
}

// NewCollectSink returns an empty collector.
func NewCollectSink() *CollectSink { return &CollectSink{} }

// Write implements Sink.
func (c *CollectSink) Write(events []Event) error {
	c.mu.Lock()
	c.events = append(c.events, events...)
	c.mu.Unlock()
	return nil
}

// Flush implements Sink.
func (c *CollectSink) Flush() error { return nil }

// Events returns a snapshot of everything written so far.
func (c *CollectSink) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Records returns just the payloads of everything written so far.
func (c *CollectSink) Records() []record.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]record.Record, len(c.events))
	for i, e := range c.events {
		out[i] = e.Data
	}
	return out
}

// Len returns the number of events written so far.
func (c *CollectSink) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// TopicSink encodes output records with a codec and produces them to a
// topic, keyed by the event key — the FlinkSQL→Pinot "push" integration
// path (§4.3.3).
type TopicSink struct {
	producer *stream.Producer
	topic    string
	codec    *record.Codec
}

// NewTopicSink creates a sink producing to topic through target.
func NewTopicSink(target stream.ProducerTarget, topic string, codec *record.Codec) *TopicSink {
	return &TopicSink{
		producer: stream.NewProducer(target, "flow-sink", "", nil),
		topic:    topic,
		codec:    codec,
	}
}

// Write implements Sink: the whole run goes out as one ProduceBatch.
func (t *TopicSink) Write(events []Event) error {
	msgs := make([]stream.Message, 0, len(events))
	for _, e := range events {
		payload, err := t.codec.Encode(e.Data)
		if err != nil {
			return err
		}
		var key []byte
		if e.Key != "" {
			key = []byte(e.Key)
		}
		msgs = append(msgs, stream.Message{Key: key, Value: payload, Timestamp: e.Time})
	}
	return t.producer.ProduceBatch(t.topic, msgs)
}

// Flush implements Sink. Write returns once its batch is acknowledged, so
// there is never anything buffered to flush at a checkpoint.
func (t *TopicSink) Flush() error { return nil }

// FuncSink adapts a function into a Sink.
type FuncSink struct {
	// Fn receives each output event.
	Fn func(Event) error
	// FlushFn is optional.
	FlushFn func() error
}

// Write implements Sink.
func (f *FuncSink) Write(events []Event) error {
	for _, e := range events {
		if err := f.Fn(e); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements Sink.
func (f *FuncSink) Flush() error {
	if f.FlushFn != nil {
		return f.FlushFn()
	}
	return nil
}
