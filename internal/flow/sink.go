package flow

import (
	"sync"

	"repro/internal/metadata"
	"repro/internal/record"
	"repro/internal/stream"
)

// Sink receives a job's output events. The runtime drives a sink from a
// single goroutine.
type Sink interface {
	// Write delivers a batch of output events (at-least-once across
	// restarts): one run from one upstream instance, in order, at most
	// JobSpec.BufferSize of them. The upstream flushes its run whenever it
	// finishes an input run or forwards a watermark, barrier or end, so a
	// run is never held back to fill. The slice, and its events' row
	// cells, are reused after Write returns.
	Write(events []Event) error
	// Flush is called at checkpoints and end-of-stream.
	Flush() error
}

// CollectSink accumulates events in memory, their payloads in Data; tests
// and examples read them back with Events. It is safe to read concurrently
// with the running job.
type CollectSink struct {
	mu     sync.Mutex
	events []Event
}

// NewCollectSink returns an empty collector.
func NewCollectSink() *CollectSink { return &CollectSink{} }

// Write implements Sink.
func (c *CollectSink) Write(events []Event) error {
	c.mu.Lock()
	for _, e := range events {
		c.events = append(c.events, boxed(e))
	}
	c.mu.Unlock()
	return nil
}

// Flush implements Sink.
func (c *CollectSink) Flush() error { return nil }

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

// TopicSink encodes output rows with a codec and produces them to a topic,
// keyed by the event key — the FlinkSQL→Pinot "push" integration path
// (§4.3.3). A row is conformed to the codec's schema by the rule the OLAP
// ingester uses (record.Binding) and encoded from its cells; every payload
// and key of one Write goes into one buffer the next Write reuses, as the
// log copies what it appends.
type TopicSink struct {
	producer *stream.Producer
	topic    string
	codec    *record.Codec
	schema   *metadata.Schema // the codec's

	bound *metadata.Schema // the row schema bind maps onto schema
	bind  *record.Binding
	cells []record.Value // one row conformed to schema
	buf   []byte         // one Write's payloads and keys
	ends  []int          // per message: where its payload ends in buf, then its key
	msgs  []stream.Message
}

// NewTopicSink creates a sink producing to topic through target.
func NewTopicSink(target stream.ProducerTarget, topic string, codec *record.Codec) *TopicSink {
	schema := codec.Schema()
	return &TopicSink{
		producer: stream.NewProducer(target, "flow-sink", "", nil),
		topic:    topic,
		codec:    codec,
		schema:   schema,
		cells:    make([]record.Value, len(schema.Fields)),
	}
}

// Write implements Sink: the whole run goes out as one ProduceBatch.
func (t *TopicSink) Write(events []Event) error {
	t.buf, t.ends = t.buf[:0], t.ends[:0]
	for _, e := range events {
		if err := t.encode(e); err != nil {
			return err
		}
		t.buf = append(t.buf, e.Key...)
		t.ends = append(t.ends, len(t.buf))
	}
	clear(t.cells) // they alias the last row's slab
	t.msgs = t.msgs[:0]
	start := 0
	for i, e := range events {
		payloadEnd, keyEnd := t.ends[2*i], t.ends[2*i+1]
		m := stream.Message{Value: t.buf[start:payloadEnd:payloadEnd], Timestamp: e.Time}
		if keyEnd > payloadEnd {
			m.Key = t.buf[payloadEnd:keyEnd:keyEnd]
		}
		t.msgs = append(t.msgs, m)
		start = keyEnd
	}
	return t.producer.ProduceBatch(t.topic, t.msgs)
}

// encode appends e's payload to buf and its end to ends.
func (t *TopicSink) encode(e Event) error {
	if e.Row.Schema != t.bound {
		t.bound, t.bind = e.Row.Schema, record.Bind(e.Row.Schema, t.schema)
	}
	if err := t.bind.Conform(e.Row.Vals, t.cells); err != nil {
		return err
	}
	t.buf = t.codec.EncodeValues(t.buf, t.cells)
	t.ends = append(t.ends, len(t.buf))
	return nil
}

// Flush implements Sink. Write returns once its batch is acknowledged, so
// there is never anything buffered to flush at a checkpoint.
func (t *TopicSink) Flush() error { return nil }

// FuncSink adapts a function into a Sink.
type FuncSink struct {
	// Fn receives each output event, its payload in Data.
	Fn func(Event) error
}

// Write implements Sink.
func (f *FuncSink) Write(events []Event) error {
	for _, e := range events {
		if err := f.Fn(boxed(e)); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements Sink.
func (f *FuncSink) Flush() error { return nil }
