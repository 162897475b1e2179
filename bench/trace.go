package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fedsql"
	"repro/internal/flow"
	"repro/internal/metadata"
	"repro/internal/objstore"
	"repro/internal/record"
	"repro/internal/stream"
)

// The trace is recorded outside-in: every span and counter below is taken in
// a wrapper this package puts around a layer's public interface
// (stream.ProducerTarget, flow.Source/Operator/Sink, objstore.Store,
// fedsql.Connector). Nothing inside the program is touched, so what a
// wrapper cannot see — time between two calls into a layer — is attributed
// to the caller's self time.

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's epoch; Parent is the index of the enclosing span or -1; Op is the
// id of the benchmark op that caused it or -1 for background work.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

// maxSpans bounds the in-memory trace (about 50 MB). A run that reaches it
// stops recording spans — trace.spans then reads exactly maxSpans — and only
// the counters keep growing.
const maxSpans = 1 << 20

// sampleEvery is the sampling rate of the per-event wrappers (operator and
// sink calls arrive at ~100k/s): one call in sampleEvery is timed and its
// duration scaled up, the rest only count.
const sampleEvery = 16

// tracer holds the spans and the per-layer counters of one traced run.
// Wrappers are installed when the pipeline is built and stay inert until
// on is set, so the warm-up and the untraced comparison slice run through
// the same objects.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span

	produce struct {
		batches, ns, bytes atomic.Int64
	}
	flow struct {
		sourceCalls, sourceEmpty, sourceBusyNs atomic.Int64
		opBusyNs, sinkBusyNs                   atomic.Int64
	}
	store struct {
		puts, putBytes, putNs, gets, getBytes, getNs atomic.Int64
	}
	conn map[string]*connCounters // by catalog name; fixed before traffic
}

type connCounters struct {
	ns atomic.Int64 // time inside the connector's calls
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), conn: map[string]*connCounters{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index, or -1 when the tracer is off or
// full.
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if !t.on.Load() {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: -1, Parent: parent, Op: op})
	return int32(len(t.spans) - 1)
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// spanKey carries the enclosing span through a context, so a connector call
// made deep inside the engine is parented on the query that caused it.
type spanKey struct{}

type spanRef struct {
	id int32
	op int64
}

func withSpan(ctx context.Context, id int32, op int64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{id, op})
}

func spanFrom(ctx context.Context) spanRef {
	if r, ok := ctx.Value(spanKey{}).(spanRef); ok {
		return r
	}
	return spanRef{-1, -1}
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it covered by its children (the union of their
// intervals, clipped to the parent). Unfinished spans are skipped.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += (s.End - s.Start) - covered
	}
	return out
}

// totalTimes returns the summed duration per span name.
func totalTimes(spans []span) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range spans {
		if s.End >= 0 {
			out[s.Name] += s.End - s.Start
		}
	}
	return out
}

// writeSpans dumps the trace as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---- stream ----

// tracedTarget wraps the produce surface the benchmark's producer writes
// through. parent/op are set by the single producer goroutine before each
// call.
type tracedTarget struct {
	inner  stream.ProducerTarget
	t      *tracer
	parent int32
	op     int64
}

func (tt *tracedTarget) Produce(topic string, msgs []stream.Message, rrHint int64) error {
	if !tt.t.on.Load() {
		return tt.inner.Produce(topic, msgs, rrHint)
	}
	var bytes int64
	for i := range msgs {
		bytes += int64(len(msgs[i].Key) + len(msgs[i].Value))
	}
	id := tt.t.begin("stream.produce", tt.parent, tt.op)
	start := time.Now()
	err := tt.inner.Produce(topic, msgs, rrHint)
	tt.t.produce.ns.Add(int64(time.Since(start)))
	tt.t.end(id)
	tt.t.produce.batches.Add(1)
	tt.t.produce.bytes.Add(bytes)
	return err
}

// ---- flow ----

// tracedSource times every Next call: a call that returns events is busy
// time, a call that returns none is an empty poll (the source sleeps inside
// it).
type tracedSource struct {
	inner flow.Source
	t     *tracer
}

func (s *tracedSource) Next(maxWait time.Duration) ([]flow.Event, bool, error) {
	if !s.t.on.Load() {
		return s.inner.Next(maxWait)
	}
	start := time.Now()
	events, end, err := s.inner.Next(maxWait)
	d := int64(time.Since(start))
	s.t.flow.sourceCalls.Add(1)
	if len(events) == 0 {
		s.t.flow.sourceEmpty.Add(1)
	} else {
		s.t.flow.sourceBusyNs.Add(d)
	}
	return events, end, err
}

func (s *tracedSource) Watermark() int64          { return s.inner.Watermark() }
func (s *tracedSource) Position() ([]byte, error) { return s.inner.Position() }
func (s *tracedSource) Seek(pos []byte) error     { return s.inner.Seek(pos) }

// Lag keeps the job's SourceLag metric working through the wrapper.
func (s *tracedSource) Lag() int64 {
	if lr, ok := s.inner.(flow.LagReporter); ok {
		return lr.Lag()
	}
	return 0
}

// tracedOp times one element in sampleEvery. Time spent in emit is the
// downstream channel send, which blocks under backpressure, so it is taken
// out of the operator's busy time.
type tracedOp struct {
	inner flow.Operator
	t     *tracer
	n     int64 // runtime drives one instance from one goroutine
	// late mirrors a window operator's late-event count after each element,
	// as the runtime does for unwrapped operators.
	late atomic.Int64
}

func (o *tracedOp) ProcessElement(e flow.Event, emit func(flow.Event)) error {
	if lc, ok := o.inner.(lateCounter); ok {
		defer func() { o.late.Store(lc.LateEvents()) }()
	}
	if !o.t.on.Load() {
		return o.inner.ProcessElement(e, emit)
	}
	o.n++
	if o.n%sampleEvery != 0 {
		return o.inner.ProcessElement(e, emit)
	}
	var blocked time.Duration
	start := time.Now()
	err := o.inner.ProcessElement(e, func(out flow.Event) {
		s := time.Now()
		emit(out)
		blocked += time.Since(s)
	})
	total := time.Since(start)
	o.t.flow.opBusyNs.Add(int64(total-blocked) * sampleEvery)
	return err
}

func (o *tracedOp) OnWatermark(wm int64, emit func(flow.Event)) error {
	if !o.t.on.Load() {
		return o.inner.OnWatermark(wm, emit)
	}
	var blocked time.Duration
	start := time.Now()
	err := o.inner.OnWatermark(wm, func(out flow.Event) {
		s := time.Now()
		emit(out)
		blocked += time.Since(s)
	})
	o.t.flow.opBusyNs.Add(int64(time.Since(start) - blocked))
	return err
}

func (o *tracedOp) Snapshot() ([]byte, error) { return o.inner.Snapshot() }
func (o *tracedOp) Restore(data []byte) error { return o.inner.Restore(data) }
func (o *tracedOp) StateBytes() int64         { return o.inner.StateBytes() }

// lateCounter is what the window operator offers beyond flow.Operator; the
// runtime's own late-event metric type-asserts the concrete operator and so
// does not see through the wrapper.
type lateCounter interface{ LateEvents() int64 }

// tracedSink times one Write in sampleEvery.
type tracedSink struct {
	inner flow.Sink
	t     *tracer
	n     int64
}

func (s *tracedSink) Write(events []flow.Event) error {
	if !s.t.on.Load() {
		return s.inner.Write(events)
	}
	s.n++
	if s.n%sampleEvery != 0 {
		return s.inner.Write(events)
	}
	start := time.Now()
	err := s.inner.Write(events)
	s.t.flow.sinkBusyNs.Add(int64(time.Since(start)) * sampleEvery)
	return err
}

func (s *tracedSink) Flush() error { return s.inner.Flush() }

// ---- objstore ----

// tracedStore times every Put and Get. The store interface carries no
// context, so its spans have no parent: they are attributed by counter, and
// a Get made on behalf of a query shows up as that connector's self time.
type tracedStore struct {
	inner objstore.Store
	t     *tracer
}

func (s *tracedStore) Put(key string, value []byte) error {
	if !s.t.on.Load() {
		return s.inner.Put(key, value)
	}
	id := s.t.begin("objstore.put", -1, -1)
	start := time.Now()
	err := s.inner.Put(key, value)
	s.t.store.putNs.Add(int64(time.Since(start)))
	s.t.end(id)
	s.t.store.puts.Add(1)
	s.t.store.putBytes.Add(int64(len(value)))
	return err
}

func (s *tracedStore) Get(key string) ([]byte, error) {
	if !s.t.on.Load() {
		return s.inner.Get(key)
	}
	id := s.t.begin("objstore.get", -1, -1)
	start := time.Now()
	v, err := s.inner.Get(key)
	s.t.store.getNs.Add(int64(time.Since(start)))
	s.t.end(id)
	s.t.store.gets.Add(1)
	s.t.store.getBytes.Add(int64(len(v)))
	return v, err
}

func (s *tracedStore) Delete(key string) error              { return s.inner.Delete(key) }
func (s *tracedStore) List(prefix string) ([]string, error) { return s.inner.List(prefix) }
func (s *tracedStore) Size(key string) (int64, error)       { return s.inner.Size(key) }

// ---- fedsql ----

// tracedConn wraps a v2 connector: every call into the backend is one
// "connector.<catalog>" span under the query that issued it.
type tracedConn struct {
	inner fedsql.Connector
	t     *tracer
	c     *connCounters
	name  string // span name
}

// traceConnector wraps conn, keeping its Connector-v3 surface only when the
// backend has one — the engine type-asserts for it to choose between the
// streaming and the materialized path, and the wrapper must not change that
// choice.
func traceConnector(conn fedsql.Connector, t *tracer) fedsql.Connector {
	c := &connCounters{}
	t.conn[conn.Name()] = c
	tc := tracedConn{inner: conn, t: t, c: c, name: "connector." + conn.Name()}
	if sc, ok := conn.(fedsql.StreamingConnector); ok {
		return &tracedStreamConn{tracedConn: tc, stream: sc}
	}
	return &tc
}

func (c *tracedConn) Name() string                      { return c.inner.Name() }
func (c *tracedConn) Tables() []string                  { return c.inner.Tables() }
func (c *tracedConn) Capabilities() fedsql.Capabilities { return c.inner.Capabilities() }
func (c *tracedConn) Schema(table string) (*metadata.Schema, error) {
	return c.inner.Schema(table)
}

// enter opens a connector span under the query that ctx belongs to and
// returns the function that closes it.
func (c *tracedConn) enter(ctx context.Context) (leave func()) {
	if !c.t.on.Load() {
		return func() {}
	}
	ref := spanFrom(ctx)
	id := c.t.begin(c.name, ref.id, ref.op)
	start := time.Now()
	return func() {
		c.c.ns.Add(int64(time.Since(start)))
		c.t.end(id)
	}
}

func (c *tracedConn) Scan(ctx context.Context, table string, pd fedsql.Pushdown) ([]record.Record, fedsql.QueryStats, error) {
	defer c.enter(ctx)()
	return c.inner.Scan(ctx, table, pd)
}

func (c *tracedConn) AggregateScan(ctx context.Context, table string, aq fedsql.AggregateQuery) ([]record.Record, fedsql.QueryStats, error) {
	defer c.enter(ctx)()
	return c.inner.AggregateScan(ctx, table, aq)
}

type tracedStreamConn struct {
	tracedConn
	stream fedsql.StreamingConnector
}

func (c *tracedStreamConn) OpenScan(ctx context.Context, table string, pd fedsql.Pushdown) (fedsql.RowIterator, error) {
	leave := c.enter(ctx)
	it, err := c.stream.OpenScan(ctx, table, pd)
	leave()
	if err != nil {
		return nil, err
	}
	return &tracedIter{inner: it, c: &c.tracedConn, ref: spanFrom(ctx)}, nil
}

func (c *tracedStreamConn) OpenAggregateScan(ctx context.Context, table string, aq fedsql.AggregateQuery) (fedsql.RowIterator, error) {
	leave := c.enter(ctx)
	it, err := c.stream.OpenAggregateScan(ctx, table, aq)
	leave()
	if err != nil {
		return nil, err
	}
	return &tracedIter{inner: it, c: &c.tracedConn, ref: spanFrom(ctx)}, nil
}

// tracedIter puts each Next of a streamed scan in its own connector span,
// so the engine's work between two batches stays fedsql self time.
type tracedIter struct {
	inner fedsql.RowIterator
	c     *tracedConn
	ref   spanRef
}

func (it *tracedIter) Columns() []string        { return it.inner.Columns() }
func (it *tracedIter) Stats() fedsql.QueryStats { return it.inner.Stats() }

func (it *tracedIter) Next(ctx context.Context) (*fedsql.Batch, error) {
	defer it.c.enter(withSpan(ctx, it.ref.id, it.ref.op))()
	return it.inner.Next(ctx)
}

func (it *tracedIter) Close() error { return it.inner.Close() }
