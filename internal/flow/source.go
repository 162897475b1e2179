package flow

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metadata"
	"repro/internal/record"
	"repro/internal/stream"
)

// Source feeds a job with events. Implementations are driven by a single
// runtime goroutine, so they need no locking.
type Source interface {
	// Next returns the next batch of events, blocking for at most maxWait
	// when there are none yet (the bound is what keeps the runtime's
	// cancellation and checkpoint barriers prompt). end is true once a
	// bounded source is exhausted; unbounded sources never end. The events
	// are valid until the next call: a source may reuse the slice, and the
	// runtime copies each event out before it polls again.
	Next(maxWait time.Duration) (events []Event, end bool, err error)
	// Watermark returns the source's current event-time watermark.
	Watermark() int64
	// Position snapshots the read position for a checkpoint.
	Position() ([]byte, error)
	// Seek restores a position saved by Position.
	Seek(pos []byte) error
}

// LagReporter is implemented by sources that can report their backlog;
// the job manager's autoscaling rules consume it.
type LagReporter interface {
	Lag() int64
}

// StreamSource reads a topic from a broker cluster through a stream.Reader
// over all of its partitions, so checkpoints capture the exact read
// position (Flink's Kafka source contract); what it adds is decoding, event
// time — from the schema's configured time field — and the merge of its
// partitions by it. When it has caught up, Next parks in the reader's Wait
// and an append to any partition wakes it.
//
// Each payload is decoded once, into a row of typed cells (Event.Row) and
// not into a map; only a user function's input is boxed. A payload
// the codec cannot parse is counted (Skipped) and passed over, as the OLAP
// ingester does, instead of failing the job on the same offset after every
// restart.
type StreamSource struct {
	reader   *stream.Reader
	codec    *record.Codec
	schema   *metadata.Schema // the codec's, shared by every row decoded
	timeAt   int              // the time field's position in schema, or -1
	lateness int64
	batch    int
	skipped  atomic.Int64

	// maxTime is written by the runtime's source goroutine and read by
	// whoever asks for the watermark.
	maxTime atomic.Int64
	// fetched holds Next's decoded fetches, one entry per partition, and
	// merged and heads their merge; only the goroutine driving Next touches
	// them.
	fetched [][]Event
	merged  []Event
	heads   []int
	// free holds cell blocks the runtime has handed back.
	free chan *cellBlock
}

// freeBlocks bounds the idle cell blocks a StreamSource keeps: enough for
// the next poll's fetches, while the blocks in flight, which the exchange's
// credits bound, come back. A block handed back to a full pool is dropped.
const freeBlocks = 4

// StreamSourceConfig configures a StreamSource.
type StreamSourceConfig struct {
	// TimeField is the event-time column; empty uses the message timestamp.
	TimeField string
	// LatenessMs is subtracted from the max observed event time to form the
	// watermark (bounded out-of-orderness). Default 0.
	LatenessMs int64
	// Batch is the per-partition fetch size. Default 128.
	Batch int
}

// NewStreamSource creates a source over the topic. The codec decodes
// payloads into rows.
func NewStreamSource(cluster *stream.Cluster, topic string, codec *record.Codec, cfg StreamSourceConfig) (*StreamSource, error) {
	n, err := cluster.Partitions(topic)
	if err != nil {
		return nil, err
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 128
	}
	tps := make([]stream.TopicPartition, n)
	for i := range tps {
		tps[i] = stream.TopicPartition{Topic: topic, Partition: i}
	}
	reader, err := cluster.NewReader(stream.ResetEarliest, tps...)
	if err != nil {
		return nil, err
	}
	schema := codec.Schema()
	timeAt := -1
	if cfg.TimeField != "" {
		timeAt = schema.FieldIndex(cfg.TimeField)
	}
	return &StreamSource{
		reader:   reader,
		codec:    codec,
		schema:   schema,
		timeAt:   timeAt,
		lateness: cfg.LatenessMs,
		batch:    cfg.Batch,
		fetched:  make([][]Event, n),
		heads:    make([]int, n),
		free:     make(chan *cellBlock, freeBlocks),
	}, nil
}

// Next implements Source. A partition's position moves past its whole
// fetch, skipped payloads included. The events are in a slice the next call
// reuses.
func (s *StreamSource) Next(maxWait time.Duration) ([]Event, bool, error) {
	s.reader.Wait(maxWait)
	clear(s.merged) // last call's rows pin the slabs they alias
	s.merged = s.merged[:0]
	total := 0
	maxTime := s.maxTime.Load()
	nf := len(s.schema.Fields)
	for i := range s.fetched {
		clear(s.fetched[i]) // last call's rows pin the slabs they alias
		s.fetched[i] = s.fetched[i][:0]
		msgs, err := s.reader.Fetch(i, s.batch)
		if err != nil {
			return nil, false, err
		}
		if len(msgs) == 0 {
			continue
		}
		// One block of cells per fetch, lent to the events: the rows cross
		// goroutines, and the block comes back once the runtime has
		// processed or written every event in it. Their string cells alias
		// the log slab, whose bytes are never rewritten.
		blk := s.block(len(msgs) * nf)
		cells := blk.cells
		for _, m := range msgs {
			vals := cells[:nf:nf]
			if err := s.codec.DecodeValues(m.Value, vals); err != nil {
				s.skipped.Add(1)
				continue
			}
			cells = cells[nf:]
			ev := Event{Time: m.Timestamp, Row: record.Row{Schema: s.schema, Vals: vals}, block: blk}
			if et := ev.Row.Long(s.timeAt); et != 0 {
				ev.Time = et
			}
			maxTime = max(maxTime, ev.Time)
			s.fetched[i] = append(s.fetched[i], ev)
		}
		blk.refs.Store(int32(len(s.fetched[i])))
		s.reader.Seek(i, msgs[len(msgs)-1].Offset+1)
		total += len(s.fetched[i])
	}
	s.maxTime.Store(maxTime)
	s.merged = mergeByTime(s.merged, s.fetched, s.heads, total)
	return s.merged, false, nil
}

// block returns a cell block of at least n cells for one fetch: one the
// runtime handed back, or a new one of n. A caller that drives Next without
// the runtime never hands any back, and each fetch gets a new block.
func (s *StreamSource) block(n int) *cellBlock {
	select {
	case b := <-s.free:
		if len(b.cells) >= n {
			return b
		}
	default:
	}
	return &cellBlock{cells: make([]record.Value, n), free: s.free}
}

// mergeByTime appends per-partition event slices to out as one, taking the
// earliest head each time (the lower partition on a tie): each partition's
// order is kept, and rows a producer spread over the partitions come out in
// event-time order instead of partition by partition. Downstream that is
// the difference between a watermark that follows a run of events and one
// that overtakes the other partitions' share of the same batch. heads is
// scratch, one entry per partition.
func mergeByTime(out []Event, parts [][]Event, heads []int, total int) []Event {
	clear(heads)
	for len(out) < total {
		best := -1
		for i, p := range parts {
			if heads[i] < len(p) && (best < 0 || p[heads[i]].Time < parts[best][heads[best]].Time) {
				best = i
			}
		}
		out = append(out, parts[best][heads[best]])
		heads[best]++
	}
	return out
}

// Watermark implements Source.
func (s *StreamSource) Watermark() int64 {
	if t := s.maxTime.Load(); t != 0 {
		return t - s.lateness
	}
	return 0
}

// Position implements Source.
func (s *StreamSource) Position() ([]byte, error) {
	return json.Marshal(struct {
		Positions []int64
		MaxTime   int64
	}{s.reader.Offsets(), s.maxTime.Load()})
}

// Seek implements Source.
func (s *StreamSource) Seek(pos []byte) error {
	var p struct {
		Positions []int64
		MaxTime   int64
	}
	if err := json.Unmarshal(pos, &p); err != nil {
		return fmt.Errorf("flow: bad source position: %w", err)
	}
	if len(p.Positions) != len(s.fetched) {
		return fmt.Errorf("flow: position has %d partitions, topic has %d", len(p.Positions), len(s.fetched))
	}
	for i, off := range p.Positions {
		s.reader.Seek(i, off)
	}
	s.maxTime.Store(p.MaxTime)
	return nil
}

// Lag implements LagReporter: total unread backlog across partitions. It
// is the job manager's call, from its own goroutine, and does not queue
// behind a parked Next.
func (s *StreamSource) Lag() int64 { return s.reader.Lag() }

// Skipped returns how many payloads the codec could not parse; each was
// passed over (Metrics.SkippedMessages).
func (s *StreamSource) Skipped() int64 { return s.skipped.Load() }

// BoundedSource replays an in-memory slice of rows — the DataSet-mode
// input used by backfill (§7) and tests. It supports throttling so Kappa+
// backfills can bound their resource usage while reading historic data far
// faster than real time.
type BoundedSource struct {
	events   []Event
	lateness int64
	batch    int
	// ratePerSec throttles emission; 0 means unthrottled.
	ratePerSec int

	mu       sync.Mutex
	idx      int
	maxTime  int64
	lastEmit time.Time
	tokens   float64
}

// NewBoundedSource creates a bounded source over schema-bound rows, which
// it replays as a StreamSource delivers a topic's. timeField supplies event
// time (none ⇒ all events at time 0).
func NewBoundedSource(rows []record.Row, timeField string, batch int) *BoundedSource {
	events := make([]Event, len(rows))
	for i, r := range rows {
		events[i] = Event{Time: r.Long(r.Schema.FieldIndex(timeField)), Row: r}
	}
	if batch <= 0 {
		batch = 128
	}
	return &BoundedSource{events: events, batch: batch}
}

// SetRate throttles the source to at most eventsPerSec (Kappa+ throttling).
func (b *BoundedSource) SetRate(eventsPerSec int) { b.ratePerSec = eventsPerSec }

// SetLateness sets the watermark lag in ms.
func (b *BoundedSource) SetLateness(ms int64) { b.lateness = ms }

// Next implements Source. The batch is a window onto the source's own
// events: callers read it and do not write it.
func (b *BoundedSource) Next(maxWait time.Duration) ([]Event, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.idx >= len(b.events) {
		return nil, true, nil
	}
	n := b.batch
	if b.ratePerSec > 0 {
		// Token bucket: tokens accrue at the configured rate, capped at
		// 50ms worth so idle periods cannot bank unbounded bursts.
		now := time.Now()
		if b.lastEmit.IsZero() {
			b.lastEmit = now
		}
		b.tokens += float64(b.ratePerSec) * now.Sub(b.lastEmit).Seconds()
		b.lastEmit = now
		if cap := float64(b.ratePerSec) * 0.05; b.tokens > cap {
			b.tokens = cap
		}
		if b.tokens < 1 {
			time.Sleep(time.Millisecond)
			return nil, false, nil
		}
		if int(b.tokens) < n {
			n = int(b.tokens)
		}
		b.tokens -= float64(n)
	}
	n = min(n, len(b.events)-b.idx)
	out := b.events[b.idx : b.idx+n : b.idx+n]
	for _, e := range out {
		b.maxTime = max(b.maxTime, e.Time)
	}
	b.idx += n
	return out, b.idx >= len(b.events), nil
}

// Watermark implements Source.
func (b *BoundedSource) Watermark() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.maxTime - b.lateness
}

// Position implements Source.
func (b *BoundedSource) Position() ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return json.Marshal(struct {
		Idx     int
		MaxTime int64
	}{b.idx, b.maxTime})
}

// Seek implements Source.
func (b *BoundedSource) Seek(pos []byte) error {
	var p struct {
		Idx     int
		MaxTime int64
	}
	if err := json.Unmarshal(pos, &p); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.idx = p.Idx
	b.maxTime = p.MaxTime
	return nil
}

// Lag implements LagReporter: remaining rows.
func (b *BoundedSource) Lag() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return int64(len(b.events) - b.idx)
}
