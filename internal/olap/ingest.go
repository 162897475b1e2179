package olap

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metadata"
	"repro/internal/record"
	"repro/internal/stream"
)

// RealtimeIngester consumes a topic from the stream layer into a table
// deployment, one goroutine per input partition — the realtime side of
// Pinot's lambda architecture (§4.3). Partition i of the topic feeds
// ingestion partition i, which for upsert tables is exactly the "organize
// the input stream into multiple partitions by the primary key, and
// distribute each partition to a node" scheme of §4.3.1. Each loop owns a
// stream.Reader over its one partition: it parks in the reader's Wait until
// the partition has data, then decodes a whole fetch from the payload bytes
// into typed cells and appends them through the path IngestBatch takes — no
// record.Record per row.
type RealtimeIngester struct {
	bind    *binding // the codec's fields onto the table's columns
	batch   int
	readers []*stream.Reader // one per partition

	errs    atomic.Int64
	lastErr atomic.Value // error

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewRealtimeIngester wires topic → deployment. The topic must already
// exist; ingestion starts from the earliest retained offsets.
func NewRealtimeIngester(cluster *stream.Cluster, topic string, codec *record.Codec, d *Deployment) (*RealtimeIngester, error) {
	n, err := cluster.Partitions(topic)
	if err != nil {
		return nil, err
	}
	ri := &RealtimeIngester{
		bind:    bind(codec, d),
		batch:   128,
		readers: make([]*stream.Reader, n),
		stop:    make(chan struct{}),
	}
	for i := range ri.readers {
		ri.readers[i], err = cluster.NewReader(stream.ResetEarliest, stream.TopicPartition{Topic: topic, Partition: i})
		if err != nil {
			return nil, err
		}
	}
	// Ingestion health as pull gauges on the deployment registry: the rate
	// counter (olap_ingest_rows_total) is already maintained by Ingest; lag
	// and errors are sampled at snapshot time.
	reg := d.Metrics()
	reg.SetGaugeFunc("ingest_lag_rows", func() float64 { return float64(ri.Lag()) })
	reg.SetGaugeFunc("ingest_errors_total", func() float64 {
		n, _ := ri.Errors()
		return float64(n)
	})
	return ri, nil
}

// Start launches the per-partition ingestion loops.
func (ri *RealtimeIngester) Start() {
	for p := range ri.readers {
		ri.wg.Add(1)
		go ri.consumePartition(p)
	}
}

// Stop halts ingestion and waits for the loops to exit.
func (ri *RealtimeIngester) Stop() {
	select {
	case <-ri.stop:
	default:
		close(ri.stop)
	}
	ri.wg.Wait()
}

// Lag returns the total unconsumed backlog across partitions.
func (ri *RealtimeIngester) Lag() int64 { return ri.Stats().Lag }

// Errors returns the count of ingestion errors (decode or seal failures)
// and the most recent one.
func (ri *RealtimeIngester) Errors() (int64, error) {
	n := ri.errs.Load()
	if err, ok := ri.lastErr.Load().(error); ok {
		return n, err
	}
	return n, nil
}

// IngestStats is a point-in-time snapshot of ingestion health: the error
// counters the consume loops maintain plus the current backlog — what an
// operator dashboard (or test) polls to see whether ingestion is keeping
// up and why not.
type IngestStats struct {
	// Errors counts messages the table can never take — corrupt payloads,
	// rows that do not conform to the table schema or sit on the wrong
	// partition: each is skipped — and seal failures (segment-store outages,
	// retried).
	Errors int64
	// LastErr is the most recent ingestion error (nil when none).
	LastErr error
	// Lag is the total unconsumed backlog across partitions.
	Lag int64
	// Repairs counts read positions the stream layer had to move
	// (stream.Reader.Repairs): rows skipped because retention passed the
	// ingester, or read again because a leader failure cut the log.
	Repairs int64
}

// Stats snapshots the ingester's health counters.
func (ri *RealtimeIngester) Stats() IngestStats {
	n, err := ri.Errors()
	st := IngestStats{Errors: n, LastErr: err}
	for _, r := range ri.readers {
		st.Lag += r.Lag()
		st.Repairs += r.Repairs()
	}
	return st
}

// ingestWait bounds one park of a consume loop on its idle partition, and so
// how long Stop can take; ingestBackoff is the pause after a failed ingest.
const (
	ingestWait    = 10 * time.Millisecond
	ingestBackoff = 5 * time.Millisecond
)

func (ri *RealtimeIngester) consumePartition(p int) {
	defer ri.wg.Done()
	r := ri.readers[p]
	block, vals := ri.bind.scratch(ri.batch)
	for {
		// Wait parks through an outage too (nothing is fetchable), so a
		// Fetch that keeps failing is retried once per ingestWait.
		r.Wait(ingestWait)
		select {
		case <-ri.stop:
			return
		default:
		}
		msgs, err := r.Fetch(0, ri.batch)
		if err != nil {
			continue
		}
		// An empty fetch still calls in: a frozen store a failed seal left
		// unplaced is sealed on entry.
		taken, bad, err := ri.bind.ingest(p, msgs, &block, vals)
		if err == nil && bad != nil {
			// A message the table can never take: count it and move on,
			// as a seal failure (below) is not.
			ri.fail(bad)
			taken++
		}
		if taken > 0 {
			r.Seek(0, msgs[0].Offset+int64(taken))
		}
		if err != nil {
			// A failed seal (centralized backup outage) blocks this
			// partition at the first row the table did not take: retry
			// after a pause rather than dropping it — exactly the "all
			// data ingestion comes to a halt" behavior of §4.3.4.
			ri.fail(err)
			time.Sleep(ingestBackoff)
		}
	}
}

func (ri *RealtimeIngester) fail(err error) {
	ri.errs.Add(1)
	ri.lastErr.Store(err)
}

// binding decodes a topic's payloads into a table's cells: the codec's
// fields map onto the table's columns by the shared rule (record.Binding),
// and each row is checked against the table's partition column.
type binding struct {
	d     *Deployment
	codec *record.Codec
	rule  *record.Binding
	nf    int // the codec's field count
}

func bind(codec *record.Codec, d *Deployment) *binding {
	from := codec.Schema()
	return &binding{d: d, codec: codec, rule: record.Bind(from, d.cfg.Schema), nf: len(from.Fields)}
}

// scratch returns what one consume loop decodes into, fetch after fetch: a
// block for rows rows and one payload's fields in codec order.
func (b *binding) scratch(rows int) (cellBlock, []record.Value) {
	return newCellBlock(b.d.cfg.Schema, rows), make([]record.Value, b.nf)
}

// decode parses one payload from partition p into row, conformed to the
// table schema and checked against the partition column; vals holds the
// payload's fields in codec order.
func (b *binding) decode(p int, payload []byte, vals, row []record.Value) error {
	if err := b.codec.DecodeValues(payload, vals); err != nil {
		return err
	}
	if err := b.rule.Conform(vals, row); err != nil {
		return err
	}
	return b.d.checkPartition(p, row)
}

// ingest decodes msgs, one fetch of partition p, into block up to the first
// message the table can never take (bad) and appends the block
// (Deployment.ingestBlock). taken counts the messages appended; the one
// after them is bad's, when bad is not nil.
func (b *binding) ingest(p int, msgs []stream.Message, block *cellBlock, vals []record.Value) (taken int, bad, err error) {
	block.reset()
	for _, m := range msgs {
		if bad = b.decode(p, m.Value, vals, block.slot()); bad != nil {
			break
		}
		block.keep()
	}
	taken, err = b.d.ingestBlock(p, block)
	return taken, bad, err
}

// cellBlock holds rows on their way into a consuming store, conformed to
// the table schema: row i is cells[i*width : (i+1)*width], one cell per
// schema field in schema order (blobs too: a mutation hook's row carries
// them). A consume loop reuses one block; its string cells alias the
// fetched payloads.
type cellBlock struct {
	width int
	cells []record.Value
}

func newCellBlock(schema *metadata.Schema, rows int) cellBlock {
	return cellBlock{width: len(schema.Fields), cells: make([]record.Value, 0, rows*len(schema.Fields))}
}

func (b *cellBlock) rows() int { return len(b.cells) / b.width }

func (b *cellBlock) row(i int) []record.Value { return b.cells[i*b.width : (i+1)*b.width] }

// slot returns the cells of one more row, to fill and then keep.
func (b *cellBlock) slot() []record.Value {
	n := len(b.cells)
	b.cells = slices.Grow(b.cells, b.width)
	return b.cells[n : n+b.width]
}

func (b *cellBlock) keep() { b.cells = b.cells[:len(b.cells)+b.width] }

// reset empties the block. It lets go of every payload the last use
// aliased, the unkept slot included: a payload pins the log slab it points
// into (stream.Reader.Fetch lets its buffer go the same way).
func (b *cellBlock) reset() {
	clear(b.cells[:min(len(b.cells)+b.width, cap(b.cells))])
	b.cells = b.cells[:0]
}
