package olap

import (
	"sync"
	"sync/atomic"
	"time"

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
// the partition has data, then decodes a whole fetch and hands it to
// Deployment.IngestBatch.
type RealtimeIngester struct {
	codec   *record.Codec
	d       *Deployment
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
		codec:   codec,
		d:       d,
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
	// Errors counts decode failures (corrupt messages, skipped) and seal
	// failures (segment-store outages, retried).
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
	rows := make([]record.Record, 0, ri.batch)
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
		// Decode the fetch up to its first corrupt message and ingest
		// those rows as one batch; offsets in a fetch are consecutive.
		var corrupt error
		rows = rows[:0]
		for _, m := range msgs {
			row, err := ri.codec.Decode(m.Value)
			if err != nil {
				corrupt = err
				break
			}
			rows = append(rows, row)
		}
		// An empty fetch still calls in: a frozen store a failed seal left
		// unplaced is sealed on entry.
		taken, err := ri.d.IngestBatch(p, rows)
		if err == nil && corrupt != nil {
			// Count it and move on (it can never succeed, unlike a seal
			// failure).
			ri.fail(corrupt)
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
