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
// distribute each partition to a node" scheme of §4.3.1. Each loop parks in
// the cluster's Wait until its partition has data, then hands a whole fetch
// to Deployment.IngestBatch.
type RealtimeIngester struct {
	cluster *stream.Cluster
	topic   string
	codec   *record.Codec
	d       *Deployment
	batch   int

	positions []atomic.Int64
	errs      atomic.Int64
	lastErr   atomic.Value // error

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
		cluster:   cluster,
		topic:     topic,
		codec:     codec,
		d:         d,
		batch:     128,
		positions: make([]atomic.Int64, n),
		stop:      make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		low, _, err := cluster.Watermarks(stream.TopicPartition{Topic: topic, Partition: i})
		if err != nil {
			return nil, err
		}
		ri.positions[i].Store(low)
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
	for p := range ri.positions {
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
func (ri *RealtimeIngester) Lag() int64 {
	var lag int64
	for p := range ri.positions {
		_, high, err := ri.cluster.Watermarks(stream.TopicPartition{Topic: ri.topic, Partition: p})
		if err != nil {
			continue
		}
		if d := high - ri.positions[p].Load(); d > 0 {
			lag += d
		}
	}
	return lag
}

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
}

// Stats snapshots the ingester's health counters.
func (ri *RealtimeIngester) Stats() IngestStats {
	n, err := ri.Errors()
	return IngestStats{Errors: n, LastErr: err, Lag: ri.Lag()}
}

// ingestWait bounds one park of a consume loop on its idle partition, and so
// how long Stop can take; ingestBackoff is the pause after a failed ingest.
const (
	ingestWait    = 10 * time.Millisecond
	ingestBackoff = 5 * time.Millisecond
)

func (ri *RealtimeIngester) consumePartition(p int) {
	defer ri.wg.Done()
	tp := stream.TopicPartition{Topic: ri.topic, Partition: p}
	at := []stream.Position{{TopicPartition: tp}}
	rows := make([]record.Record, 0, ri.batch)
	for {
		pos := ri.positions[p].Load()
		at[0].Offset = pos
		// Wait parks through an outage too (nothing is fetchable), so a
		// Fetch that keeps failing is retried once per ingestWait.
		ri.cluster.Wait(at, ingestWait)
		select {
		case <-ri.stop:
			return
		default:
		}
		msgs, err := ri.cluster.Fetch(tp, pos, ri.batch)
		if err != nil {
			// Retention may have advanced; skip to the low watermark.
			if low, _, werr := ri.cluster.Watermarks(tp); werr == nil && pos < low {
				ri.positions[p].Store(low)
			}
			continue
		}
		// Decode the fetch up to its first corrupt message and ingest
		// those rows as one batch; offsets in a fetch are consecutive.
		var corrupt error
		rows = rows[:0]
		for _, m := range msgs {
			r, err := ri.codec.Decode(m.Value)
			if err != nil {
				corrupt = err
				break
			}
			rows = append(rows, r)
		}
		n, err := ri.d.IngestBatch(p, rows)
		pos += int64(n)
		if err != nil {
			// A failed seal (centralized backup outage) blocks this
			// partition at the first row the table did not take: retry
			// after a pause rather than dropping it — exactly the "all
			// data ingestion comes to a halt" behavior of §4.3.4.
			ri.fail(err)
			ri.positions[p].Store(pos)
			time.Sleep(ingestBackoff)
			continue
		}
		if corrupt != nil {
			// Count it and move on (it can never succeed, unlike a seal
			// failure).
			ri.fail(corrupt)
			pos++
		}
		ri.positions[p].Store(pos)
	}
}

func (ri *RealtimeIngester) fail(err error) {
	ri.errs.Add(1)
	ri.lastErr.Store(err)
}
