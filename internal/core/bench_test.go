package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/objstore"
	"repro/internal/olap"
	"repro/internal/stream"
)

// BenchmarkProduceToVisible is the freshness path end to end: one 100-row
// batch produced into the raw stream, through a filtering streaming-SQL job
// that writes the clean stream, into the OLAP table behind it. An iteration
// ends when the table has ingested the batch (spinning on Stats, so the
// watcher adds no timer of its own): ns/op is produce-to-visible latency
// for a batch on an otherwise idle pipeline.
func BenchmarkProduceToVisible(b *testing.B) {
	const batch = 100
	c, err := stream.NewCluster(stream.ClusterConfig{Name: "main", Nodes: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	p, err := NewPlatform(Config{Clusters: []*stream.Cluster{c}, Storage: objstore.NewMemStore()})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	raw := tripsSchema()
	raw.Name = "raw_trips"
	// Retention spans several 1 MiB log segments: a head segment is never
	// dropped while a consumer is still on it.
	topic := stream.TopicConfig{Partitions: 2, RetentionBytes: 4 << 20}
	if _, err := p.CreateStream("bench", raw, topic); err != nil {
		b.Fatal(err)
	}
	cleanCodec, err := p.CreateStream("bench", tripsSchema(), topic)
	if err != nil {
		b.Fatal(err)
	}
	d, err := p.CreateOLAPTable("bench", olap.TableConfig{Name: "trips", SegmentRows: 25_000}, "trips", olap.BackupP2P)
	if err != nil {
		b.Fatal(err)
	}
	sql := "SELECT trip_id, city, fare, ts FROM raw_trips WHERE city != 'nowhere'"
	if err := p.DeployStreamingSQL("bench", "clean", sql, flow.NewTopicSink(p.Streams, "trips", cleanCodec)); err != nil {
		b.Fatal(err)
	}
	rows := tripRows(batch)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.ProduceRecords("bench", "raw_trips", rows); err != nil {
			b.Fatal(err)
		}
		want := int64(i+1) * batch
		for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
			if ingested, _, _ := d.Stats(); ingested >= want {
				break
			}
			if time.Now().After(deadline) {
				b.Fatalf("batch %d never became visible", i)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*batch), "allocs/row")
}
