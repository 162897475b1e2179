// Real-time prediction monitoring (§5.3): an interval join of model
// predictions against observed outcomes (labels), producing live accuracy
// measurements per model, aggregated in windows and pre-aggregated into an
// OLAP cube for fast exploration — the high-cardinality time-series workload
// that exceeds a conventional TSDB.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"sort"
	"time"

	"repro/internal/flow"
	"repro/internal/metadata"
	"repro/internal/objstore"
	"repro/internal/olap"
	"repro/internal/record"
	"repro/internal/stream"
)

func main() {
	cluster, err := stream.NewCluster(stream.ClusterConfig{Name: "ml", Nodes: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	for _, topic := range []string{"predictions", "outcomes"} {
		if err := cluster.CreateTopic(topic, stream.TopicConfig{Partitions: 4}); err != nil {
			log.Fatal(err)
		}
	}
	predSchema := &metadata.Schema{
		Name:    "predictions",
		Version: 1,
		Fields: []metadata.Field{
			{Name: "model", Type: metadata.TypeString, Dimension: true},
			{Name: "entity", Type: metadata.TypeString},
			{Name: "score", Type: metadata.TypeDouble},
			{Name: "ts", Type: metadata.TypeTimestamp},
		},
		TimeField: "ts",
	}
	outSchema := &metadata.Schema{
		Name:    "outcomes",
		Version: 1,
		Fields: []metadata.Field{
			{Name: "model", Type: metadata.TypeString, Dimension: true},
			{Name: "entity", Type: metadata.TypeString},
			{Name: "label", Type: metadata.TypeDouble},
			{Name: "ts", Type: metadata.TypeTimestamp},
		},
		TimeField: "ts",
	}
	predCodec, _ := record.NewCodec(predSchema)
	outCodec, _ := record.NewCodec(outSchema)

	// Thousands of models x entities: the high-cardinality fan-out, from
	// the start of a window.
	base := time.Now().Add(-10*time.Minute).UnixMilli() / 60_000 * 60_000
	predProducer := stream.NewProducer(cluster, "prediction-service", "", nil)
	outProducer := stream.NewProducer(cluster, "label-pipeline", "", nil)
	const events = 5000
	for i := 0; i < events; i++ {
		model := fmt.Sprintf("model-%02d", i%40)
		entity := fmt.Sprintf("e-%05d", i)
		score := float64(i%100) / 100
		drift := 0.0
		if i%40 == 7 { // model-07 is degrading
			drift = 0.4
		}
		pp, _ := predCodec.Encode(record.Record{"model": model, "entity": entity, "score": score, "ts": base + int64(i)*50})
		op, _ := outCodec.Encode(record.Record{"model": model, "entity": entity, "label": score + drift, "ts": base + int64(i)*50 + 500})
		if err := predProducer.Produce("predictions", []byte(entity), pp); err != nil {
			log.Fatal(err)
		}
		if err := outProducer.Produce("outcomes", []byte(entity), op); err != nil {
			log.Fatal(err)
		}
	}

	// Join predictions to outcomes within 30s, compute per-model absolute
	// error, window it per minute. One fetch holds each topic's whole
	// backlog, so each source delivers it in event-time order and no event
	// arrives behind the watermark.
	predSrc, err := flow.NewStreamSource(cluster, "predictions", predCodec, flow.StreamSourceConfig{TimeField: "ts", Batch: events})
	if err != nil {
		log.Fatal(err)
	}
	outSrc, err := flow.NewStreamSource(cluster, "outcomes", outCodec, flow.StreamSourceConfig{TimeField: "ts", Batch: events})
	if err != nil {
		log.Fatal(err)
	}
	accuracy := flow.NewCollectSink()
	job, err := flow.NewJob(flow.JobSpec{
		Name: "prediction-monitoring",
		Sources: []flow.SourceSpec{
			{Name: "predictions", Source: predSrc, WatermarkEvery: 32},
			{Name: "outcomes", Source: outSrc, WatermarkEvery: 32},
		},
		Stages: []flow.StageSpec{
			{
				Name:        "join",
				Parallelism: 4,
				KeyBySource: map[int]string{0: "entity", 1: "entity"},
				New:         func() flow.Operator { return flow.NewIntervalJoinOp(30_000) },
			},
			{
				Name: "error",
				New: func() flow.Operator {
					return &flow.MapOp{Fn: func(e flow.Event) (flow.Event, error) {
						e.Data = e.Data.Clone()
						e.Data["abs_err"] = math.Abs(e.Data.Double("score") - e.Data.Double("label"))
						return e, nil
					}}
				},
			},
			{
				Name: "window", KeyBy: "model", Parallelism: 4,
				New: func() flow.Operator {
					return flow.NewWindowAggOp(60_000, 0, "model",
						flow.Aggregation{Kind: record.AggCount, As: "samples"},
						flow.Aggregation{Kind: record.AggAvg, Field: "abs_err", As: "mae"},
						flow.Aggregation{Kind: record.AggMax, Field: "abs_err", As: "worst"},
					)
				},
			},
		},
		Sink: flow.SinkSpec{Sink: accuracy},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := job.Start(); err != nil {
		log.Fatal(err)
	}
	defer func() { job.Cancel(); job.Wait() }()

	// Read the accuracy windows once the sink has passed the last
	// prediction's watermark (the earlier of the two sources' last ones):
	// every window it closes is then in the sink.
	last := base + (events-1)*50
	for deadline := time.Now().Add(10 * time.Second); job.Metrics().SinkWatermark < last; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			log.Fatalf("sink watermark %d, the last prediction's is %d", job.Metrics().SinkWatermark, last)
		}
	}
	recs := accuracy.Records()
	// In model and window order, as the windows arrive in no fixed order.
	sort.Slice(recs, func(i, j int) bool {
		if a, b := recs[i].String("model"), recs[j].String("model"); a != b {
			return a < b
		}
		return recs[i].Long("window_start") < recs[j].Long("window_start")
	})
	fmt.Printf("accuracy windows emitted: %d\n", len(recs))

	// Pre-aggregate into an OLAP cube for exploration (as §5.3 describes).
	cubeSchema := &metadata.Schema{
		Name:    "model_accuracy",
		Version: 1,
		Fields: []metadata.Field{
			{Name: "model", Type: metadata.TypeString, Dimension: true},
			{Name: "samples", Type: metadata.TypeLong},
			{Name: "mae", Type: metadata.TypeDouble},
			{Name: "worst", Type: metadata.TypeDouble},
			{Name: "window_start", Type: metadata.TypeTimestamp},
		},
		TimeField: "window_start",
	}
	servers := []*olap.Server{olap.NewServer("s0"), olap.NewServer("s1")}
	cube, err := olap.NewDeployment(olap.DeploymentConfig{
		Table:        olap.TableConfig{Name: "model_accuracy", Schema: cubeSchema, SegmentRows: 100},
		Servers:      servers,
		SegmentStore: objstore.NewMemStore(),
		Backup:       olap.BackupP2P,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range recs {
		keep := record.Record{
			"model": r["model"], "samples": r["samples"],
			"mae": r["mae"], "worst": r["worst"], "window_start": r["window_start"],
		}
		if err := cube.Ingest(i%2, keep); err != nil {
			log.Fatal(err)
		}
	}
	// Query API v2: a typed request under a per-query deadline (the
	// caller's context) through a broker on the replica-group-aware router
	// (the cube has one server, so the group is trivially the whole
	// deployment — the shape matters, not the size).
	broker := olap.NewBrokerWithOptions(cube, olap.BrokerOptions{Router: &olap.ReplicaGroupRouter{}})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	resp, err := broker.Execute(ctx, &olap.QueryRequest{
		Query: &olap.Query{
			GroupBy: []string{"model"},
			Aggs:    []olap.AggSpec{{Kind: olap.AggAvg, Column: "mae", As: "mae"}},
			OrderBy: []olap.OrderSpec{{Column: "mae", Desc: true}},
			Limit:   5,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nworst models by mean absolute error:")
	for _, row := range resp.Rows {
		fmt.Printf("  %-10v mae=%.3f\n", row[0], row[1])
	}
	fmt.Printf("(route=%s servers_contacted=%d segments_scanned=%d)\n",
		resp.Route.Router, resp.Stats.ServersContacted, resp.Stats.SegmentsScanned)
	if len(resp.Rows) > 0 && resp.Rows[0][0] == "model-07" {
		fmt.Println("\nalert: model-07 prediction drift detected (as injected)")
	}
}
