// Surge pricing (§5.1, Fig 6): trip events flow into regional Kafka,
// uReplicator aggregates them into every region, an identical windowed Flink
// pipeline computes per-hexagon demand/supply multipliers in each region
// (active-active), the primary region's update service writes results to the
// active-active DB, and a coordinator fails over when the primary dies —
// with the surviving region's independently computed state converging
// because both consumed the same global input.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/flow"
	"repro/internal/metadata"
	"repro/internal/record"
	"repro/internal/regions"
	"repro/internal/stream"
	"repro/internal/stream/replicator"
)

const hexagons = 6

func tripSchema() *metadata.Schema {
	return &metadata.Schema{
		Name: "trip_events",
		Fields: []metadata.Field{
			{Name: "hexagon", Type: metadata.TypeString, Dimension: true},
			{Name: "kind", Type: metadata.TypeString, Dimension: true}, // request | open_driver
			{Name: "ts", Type: metadata.TypeTimestamp},
		},
		TimeField: "ts",
	}
}

// surgePipeline computes demand/supply per hexagon per window and writes
// multipliers through the update service callback.
func surgePipeline(region string, agg *stream.Cluster, codec *record.Codec, update func(hexagon string, multiplier float64)) (*flow.Job, error) {
	// One fetch holds every partition's whole backlog, so the source
	// delivers it in event-time order and no trip arrives behind the
	// watermark, however the two regions' replication interleaved it.
	src, err := flow.NewStreamSource(agg, "trip_events", codec, flow.StreamSourceConfig{TimeField: "ts", Batch: 1 << 12})
	if err != nil {
		return nil, err
	}
	return flow.NewJob(flow.JobSpec{
		Name:    "surge-" + region,
		Sources: []flow.SourceSpec{{Source: src, WatermarkEvery: 16}},
		Stages: []flow.StageSpec{
			{
				// Derive the numeric demand signal from the event kind.
				Name: "featurize",
				New: func() flow.Operator {
					return &flow.MapOp{Fn: func(e flow.Event) (flow.Event, error) {
						e.Data = e.Data.Clone()
						if e.Data.String("kind") == "request" {
							e.Data["is_request"] = 1.0
						} else {
							e.Data["is_request"] = 0.0
						}
						return e, nil
					}}
				},
			},
			{
				Name: "demand-supply", KeyBy: "hexagon", Parallelism: 2,
				New: func() flow.Operator {
					return flow.NewWindowAggOp(60_000, 0, "hexagon",
						flow.Aggregation{Kind: record.AggCount, As: "events"},
						flow.Aggregation{Kind: record.AggSum, Field: "is_request", As: "demand"},
					)
				},
			},
			{
				// The "complex machine-learning based algorithm": a
				// deterministic demand/supply ratio curve.
				Name: "model",
				New: func() flow.Operator {
					return &flow.MapOp{Fn: func(e flow.Event) (flow.Event, error) {
						demand := e.Data.Double("demand")
						supply := e.Data.Double("events") - demand
						mult := 1.0
						if supply > 0 {
							mult = 1.0 + 1.5*(demand/supply-1.0)
						}
						if mult < 1 {
							mult = 1
						}
						e.Data = e.Data.Clone()
						e.Data["multiplier"] = mult
						return e, nil
					}}
				},
			},
		},
		Sink: flow.SinkSpec{Sink: &flow.FuncSink{Fn: func(e flow.Event) error {
			update(e.Data.String("hexagon"), e.Data.Double("multiplier"))
			return nil
		}}},
	})
}

func main() {
	codec, err := record.NewCodec(func() *metadata.Schema { s := tripSchema(); s.Version = 1; return s }())
	if err != nil {
		log.Fatal(err)
	}
	mkRegion := func(name string) *regions.Region {
		mk := func(suffix string) *stream.Cluster {
			c, err := stream.NewCluster(stream.ClusterConfig{Name: name + "-" + suffix, Nodes: 3})
			if err != nil {
				log.Fatal(err)
			}
			// Surge favors freshness over consistency: the higher-throughput
			// non-lossless configuration (§5.1).
			if err := c.CreateTopic("trip_events", stream.TopicConfig{Partitions: 4, Acks: stream.AckLeader, ReplicationFactor: 2}); err != nil {
				log.Fatal(err)
			}
			return c
		}
		return &regions.Region{Name: name, Regional: mk("regional"), Aggregate: mk("aggregate")}
	}
	dca, phx := mkRegion("dca"), mkRegion("phx")
	mesh, err := regions.NewMultiRegion([]*regions.Region{dca, phx}, []string{"trip_events"},
		replicator.Config{Workers: 2, CheckpointEvery: 32})
	if err != nil {
		log.Fatal(err)
	}
	mesh.Start()
	defer mesh.Stop()

	// Produce trips into both regional clusters (riders in both regions),
	// from the start of a window.
	base := time.Now().Add(-5*time.Minute).UnixMilli() / 60_000 * 60_000
	var last int64
	for ri, r := range []*regions.Region{dca, phx} {
		p := stream.NewProducer(r.Regional, "rider-app", "", nil)
		for i := 0; i < 1200; i++ {
			hex := fmt.Sprintf("hex-%d", i%hexagons)
			kind := "open_driver"
			// Hexagon k gets demand proportional to its index.
			if i%(hexagons+1) < (i%hexagons)+1 {
				kind = "request"
			}
			last = max(last, base+int64(i)*100+int64(ri))
			payload, err := codec.Encode(record.Record{
				"hexagon": hex, "kind": kind, "ts": base + int64(i)*100 + int64(ri),
			})
			if err != nil {
				log.Fatal(err)
			}
			if err := p.Produce("trip_events", []byte(hex), payload); err != nil {
				log.Fatal(err)
			}
		}
	}
	if lag := mesh.WaitReplicated(10 * time.Second); lag != 0 {
		log.Fatalf("replication lag %d", lag)
	}

	// One surge pipeline per region over its aggregate cluster; only the
	// primary region's update service writes to the active-active DB. Each
	// is read once its sink has passed the last trip's watermark: every
	// window that watermark closes is then computed and written.
	db := mesh.DB()
	results := map[string]map[string]float64{"dca": {}, "phx": {}}
	for i, r := range []*regions.Region{dca, phx} {
		region := r.Name
		job, err := surgePipeline(region, r.Aggregate, codec, func(hex string, mult float64) {
			results[region][hex] = mult
			if mesh.Primary() == i {
				db.Put("surge/"+hex, fmt.Sprintf("%.2f", mult))
			}
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := job.Start(); err != nil {
			log.Fatal(err)
		}
		defer func() { job.Cancel(); job.Wait() }()
		for deadline := time.Now().Add(10 * time.Second); job.Metrics().SinkWatermark < last; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				log.Fatalf("surge-%s: sink watermark %d, the last trip's is %d", region, job.Metrics().SinkWatermark, last)
			}
		}
	}

	fmt.Println("surge multipliers (primary region:", []string{"dca", "phx"}[mesh.Primary()], "):")
	for h := 0; h < hexagons; h++ {
		key := fmt.Sprintf("surge/hex-%d", h)
		if v, ok := db.Get(key); ok {
			fmt.Printf("  %s -> %sx\n", key, v)
		}
	}

	// Disaster: the primary region's aggregate cluster dies. The
	// coordinator fails over; the other region's independently computed
	// state has converged, so multipliers remain available.
	fmt.Println("\n-- failing primary region --")
	dca.Aggregate.SetDown(true)
	newPrimary := mesh.Failover()
	fmt.Println("new primary region:", []string{"dca", "phx"}[newPrimary])
	agree := 0
	for h := 0; h < hexagons; h++ {
		hex := fmt.Sprintf("hex-%d", h)
		if results["dca"][hex] == results["phx"][hex] {
			agree++
		}
	}
	fmt.Printf("regions computed identical multipliers for %d/%d hexagons (state convergence)\n", agree, hexagons)
}
