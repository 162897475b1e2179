package experiments

import (
	"fmt"
	"time"

	"repro/internal/flow"
	"repro/internal/objstore"
	"repro/internal/olap"
	"repro/internal/record"
	"repro/internal/stream"
	"repro/internal/stream/proxy"
)

// AblationStarTreeLeaf sweeps the star-tree MaxLeafRecords parameter
// (DESIGN.md ablation list): smaller leaves answer more of the query from
// pre-aggregates at the cost of tree size.
func AblationStarTreeLeaf(n int) []Row {
	if n <= 0 {
		n = 50_000
	}
	rows := orderRows(n)
	q := &olap.Query{
		GroupBy: []string{"city"},
		Aggs:    []olap.AggSpec{{Kind: olap.AggSum, Column: "amount"}},
	}
	var out []Row
	for _, maxLeaf := range []int{1, 10, 100, 1000, 10000} {
		seg, err := olap.BuildSegment(fmt.Sprintf("ab-%d", maxLeaf), ordersSchema(), rows, olap.IndexConfig{
			StarTree: &olap.StarTreeConfig{
				Dimensions:     []string{"city", "status"},
				Metrics:        []string{"amount"},
				MaxLeafRecords: maxLeaf,
			},
		}, -1)
		if err != nil {
			panic(err)
		}
		const iters = 20
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := seg.Execute(q, nil); err != nil {
				panic(err)
			}
		}
		lat := time.Since(start) / iters
		out = append(out,
			Row{fmt.Sprintf("maxleaf_%d_query_us", maxLeaf), float64(lat.Microseconds()), "us"},
			Row{fmt.Sprintf("maxleaf_%d_tree_nodes", maxLeaf), float64(seg.Tree.Nodes), "nodes"},
		)
	}
	return out
}

// AblationProxyWorkers sweeps the consumer proxy's worker-pool size for a
// fixed 2-partition topic with slow consumers: throughput scales with
// workers well past the partition count, then saturates on the backlog.
func AblationProxyWorkers(messages int, serviceTime time.Duration) []Row {
	if messages <= 0 {
		messages = 240
	}
	if serviceTime <= 0 {
		serviceTime = 2 * time.Millisecond
	}
	var out []Row
	for _, workers := range []int{2, 8, 32} {
		c := newCluster(fmt.Sprintf("abw-%d", workers), 1, 2, "tasks")
		p := stream.NewProducer(c, "svc", "", nil)
		for i := 0; i < messages; i++ {
			if err := p.Produce("tasks", nil, []byte("x")); err != nil {
				panic(err)
			}
		}
		px, err := proxy.New(c, "g", "tasks", proxy.Config{Workers: workers}, func(stream.Message) error {
			time.Sleep(serviceTime)
			return nil
		})
		if err != nil {
			panic(err)
		}
		start := time.Now()
		stats := px.DrainUntilIdle(100 * time.Millisecond)
		dur := time.Since(start)
		c.Close()
		out = append(out, Row{
			fmt.Sprintf("workers_%d_msgs_per_s", workers),
			float64(stats.Succeeded) / dur.Seconds(), "msg/s",
		})
	}
	return out
}

// AblationCheckpointInterval measures streaming throughput under different
// checkpoint cadences: aligned barriers cost a little pipeline stall per
// checkpoint, trading recovery time for steady-state throughput.
func AblationCheckpointInterval(events int) []Row {
	if events <= 0 {
		events = 40_000
	}
	var out []Row
	for _, interval := range []time.Duration{0, 50 * time.Millisecond, 10 * time.Millisecond} {
		rows := make([]record.Record, events)
		for i := range rows {
			rows[i] = record.Record{"k": fmt.Sprintf("k%d", i%100), "v": 1.0, "ts": int64(1700000000000 + i)}
		}
		spec := flow.JobSpec{
			Name:    "ckpt-ablation",
			Sources: []flow.SourceSpec{{Source: flow.NewBoundedSource(boundRows(rows), "ts", 256)}},
			Stages: []flow.StageSpec{{Name: "sum", KeyBy: "k", Parallelism: 2, New: func() flow.Operator {
				return flow.NewReduceOp(func(acc record.Record, e flow.Event) record.Record {
					if acc == nil {
						return record.Record{"v": e.Data.Double("v")}
					}
					acc["v"] = acc.Double("v") + e.Data.Double("v")
					return acc
				})
			}}},
			Sink: flow.SinkSpec{Sink: &flow.FuncSink{Fn: func(flow.Event) error { return nil }}},
		}
		label := "none"
		if interval > 0 {
			spec.CheckpointStore = objstore.NewMemStore()
			spec.CheckpointInterval = interval
			label = fmt.Sprintf("%dms", interval.Milliseconds())
		}
		job, err := flow.NewJob(spec)
		if err != nil {
			panic(err)
		}
		start := time.Now()
		if err := job.Run(); err != nil {
			panic(err)
		}
		dur := time.Since(start)
		out = append(out, Row{
			fmt.Sprintf("ckpt_%s_kevents_per_s", label),
			float64(events) / dur.Seconds() / 1000, "kev/s",
		})
	}
	return out
}
