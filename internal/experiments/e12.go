package experiments

import (
	"fmt"
	"time"

	"repro/internal/regions"
	"repro/internal/stream"
	"repro/internal/stream/replicator"
)

// E12 reproduces the §6 failover scenarios (Figs 6-7): an active-active
// consumer's state converges in both regions because both aggregates see the
// same global input, and an active-passive consumer resumes from synced
// offsets after a regional disaster without loss and without replaying the
// full backlog.
func E12(messages int) []Row {
	if messages <= 0 {
		messages = 400
	}
	mkRegion := func(name string) *regions.Region {
		mk := func(suffix string) *stream.Cluster {
			c, err := stream.NewCluster(stream.ClusterConfig{Name: name + "-" + suffix, Nodes: 3, ReplicationInterval: time.Millisecond})
			if err != nil {
				panic(err)
			}
			if err := c.CreateTopic("trips", stream.TopicConfig{Partitions: 2, Acks: stream.AckAll}); err != nil {
				panic(err)
			}
			return c
		}
		return &regions.Region{Name: name, Regional: mk("regional"), Aggregate: mk("aggregate")}
	}
	r0, r1 := mkRegion("dca"), mkRegion("phx")
	mr, err := regions.NewMultiRegion([]*regions.Region{r0, r1}, []string{"trips"}, replicator.Config{
		Workers: 1, CheckpointEvery: 8, BatchSize: 16,
	})
	if err != nil {
		panic(err)
	}
	mr.Start()
	defer mr.Stop()
	defer func() {
		for _, r := range []*regions.Region{r0, r1} {
			r.Regional.Close()
			r.Aggregate.Close()
		}
	}()

	// Produce in both regions.
	for ri, r := range []*regions.Region{r0, r1} {
		p := stream.NewProducer(r.Regional, fmt.Sprintf("svc%d", ri), "", nil)
		for i := 0; i < messages/2; i++ {
			if err := p.Produce("trips", nil, []byte(fmt.Sprintf("r%d-%d", ri, i))); err != nil {
				panic(err)
			}
		}
	}
	residual := mr.WaitReplicated(10 * time.Second)

	// Active-active convergence: both aggregates hold the global count.
	count := func(r *regions.Region) int64 {
		var total int64
		for p := 0; p < 2; p++ {
			_, high, err := r.Aggregate.Watermarks(stream.TopicPartition{Topic: "trips", Partition: p})
			if err == nil {
				total += high
			}
		}
		return total
	}
	agg0, agg1 := count(r0), count(r1)

	// Active-passive: consume 60% on region 0, sync, fail over.
	consumer := r0.Aggregate.NewConsumer("payments", "trips")
	consumed := 0
	for consumed < messages*6/10 {
		msgs := consumer.Poll(time.Second, 32)
		if len(msgs) == 0 {
			break
		}
		consumed += len(msgs)
	}
	consumer.Commit()
	consumer.Close()
	sync := regions.NewOffsetSync(mr, "payments", "trips")
	synced := sync.Sync(0)
	r0.Aggregate.SetDown(true)
	newPrimary := mr.Failover()

	resumed := r1.Aggregate.NewConsumer("payments", "trips")
	defer resumed.Close()
	got := 0
	for {
		msgs := resumed.Poll(300*time.Millisecond, 64)
		if len(msgs) == 0 {
			break
		}
		got += len(msgs)
	}
	unconsumed := int64(messages - consumed)
	return []Row{
		{"replication_residual_lag", float64(residual), "msgs"},
		{"aa_region0_global_msgs", float64(agg0), "msgs"},
		{"aa_region1_global_msgs", float64(agg1), "msgs"},
		{"ap_synced_partitions", float64(synced), "parts"},
		{"ap_new_primary", float64(newPrimary), "region"},
		{"ap_unconsumed_at_failover", float64(unconsumed), "msgs"},
		{"ap_resumed_msgs", float64(got), "msgs"},
		{"ap_replay_overlap", float64(int64(got) - unconsumed), "msgs"},
	}
}
