package regions

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/stream"
	"repro/internal/stream/replicator"
)

func newRegion(t *testing.T, name string, partitions int, topics ...string) *Region {
	t.Helper()
	mk := func(suffix string) *stream.Cluster {
		c, err := stream.NewCluster(stream.ClusterConfig{Name: name + "-" + suffix, Nodes: 3, ReplicationInterval: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		for _, topic := range topics {
			if err := c.CreateTopic(topic, stream.TopicConfig{Partitions: partitions, Acks: stream.AckAll}); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	return &Region{Name: name, Regional: mk("regional"), Aggregate: mk("aggregate")}
}

func setupMesh(t *testing.T) *MultiRegion {
	t.Helper()
	r1 := newRegion(t, "dca", 2, "trips")
	r2 := newRegion(t, "phx", 2, "trips")
	mr, err := NewMultiRegion([]*Region{r1, r2}, []string{"trips"}, replicator.Config{
		Workers: 1, CheckpointEvery: 5, BatchSize: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	mr.Start()
	t.Cleanup(mr.Stop)
	return mr
}

func TestActiveActiveDB(t *testing.T) {
	db := NewActiveActiveDB()
	db.Put("surge/sf", "1.5")
	db.Put("surge/nyc", "2.0")
	db.Put("other", "x")
	if v, ok := db.Get("surge/sf"); !ok || v != "1.5" {
		t.Errorf("Get = %q, %v", v, ok)
	}
	if _, ok := db.Get("missing"); ok {
		t.Error("missing key should not exist")
	}
	keys := db.Keys("surge/")
	if len(keys) != 2 || keys[0] != "surge/nyc" {
		t.Errorf("Keys = %v", keys)
	}
}

func TestMappingStore(t *testing.T) {
	ms := NewMappingStore()
	for i := int64(1); i <= 5; i++ {
		ms.SaveMapping("a", "b", replicator.OffsetMapping{Topic: "t", Partition: 0, SrcOffset: i * 10, DstOffset: i * 10})
	}
	if src, ok := ms.SrcForDst("a", "b", "t", 0, 35); !ok || src != 30 {
		t.Errorf("SrcForDst(35) = %d, %v; want 30", src, ok)
	}
	if dst, ok := ms.DstForSrc("a", "b", "t", 0, 42); !ok || dst != 40 {
		t.Errorf("DstForSrc(42) = %d, %v; want 40", dst, ok)
	}
	if _, ok := ms.SrcForDst("a", "b", "t", 0, 5); ok {
		t.Error("offset below first checkpoint should not resolve")
	}
	if _, ok := ms.SrcForDst("x", "y", "t", 0, 100); ok {
		t.Error("unknown pipe should not resolve")
	}
}

func TestGlobalViewAggregation(t *testing.T) {
	mr := setupMesh(t)
	// Produce regionally in both regions.
	for ri := 0; ri < 2; ri++ {
		p := stream.NewProducer(mr.Region(ri).Regional, fmt.Sprintf("svc-%d", ri), "", nil)
		for i := 0; i < 40; i++ {
			if err := p.Produce("trips", nil, []byte(fmt.Sprintf("r%d-%d", ri, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if lag := mr.WaitReplicated(5 * time.Second); lag != 0 {
		t.Fatalf("replication lag = %d", lag)
	}
	// Both aggregates hold the global view (80 messages each).
	for ri := 0; ri < 2; ri++ {
		var total int64
		for p := 0; p < 2; p++ {
			_, high, err := mr.Region(ri).Aggregate.Watermarks(stream.TopicPartition{Topic: "trips", Partition: p})
			if err != nil {
				t.Fatal(err)
			}
			total += high
		}
		if total != 80 {
			t.Errorf("region %d aggregate has %d, want 80 (global view)", ri, total)
		}
	}
}

func TestCoordinatorFailover(t *testing.T) {
	mr := setupMesh(t)
	if mr.Primary() != 0 {
		t.Fatalf("initial primary = %d", mr.Primary())
	}
	mr.Region(0).Aggregate.SetDown(true)
	if got := mr.Failover(); got != 1 {
		t.Fatalf("failover moved primary to %d, want 1", got)
	}
	if mr.Failovers() != 1 {
		t.Errorf("failovers = %d", mr.Failovers())
	}
	mr.Region(0).Aggregate.SetDown(false)
}

func TestActivePassiveOffsetSync(t *testing.T) {
	mr := setupMesh(t)
	// Produce 100 messages in region 0's regional cluster.
	p := stream.NewProducer(mr.Region(0).Regional, "svc", "", nil)
	for i := 0; i < 100; i++ {
		if err := p.Produce("trips", nil, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if lag := mr.WaitReplicated(5 * time.Second); lag != 0 {
		t.Fatalf("replication lag = %d", lag)
	}

	// An active/passive consumer (payment processing) consumes ~60% on the
	// active region's aggregate and commits.
	active := mr.Region(0)
	consumer := active.Aggregate.NewConsumer("payments", "trips")
	consumed := 0
	for consumed < 60 {
		msgs := consumer.Poll(time.Second, 10)
		if len(msgs) == 0 {
			break
		}
		consumed += len(msgs)
	}
	consumer.Commit()
	consumer.Close()

	// The offset sync job translates committed offsets to region 1.
	sync := NewOffsetSync(mr, "payments", "trips")
	if synced := sync.Sync(0); synced == 0 {
		t.Fatal("offset sync translated nothing")
	}

	// Disaster strikes region 0; consumer resumes on region 1.
	mr.Region(0).Aggregate.SetDown(true)
	mr.Failover()
	passive := mr.Region(1)
	resumed := passive.Aggregate.NewConsumer("payments", "trips")
	defer resumed.Close()
	var got int
	for {
		msgs := resumed.Poll(300*time.Millisecond, 50)
		if len(msgs) == 0 {
			break
		}
		got += len(msgs)
	}
	// No loss: it must cover at least the unconsumed tail (100-60 = 40);
	// bounded replay: it must NOT replay the full backlog from zero. The
	// replay overlap is bounded by the checkpoint granularity, which is
	// effectively one replication batch (16) per partition.
	if got < 40 {
		t.Errorf("resumed consumer saw %d, want >= 40 (no data loss)", got)
	}
	if got >= 100 {
		t.Errorf("resumed consumer saw %d: replayed the full backlog instead of resuming from synced offsets", got)
	}
}

// The aggregates need not interleave the regions alike: the active one holds
// dca's burst then phx's, the passive one phx's then dca's. A group that has
// read all of dca's data and less than one checkpoint of phx's must resume
// where phx's data starts on the passive side, not after dca's.
func TestOffsetSyncWhenAggregatesInterleaveDifferently(t *testing.T) {
	dca, phx := newRegion(t, "dca", 1, "trips"), newRegion(t, "phx", 1, "trips")
	mr, err := NewMultiRegion([]*Region{dca, phx}, []string{"trips"}, replicator.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// What four replicators checkpoint for 50 messages a region, a mapping
	// before the first write and one per batch of 16 after.
	save := func(src, dst *stream.Cluster, dstStart int64) {
		for _, n := range []int64{0, 16, 32, 48, 50} {
			mr.Mappings().SaveMapping(src.Name(), dst.Name(), replicator.OffsetMapping{Topic: "trips", SrcOffset: n, DstOffset: dstStart + n})
		}
	}
	save(dca.Regional, dca.Aggregate, 0)
	save(phx.Regional, dca.Aggregate, 50)
	save(phx.Regional, phx.Aggregate, 0)
	save(dca.Regional, phx.Aggregate, 50)

	tp := stream.TopicPartition{Topic: "trips"}
	for _, tc := range []struct{ committed, want int64 }{
		{60, 0},  // 10 of phx's read: below its first checkpoint
		{40, 0},  // none of phx's read
		{70, 16}, // 20 of phx's read: one checkpoint
	} {
		dca.Aggregate.CommitGroupOffset("payments", tp, tc.committed)
		if synced := NewOffsetSync(mr, "payments", "trips").Sync(0); synced != 1 {
			t.Fatalf("committed %d: synced %d partitions, want 1", tc.committed, synced)
		}
		if got := phx.Aggregate.Committed("payments", tp); got != tc.want {
			t.Errorf("committed %d on the active aggregate synced to %d on the passive one, want %d", tc.committed, got, tc.want)
		}
	}
}

func TestNewMultiRegionValidation(t *testing.T) {
	r := newRegion(t, "solo", 1, "t")
	if _, err := NewMultiRegion([]*Region{r}, []string{"t"}, replicator.Config{}); err == nil {
		t.Error("single-region mesh should be rejected")
	}
}
