package olap

import (
	"strings"
	"testing"
	"time"

	"repro/internal/objstore"
	"repro/internal/record"
	"repro/internal/stream"
)

// Stats must surface the error counters the consume loops maintain: a
// corrupt message is counted (and skipped) while well-formed ingestion
// proceeds, and the snapshot reports the cause.
func TestIngesterStatsSurfacesErrors(t *testing.T) {
	cluster, err := stream.NewCluster(stream.ClusterConfig{Name: "c", Nodes: 1, ReplicationInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.CreateTopic("orders", stream.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	codec, err := record.NewCodec(ordersSchema())
	if err != nil {
		t.Fatal(err)
	}
	d, _ := newDeployment(t, 1, 1, false, BackupP2P, nil)
	ing, err := NewRealtimeIngester(cluster, "orders", codec, d)
	if err != nil {
		t.Fatal(err)
	}
	if s := ing.Stats(); s.Errors != 0 || s.LastErr != nil {
		t.Fatalf("fresh ingester stats = %+v", s)
	}
	ing.Start()
	defer ing.Stop()

	p := stream.NewProducer(cluster, "svc", "", nil)
	rows := orderRows(20)
	for i, r := range rows {
		if i == 10 {
			// A corrupt payload the codec cannot decode.
			if err := p.Produce("orders", nil, []byte("\x00garbage")); err != nil {
				t.Fatal(err)
			}
		}
		payload, _ := codec.Encode(r)
		if err := p.Produce("orders", []byte(r.String("order_id")), payload); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		s := ing.Stats()
		if s.Errors == 1 && s.Lag == 0 {
			if s.LastErr == nil {
				t.Fatal("Stats.LastErr is nil despite a decode error")
			}
			// The corrupt message was skipped, not a head-of-line block:
			// every valid row landed.
			ingested, _, _ := d.Stats()
			if ingested != int64(len(rows)) {
				t.Fatalf("ingested = %d, want %d", ingested, len(rows))
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("stats never converged: %+v", ing.Stats())
}

// A leader failure on an AckLeader topic cuts the log behind the ingester
// and producers carry on from the cut: the new messages reuse offsets the
// ingester has passed. It must go back to the cut (stream.Reader's rule),
// ingest every new message, and report the repair.
func TestIngesterRereadsAfterLeaderFailureCutsTheLog(t *testing.T) {
	cluster, err := stream.NewCluster(stream.ClusterConfig{Name: "c", Nodes: 3, ReplicationInterval: time.Hour}) // pump never fires
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.CreateTopic("orders", stream.TopicConfig{Partitions: 1, ReplicationFactor: 2, Acks: stream.AckLeader}); err != nil {
		t.Fatal(err)
	}
	codec, err := record.NewCodec(ordersSchema())
	if err != nil {
		t.Fatal(err)
	}
	d, _ := newDeployment(t, 1, 1, false, BackupP2P, nil)
	ing, err := NewRealtimeIngester(cluster, "orders", codec, d)
	if err != nil {
		t.Fatal(err)
	}
	ing.Start()
	defer ing.Stop()

	p := stream.NewProducer(cluster, "svc", "", nil)
	rows := orderRows(50)
	produceAndAwait := func(from, to int) {
		t.Helper()
		for _, r := range rows[from:to] {
			payload, _ := codec.Encode(r)
			if err := p.Produce("orders", nil, payload); err != nil {
				t.Fatal(err)
			}
		}
		for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(time.Millisecond) {
			if ingested, _, _ := d.Stats(); ingested == int64(to) && ing.Stats().Lag == 0 {
				return
			}
			if time.Now().After(deadline) {
				ingested, _, _ := d.Stats()
				t.Fatalf("table has %d rows, want %d; ingester stats %+v", ingested, to, ing.Stats())
			}
		}
	}
	produceAndAwait(0, 20)
	if err := cluster.FailNode(cluster.PartitionStats()[0]["leader"].(int)); err != nil {
		t.Fatal(err)
	}
	if lost := cluster.LostMessages(); lost != 20 {
		t.Fatalf("the failure cut %d messages, want 20", lost)
	}
	produceAndAwait(20, 50)
	if s := ing.Stats(); s.Errors != 0 || s.Repairs != 1 {
		t.Errorf("stats = %+v, want no errors and the one repair", s)
	}
}

// A message that decodes but that the table can never take is counted and
// skipped like a corrupt one; only a seal failure is retried. Here the
// topic's schema leaves rush nullable, the table requires it, and one of
// ten rows has none: the other nine land, and the partition drains.
func TestIngesterSkipsNonConformingRow(t *testing.T) {
	cluster, err := stream.NewCluster(stream.ClusterConfig{Name: "c", Nodes: 1, ReplicationInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.CreateTopic("orders", stream.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	codec, err := record.NewCodec(ordersSchema())
	if err != nil {
		t.Fatal(err)
	}
	strict := ordersSchema()
	for i := range strict.Fields {
		strict.Fields[i].Nullable = false
	}
	d, err := NewDeployment(DeploymentConfig{
		Table:        TableConfig{Name: "orders", Schema: strict, SegmentRows: 50},
		Servers:      []*Server{NewServer("s0")},
		SegmentStore: objstore.NewMemStore(),
		Backup:       BackupP2P,
	})
	if err != nil {
		t.Fatal(err)
	}
	ing, err := NewRealtimeIngester(cluster, "orders", codec, d)
	if err != nil {
		t.Fatal(err)
	}
	ing.Start()
	defer ing.Stop()

	p := stream.NewProducer(cluster, "svc", "", nil)
	rows := orderRows(10)
	for i, r := range rows {
		r["rush"] = i%3 == 0
	}
	delete(rows[4], "rush")
	for _, r := range rows {
		payload, err := codec.Encode(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Produce("orders", nil, payload); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the partition to drain", func() bool { return ing.Lag() == 0 })
	s := ing.Stats()
	if s.Errors != 1 || s.LastErr == nil || !strings.Contains(s.LastErr.Error(), `"rush"`) {
		t.Errorf("stats = %+v, want the one row without rush counted", s)
	}
	if ingested, _, _ := d.Stats(); ingested != 9 {
		t.Errorf("ingested = %d, want the 9 rows with rush", ingested)
	}
}
