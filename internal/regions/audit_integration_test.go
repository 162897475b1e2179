package regions

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/stream"
	"repro/internal/stream/chaperone"
	"repro/internal/stream/replicator"
)

// TestChaperoneAuditsReplicationPipeline wires Chaperone across a
// regional→aggregate uReplicator pipeline (the exact §4.1.4 deployment):
// clean replication produces no alerts; injected message loss between the
// stages produces an alert for the affected window.
func TestChaperoneAuditsReplicationPipeline(t *testing.T) {
	src := newRegion(t, "dca", 2, "trips")
	auditor := chaperone.NewAuditor(time.Minute)
	auditor.RegisterStage("regional")
	auditor.RegisterStage("aggregate")

	r, err := replicator.New(src.Regional, src.Aggregate, []string{"trips"},
		replicator.Config{Workers: 1, BatchSize: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Stop()

	// Produce with app timestamps pinned to two distinct windows.
	base := int64(1700000000000)
	base -= base % 60000
	p := stream.NewProducer(src.Regional, "svc", "", func() time.Time { return time.UnixMilli(base) })
	for i := 0; i < 100; i++ {
		if err := p.Produce("trips", nil, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Observe at the regional stage.
	regionalConsumer := src.Regional.NewConsumer("audit-regional", "trips")
	defer regionalConsumer.Close()
	seen := 0
	for seen < 100 {
		msgs := regionalConsumer.Poll(time.Second, 50)
		if len(msgs) == 0 {
			t.Fatalf("regional audit stalled at %d", seen)
		}
		for _, m := range msgs {
			auditor.Observe("regional", m)
		}
		seen += len(msgs)
	}

	// Wait for replication, then observe the aggregate stage — dropping 3
	// messages on the way to simulate pipeline loss.
	deadline := time.Now().Add(3 * time.Second)
	for r.Replicated() < 100 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	aggConsumer := src.Aggregate.NewConsumer("audit-agg", "trips")
	defer aggConsumer.Close()
	seen = 0
	dropped := 0
	for seen < 100 {
		msgs := aggConsumer.Poll(time.Second, 50)
		if len(msgs) == 0 {
			t.Fatalf("aggregate audit stalled at %d", seen)
		}
		for _, m := range msgs {
			if dropped < 3 {
				dropped++
				continue // injected loss
			}
			auditor.Observe("aggregate", m)
		}
		seen += len(msgs)
	}

	alerts := auditor.Audit(base + 10*60000)
	if len(alerts) != 1 {
		t.Fatalf("alerts = %v, want exactly 1 for the lossy window", alerts)
	}
	if diff := alerts[0].CountA - alerts[0].CountB; diff != 3 {
		t.Errorf("alert delta = %d, want 3 (the injected loss)", diff)
	}
}
