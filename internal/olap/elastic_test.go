package olap

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/objstore"
)

// placementCounts tallies replica slots per server index.
func placementCounts(d *Deployment) map[int]int {
	counts := make(map[int]int)
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, replicas := range d.placement {
		for _, ri := range replicas {
			counts[ri]++
		}
	}
	return counts
}

func TestAddServerScaleOutMovesMinimalShare(t *testing.T) {
	d, _ := newDeployment(t, 4, 2, false, BackupP2P, nil)
	ingestOrders(t, d, 600, 4)
	for p := 0; p < 4; p++ {
		if err := d.Seal(p); err != nil {
			t.Fatal(err)
		}
	}
	b := NewBroker(d)
	before, err := b.Execute(context.Background(), &QueryRequest{Query: &Query{Aggs: []AggSpec{{Kind: AggCount}}}})
	if err != nil {
		t.Fatal(err)
	}

	idx := d.AddServer(NewServer("server-4"))
	if idx != 4 {
		t.Fatalf("AddServer index = %d, want 4", idx)
	}
	rep, err := d.Rebalance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied == 0 {
		t.Fatal("scale-out rebalance moved nothing")
	}
	// The E23 acceptance bound: sticky moves at most 1.5/(N+1) of all
	// replica slots on an N→N+1 scale-out.
	frac := float64(rep.Applied) / float64(rep.Slots)
	if bound := 1.5 / 5.0; frac > bound {
		t.Fatalf("moved fraction %.3f exceeds sticky bound %.3f (applied=%d slots=%d)",
			frac, bound, rep.Applied, rep.Slots)
	}
	if counts := placementCounts(d); counts[4] == 0 {
		t.Fatalf("new server received no segments: %v", counts)
	}

	after, err := b.Execute(context.Background(), &QueryRequest{Query: &Query{Aggs: []AggSpec{{Kind: AggCount}}}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before.Rows, after.Rows) {
		t.Fatalf("scale-out changed results: %v vs %v", before.Rows, after.Rows)
	}
	// The moved-onto server actually serves: kill one old server and the
	// count must survive via the rebalanced replicas.
	d.serverAt(0).SetDown(true)
	again, err := b.Execute(context.Background(), &QueryRequest{Query: &Query{Aggs: []AggSpec{{Kind: AggCount}}}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before.Rows, again.Rows) {
		t.Fatalf("post-failover results diverged: %v vs %v", before.Rows, again.Rows)
	}
}

func TestDecommissionDrainsAndGuardsReplicaFloor(t *testing.T) {
	d, _ := newDeployment(t, 3, 2, false, BackupP2P, nil)
	ingestOrders(t, d, 400, 3)
	for p := 0; p < 3; p++ {
		if err := d.Seal(p); err != nil {
			t.Fatal(err)
		}
	}
	b := NewBroker(d)
	before, err := b.Execute(context.Background(), &QueryRequest{Query: &Query{GroupBy: []string{"city"}, Aggs: []AggSpec{{Kind: AggSum, Column: "amount"}, {Kind: AggCount}}}})
	if err != nil {
		t.Fatal(err)
	}

	rep, err := d.DecommissionServer(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied == 0 {
		t.Fatal("decommission moved nothing")
	}
	if counts := placementCounts(d); counts[1] != 0 {
		t.Fatalf("decommissioned server still holds %d slots", counts[1])
	}
	if !d.Decommissioned(1) {
		t.Fatal("server 1 not marked decommissioned")
	}

	after, err := b.Execute(context.Background(), &QueryRequest{Query: &Query{GroupBy: []string{"city"}, Aggs: []AggSpec{{Kind: AggSum, Column: "amount"}, {Kind: AggCount}}}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before.Rows, after.Rows) {
		t.Fatalf("decommission changed results:\n got %v\nwant %v", after.Rows, before.Rows)
	}

	// Two active servers remain with Replicas=2: removing another must be
	// refused without touching membership.
	if _, err := d.DecommissionServer(context.Background(), 0); err == nil {
		t.Fatal("decommission below the replica floor should fail")
	}
	if d.Decommissioned(0) {
		t.Fatal("failed decommission still flipped membership")
	}
	// Double-decommission is rejected.
	if _, err := d.DecommissionServer(context.Background(), 1); err == nil {
		t.Fatal("double decommission should fail")
	}

	// New ingestion never lands on the decommissioned server.
	ingestOrders(t, d, 200, 3)
	for p := 0; p < 3; p++ {
		if err := d.Seal(p); err != nil {
			t.Fatal(err)
		}
	}
	if counts := placementCounts(d); counts[1] != 0 {
		t.Fatalf("post-decommission seal placed %d slots on the removed server", counts[1])
	}
}

func TestOffloadedSegmentsRebalanceMetadataOnly(t *testing.T) {
	d, _ := newDeployment(t, 3, 1, false, BackupCentralized, nil)
	d.AttachLoaders()
	ingestOrders(t, d, 600, 3)
	for p := 0; p < 3; p++ {
		if err := d.Seal(p); err != nil {
			t.Fatal(err)
		}
	}
	// Offload everything: every subsequent move must be metadata-only.
	for _, info := range d.SegmentInfos() {
		if _, err := d.OffloadSegment(info.Name); err != nil {
			t.Fatal(err)
		}
	}
	d.AddServer(func() *Server { s := NewServer("server-3"); return s }())
	rep, err := d.Rebalance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied == 0 {
		t.Fatal("nothing moved")
	}
	if rep.BytesCopied != 0 {
		t.Fatalf("offloaded rebalance copied %d bytes, want 0", rep.BytesCopied)
	}
	if rep.MetadataMoves != rep.Applied {
		t.Fatalf("metadata moves = %d of %d applied", rep.MetadataMoves, rep.Applied)
	}
	// The moved metadata still answers queries (lazy reload from the store).
	r, err := NewBroker(d).Execute(context.Background(), &QueryRequest{Query: &Query{Aggs: []AggSpec{{Kind: AggCount}}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Rows[0][0].(int64); got != 600 {
		t.Fatalf("count after metadata-only rebalance = %d, want 600", got)
	}
}

func TestDecommissionUpsertOwnerReassignsPartition(t *testing.T) {
	d, _ := newDeployment(t, 3, 2, true, BackupP2P, nil)
	for round := 0; round < 12; round++ {
		for k := 0; k < 10; k++ {
			r := orderRows(1)[0]
			r["order_id"] = fmt.Sprintf("order-%d", k)
			r["amount"] = float64(round)
			if err := d.Ingest(k%2, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	d.mu.Lock()
	owner0 := d.partitionOwner[0]
	d.mu.Unlock()

	if _, err := d.DecommissionServer(context.Background(), owner0); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	newOwner := d.partitionOwner[0]
	decommissionedOwner := d.decommissioned[newOwner]
	d.mu.Unlock()
	if newOwner == owner0 || decommissionedOwner {
		t.Fatalf("partition 0 owner not reassigned off %d (now %d)", owner0, newOwner)
	}
	if counts := placementCounts(d); counts[owner0] != 0 {
		t.Fatalf("upsert anchor slots left on decommissioned owner: %v", counts)
	}
	// Upsert invariant survives the move: one live row per key, latest wins.
	b := NewBroker(d)
	r, err := b.Execute(context.Background(), &QueryRequest{Query: &Query{Aggs: []AggSpec{{Kind: AggCount}}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Rows[0][0].(int64); got != 10 {
		t.Fatalf("upsert count after owner decommission = %d, want 10", got)
	}
	sel, err := b.Execute(context.Background(), &QueryRequest{Query: &Query{Select: []string{"order_id", "amount"}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range sel.Rows {
		if row[1].(float64) != 11 {
			t.Fatalf("stale value surfaced for %v after rebalance: %v", row[0], row[1])
		}
	}
	// Validity is held once per segment, not per replica: with the data
	// offloaded, what stays resident is each segment's bitmap, counted once
	// (every sealed row here was superseded by the consuming rounds 10-11).
	d.WaitUploads()
	d.PurgeRetired(0)
	var want int64
	for _, info := range d.SegmentInfos() {
		if _, err := d.OffloadSegment(info.Name); err != nil {
			t.Fatal(err)
		}
		want += NewBitmap(info.NumRows).MemBytes()
	}
	if got := d.ResidentBytes(); want == 0 || got != want {
		t.Errorf("resident bytes with every segment offloaded = %d, want %d (one bitmap per segment)", got, want)
	}
}

func TestRebalanceIdempotent(t *testing.T) {
	d, _ := newDeployment(t, 3, 2, false, BackupP2P, nil)
	ingestOrders(t, d, 300, 3)
	for p := 0; p < 3; p++ {
		if err := d.Seal(p); err != nil {
			t.Fatal(err)
		}
	}
	d.AddServer(NewServer("server-3"))
	if _, err := d.Rebalance(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep, err := d.Rebalance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Planned != 0 {
		t.Fatalf("second rebalance planned %d moves, want 0", rep.Planned)
	}
}

func TestRecoverDecommissionedPathSharesMachinery(t *testing.T) {
	// RecoverServer == "treat dead server as inactive, move its slots" —
	// same planner, so recovery onto a freshly added server works too.
	d, servers := newDeployment(t, 3, 2, false, BackupP2P, nil)
	ingestOrders(t, d, 300, 3)
	for p := 0; p < 3; p++ {
		if err := d.Seal(p); err != nil {
			t.Fatal(err)
		}
	}
	d.AddServer(NewServer("server-3"))
	servers[0].SetDown(true)
	recovered, err := d.RecoverServer(0)
	if err != nil {
		t.Fatal(err)
	}
	if recovered == 0 {
		t.Fatal("nothing recovered")
	}
	if counts := placementCounts(d); counts[0] != 0 {
		t.Fatalf("dead server still referenced by placement: %v", counts)
	}
	r, err := NewBroker(d).Execute(context.Background(), &QueryRequest{Query: &Query{Aggs: []AggSpec{{Kind: AggCount}}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Rows[0][0].(int64); got != 300 {
		t.Fatalf("post-recovery count = %d, want 300", got)
	}
}

// TestQueriesExactDuringMembershipChange is the satellite-3 router test:
// concurrent queries across scale-out, scale-in and compaction never error
// and never see a wrong answer. Run under -race.
func TestQueriesExactDuringMembershipChange(t *testing.T) {
	d, _ := newDeployment(t, 4, 2, false, BackupP2P, nil)
	ingestOrders(t, d, 800, 4)
	for p := 0; p < 4; p++ {
		if err := d.Seal(p); err != nil {
			t.Fatal(err)
		}
	}
	b := NewBroker(d)
	want, err := b.Execute(context.Background(), &QueryRequest{Query: &Query{GroupBy: []string{"city"}, Aggs: []AggSpec{{Kind: AggSum, Column: "amount"}, {Kind: AggCount}}}})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var queryErrs, wrong, queries atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := b.Execute(context.Background(), &QueryRequest{Query: &Query{GroupBy: []string{"city"}, Aggs: []AggSpec{{Kind: AggSum, Column: "amount"}, {Kind: AggCount}}}})
				if err != nil {
					queryErrs.Add(1)
					continue
				}
				queries.Add(1)
				if !reflect.DeepEqual(got.Rows, want.Rows) {
					wrong.Add(1)
				}
			}
		}()
	}

	// Membership churn while the queries fly: join two servers, rebalance,
	// decommission one original and one new, with a compaction thrown in to
	// exercise the busy-claim interlock.
	ctx := context.Background()
	d.AddServer(NewServer("server-4"))
	if _, err := d.Rebalance(ctx); err != nil {
		t.Fatal(err)
	}
	d.AddServer(NewServer("server-5"))
	if _, err := d.Rebalance(ctx); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, info := range d.SegmentInfos() {
		if strings.HasPrefix(info.Name, "orders-p0-") {
			names = append(names, info.Name)
		}
	}
	if len(names) >= 2 {
		if _, err := d.Compact(names); err != nil && !errors.Is(err, ErrSegmentsBusy) {
			t.Fatal(err)
		}
	}
	if _, err := d.DecommissionServer(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.DecommissionServer(ctx, 4); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let queries overlap the settled state too
	close(stop)
	wg.Wait()

	if queries.Load() == 0 {
		t.Fatal("no queries completed during the churn window")
	}
	if n := queryErrs.Load(); n != 0 {
		t.Fatalf("%d query errors during membership change, want 0", n)
	}
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d wrong answers during membership change, want 0", n)
	}
	if counts := placementCounts(d); counts[1] != 0 || counts[4] != 0 {
		t.Fatalf("decommissioned servers still placed: %v", counts)
	}
}

func TestAddServerGetsLoaderWhenAttached(t *testing.T) {
	store := objstore.NewMemStore()
	d, _ := newDeployment(t, 2, 1, false, BackupCentralized, store)
	d.AttachLoaders()
	ingestOrders(t, d, 100, 2)
	for p := 0; p < 2; p++ {
		if err := d.Seal(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, info := range d.SegmentInfos() {
		if _, err := d.OffloadSegment(info.Name); err != nil {
			t.Fatal(err)
		}
	}
	d.AddServer(NewServer("late"))
	if _, err := d.Rebalance(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Late-joined server must be able to lazy-load offloaded segments it
	// received metadata for.
	r, err := NewBroker(d).Execute(context.Background(), &QueryRequest{Query: &Query{Aggs: []AggSpec{{Kind: AggCount}}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Rows[0][0].(int64); got != 100 {
		t.Fatalf("count via late-joined loader = %d, want 100", got)
	}
}

// TestApplyMoveConcurrentWithPurgeRetired: moves and seals install segments
// (addSegment) and retire source copies (Retire) on Server.segments while the
// grace-window sweeper deletes retired entries from the same map
// (PurgeRetired). Meaningful under -race.
func TestApplyMoveConcurrentWithPurgeRetired(t *testing.T) {
	d, _ := newDeployment(t, 4, 2, false, BackupP2P, nil)
	ingestOrders(t, d, 2000, 4)
	for p := 0; p < 4; p++ {
		if err := d.Seal(p); err != nil {
			t.Fatal(err)
		}
	}
	d.AddServer(NewServer("server-4"))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				d.PurgeRetired(0)
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if _, err := d.Rebalance(context.Background()); err != nil {
			t.Fatal(err)
		}
		ingestOrders(t, d, 200, 4)
		for p := 0; p < 4; p++ {
			_ = d.Seal(p)
		}
	}
	close(stop)
	wg.Wait()
}
