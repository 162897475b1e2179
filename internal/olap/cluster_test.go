package olap

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/objstore"
	"repro/internal/record"
	"repro/internal/stream"
)

// rowsOf boxes a response's rows, as reftest and reflect.DeepEqual compare them.
func rowsOf(r *QueryResponse) [][]any { return r.Batch.AppendRows(nil) }

func newDeployment(t *testing.T, nServers, replicas int, upsert bool, backup BackupMode, store objstore.Store) (*Deployment, []*Server) {
	t.Helper()
	servers := make([]*Server, nServers)
	for i := range servers {
		servers[i] = NewServer(fmt.Sprintf("server-%d", i))
	}
	if store == nil {
		store = objstore.NewMemStore()
	}
	d, err := NewDeployment(DeploymentConfig{
		Table: TableConfig{
			Name:        "orders",
			Schema:      ordersSchema(),
			SegmentRows: 50,
			Upsert:      upsert,
			Replicas:    replicas,
			Indexes:     IndexConfig{InvertedColumns: []string{"city"}},
		},
		Servers:      servers,
		SegmentStore: store,
		Backup:       backup,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, servers
}

func ingestOrders(t *testing.T, d *Deployment, n, partitions int) {
	t.Helper()
	rows := orderRows(n)
	for i, r := range rows {
		if err := d.Ingest(i%partitions, r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDeploymentIngestSealQuery(t *testing.T) {
	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ingestOrders(t, d, 220, 2)
	ingested, sealed, _ := d.Stats()
	if ingested != 220 {
		t.Errorf("ingested = %d", ingested)
	}
	if sealed != 4 { // 110 rows per partition / 50-row seal = 2 sealed each
		t.Errorf("sealed = %d, want 4", sealed)
	}
	b := NewBroker(d)
	r, err := b.Execute(context.Background(), &QueryRequest{Query: &Query{Aggs: []AggSpec{{Kind: AggCount}}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsOf(r)[0][0].(int64); got != 220 {
		t.Errorf("count across sealed+consuming = %d, want 220", got)
	}
	// Aggregation across consuming + sealed matches a single-segment oracle.
	oracle, err := BuildSegment("all", ordersSchema(), orderRows(220), IndexConfig{}, -1)
	if err != nil {
		t.Fatal(err)
	}
	q := &Query{GroupBy: []string{"city"}, Aggs: []AggSpec{{Kind: AggSum, Column: "amount"}, {Kind: AggCount}}}
	want, _ := oracle.Execute(q, nil)
	got, err := b.Execute(context.Background(), &QueryRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rowsOf(got), rowsOf(want)) {
		t.Errorf("distributed result mismatch:\n got %v\nwant %v", rowsOf(got), rowsOf(want))
	}
}

func TestBrokerAvgMerge(t *testing.T) {
	// AVG must merge exactly across segments with different group sizes.
	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ingestOrders(t, d, 173, 2) // uneven split, consuming + sealed mix
	oracle, _ := BuildSegment("all", ordersSchema(), orderRows(173), IndexConfig{}, -1)
	q := &Query{GroupBy: []string{"city"}, Aggs: []AggSpec{{Kind: AggAvg, Column: "amount"}}}
	want, _ := oracle.Execute(q, nil)
	got, err := NewBroker(d).Execute(context.Background(), &QueryRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if got.Batch.Len != want.Batch.Len {
		t.Fatalf("rows = %d vs %d", got.Batch.Len, want.Batch.Len)
	}
	gr, wr := rowsOf(got), rowsOf(want)
	for i := range gr {
		ga := gr[i][1].(float64)
		wa := wr[i][1].(float64)
		if diff := ga - wa; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("avg mismatch row %d: %v vs %v", i, ga, wa)
		}
	}
}

func TestUpsertLatestValueWins(t *testing.T) {
	d, _ := newDeployment(t, 2, 1, true, BackupP2P, nil)
	// Ingest the same 10 order ids 12 times with increasing amounts so
	// sealing happens mid-stream (threshold 50).
	for round := 0; round < 12; round++ {
		for k := 0; k < 10; k++ {
			r := record.Record{
				"order_id": fmt.Sprintf("order-%d", k),
				"city":     "sf",
				"status":   "placed",
				"amount":   float64(round),
				"items":    int64(1),
				"ts":       int64(1700000000000 + round),
			}
			if err := d.Ingest(k%2, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	b := NewBroker(d)
	// Count sees exactly 10 live rows (one per key).
	r, err := b.Execute(context.Background(), &QueryRequest{Query: &Query{Aggs: []AggSpec{{Kind: AggCount}}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsOf(r)[0][0].(int64); got != 10 {
		t.Errorf("upsert count = %d, want 10", got)
	}
	// Every surviving row carries the final amount (11).
	sel, err := b.Execute(context.Background(), &QueryRequest{Query: &Query{Select: []string{"order_id", "amount"}}})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Batch.Len != 10 {
		t.Fatalf("selection rows = %d", sel.Batch.Len)
	}
	for _, row := range rowsOf(sel) {
		if row[1].(float64) != 11 {
			t.Errorf("stale value for %v: %v", row[0], row[1])
		}
	}
	// Sum reflects only latest values.
	sum, _ := b.Execute(context.Background(), &QueryRequest{Query: &Query{Aggs: []AggSpec{{Kind: AggSum, Column: "amount"}}}})
	if got := rowsOf(sum)[0][0].(float64); got != 110 {
		t.Errorf("upsert sum = %v, want 110", got)
	}
}

// getHookStore runs onGet before each deep-store read: a hook into the
// unlocked gather phase of a compaction over offloaded segments.
type getHookStore struct {
	objstore.Store
	onGet func()
}

func (s *getHookStore) Get(key string) ([]byte, error) {
	if s.onGet != nil {
		s.onGet()
	}
	return s.Store.Get(key)
}

// TestSealedValidityCopyOnWrite pins the contract of the one validity
// bitmap per sealed segment: a routing snapshot reads it without a copy, a
// supersede after the snapshot clears its bit in a clone (the snapshot's
// bitmap never changes), a supersede with no reader outstanding clears in
// place, and a compaction whose claimed bitmap is superseded mid-merge
// takes the merged segment's validity from the upsert locations. It runs
// with a string and with a long primary key, which compaction formats into
// the location map's key as ingest does.
func TestSealedValidityCopyOnWrite(t *testing.T) {
	for _, pk := range []string{"order_id", "items"} {
		t.Run(pk, func(t *testing.T) { testSealedValidityCopyOnWrite(t, pk) })
	}
}

func testSealedValidityCopyOnWrite(t *testing.T, pk string) {
	store := &getHookStore{Store: objstore.NewMemStore()}
	schema := ordersSchema()
	schema.PrimaryKey = pk
	d, err := NewDeployment(DeploymentConfig{
		Table: TableConfig{Name: "orders", Schema: schema, SegmentRows: 50, Upsert: true,
			Indexes: IndexConfig{InvertedColumns: []string{"city"}}}, // seals every 50 rows
		Servers:      []*Server{NewServer("server-0"), NewServer("server-1")},
		SegmentStore: store,
		Backup:       BackupP2P,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(d)
	keyField, _ := schema.Field(pk)
	ingest := func(key, round int) {
		t.Helper()
		r := orderRows(1)[0]
		r[pk] = int64(key)
		if keyField.Type == metadata.TypeString {
			r[pk] = fmt.Sprintf("k-%02d", key)
		}
		r["amount"] = float64(round)
		if err := d.Ingest(0, r); err != nil {
			t.Fatal(err)
		}
	}
	validOf := func(seg string) *Bitmap {
		_, snap := b.routeView()
		return snap.valid[seg].bits
	}
	count := func() int64 {
		t.Helper()
		res, err := b.Execute(context.Background(), &QueryRequest{Query: &Query{Aggs: []AggSpec{{Kind: AggCount}}}})
		if err != nil {
			t.Fatal(err)
		}
		return rowsOf(res)[0][0].(int64)
	}
	for k := 0; k < 50; k++ {
		ingest(k, 0)
	}
	first := d.segmentName(0, 0)
	if v := validOf(first); v != nil {
		t.Fatalf("segment with no supersede carries a bitmap (%d valid)", v.Count())
	}

	ingest(0, 1) // supersedes doc 0 of first
	held := validOf(first)
	if held == nil || held.Get(0) || !held.Get(1) {
		t.Fatalf("snapshot bitmap does not mask exactly the superseded doc 0")
	}
	ingest(1, 1) // supersedes doc 1 while the snapshot is outstanding
	if !held.Get(1) {
		t.Error("a supersede after the snapshot cleared the snapshot's bitmap")
	}
	d.mu.Lock()
	allocs := testing.AllocsPerRun(100, func() { d.invalidateLocked(first, 1) })
	d.mu.Unlock()
	if allocs != 0 {
		t.Errorf("supersede with no reader outstanding allocated %v times, want 0", allocs)
	}
	if v := validOf(first); v == held || v.Get(1) {
		t.Error("a fresh snapshot does not see the supersede of doc 1")
	}

	// Fill the store (keys 0 and 1 are in it already) to seal a second
	// segment; 98 keys are live.
	for k := 50; k < 98; k++ {
		ingest(k, 0)
	}
	second := d.segmentName(0, 1)
	d.WaitUploads()
	for _, seg := range []string{first, second} {
		if _, err := d.OffloadSegment(seg); err != nil {
			t.Fatal(err)
		}
	}
	// A query holds first's bitmap through the compaction, and key 2 is
	// superseded between the compaction's claim and its swap: the claimed
	// bitmap still has doc 2, only the location says it is gone.
	held = validOf(first)
	store.onGet = func() {
		store.onGet = nil
		ingest(2, 1)
	}
	res, err := d.Compact([]string{first, second})
	if err != nil {
		t.Fatal(err)
	}
	if store.onGet != nil {
		t.Fatal("compaction read no input from the deep store")
	}
	if res.RowsOut != 98 {
		t.Errorf("merged %d rows, want 98 (48 + 50 valid at the claim)", res.RowsOut)
	}
	if !held.Get(2) || held.Count() != 48 {
		t.Errorf("the query's bitmap changed under it: doc 2 set %v, %d valid, want true, 48", held.Get(2), held.Count())
	}
	d.mu.Lock()
	merged := d.segMeta[res.Merged].valid
	d.mu.Unlock()
	if merged == nil || merged.Count() != 97 {
		t.Fatalf("merged validity: %v, want 97 of 98 rows valid (key 2 moved on)", merged)
	}
	if got := count(); got != 98 {
		t.Errorf("COUNT(*) after compaction = %d, want 98 live keys", got)
	}
}

// TestCompactGathersPastOneBlock: compaction gathers each input's valid
// rows through one code block, BatchRows codes at a time, so inputs of more
// than BatchRows rows merge into a segment that answers as they did, NULLs
// included.
func TestCompactGathersPastOneBlock(t *testing.T) {
	d, err := NewDeployment(DeploymentConfig{
		Table:        TableConfig{Name: "orders", Schema: ordersSchema(), SegmentRows: BatchRows + 300},
		Servers:      []*Server{NewServer("s0")},
		SegmentStore: objstore.NewMemStore(),
		Backup:       BackupP2P,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.IngestBatch(0, orderRows(2*(BatchRows+300))); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, info := range d.SegmentInfos() {
		names = append(names, info.Name)
	}
	all := func() [][]any {
		t.Helper()
		resp, err := NewBroker(d).Execute(context.Background(), &QueryRequest{Query: &Query{OrderBy: []OrderSpec{{Column: "order_id"}}}})
		if err != nil {
			t.Fatal(err)
		}
		return rowsOf(resp)
	}
	before := all()
	res, err := d.Compact(names)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || res.RowsOut != 2*(BatchRows+300) {
		t.Fatalf("compacted %v into %d rows, want two segments of %d", names, res.RowsOut, BatchRows+300)
	}
	if after := all(); !reflect.DeepEqual(after, before) {
		t.Error("the compacted segment answers differently from its inputs")
	}
}

func TestUpsertRequiresPrimaryKey(t *testing.T) {
	schema := ordersSchema()
	schema.PrimaryKey = ""
	_, err := NewDeployment(DeploymentConfig{
		Table:        TableConfig{Name: "t", Schema: schema, Upsert: true},
		Servers:      []*Server{NewServer("s0")},
		SegmentStore: objstore.NewMemStore(),
	})
	if err == nil {
		t.Error("upsert without primary key should fail")
	}
}

func TestReplicaFailover(t *testing.T) {
	d, servers := newDeployment(t, 3, 2, false, BackupP2P, nil)
	ingestOrders(t, d, 200, 2)
	for p := 0; p < 2; p++ {
		if err := d.Seal(p); err != nil {
			t.Fatal(err)
		}
	}
	b := NewBroker(d)
	before, err := b.Execute(context.Background(), &QueryRequest{Query: &Query{Aggs: []AggSpec{{Kind: AggCount}}}})
	if err != nil {
		t.Fatal(err)
	}
	// Kill one server: every segment has a second replica, so the broker
	// reroutes and the answer is unchanged.
	servers[0].SetDown(true)
	after, err := b.Execute(context.Background(), &QueryRequest{Query: &Query{Aggs: []AggSpec{{Kind: AggCount}}}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rowsOf(before), rowsOf(after)) {
		t.Errorf("failover changed result: %v vs %v", rowsOf(before), rowsOf(after))
	}
}

// TestRerouteMatchesWrappedErrServerDown pins the errors.Is discipline the
// sentinelerr analyzer enforces: scanSegments delivers ErrServerDown wrapped
// with server context via %w, so the broker's one re-route must match by
// unwrapping — a == comparison would see only the wrapper, never re-route,
// and surface the outage to a caller whose data has a healthy replica.
func TestRerouteMatchesWrappedErrServerDown(t *testing.T) {
	d, servers := newDeployment(t, 3, 2, false, BackupP2P, nil)
	ingestOrders(t, d, 200, 2)
	for p := 0; p < 2; p++ {
		if err := d.Seal(p); err != nil {
			t.Fatal(err)
		}
	}
	servers[0].SetDown(true)

	// The failure the re-route path observes is the wrapped sentinel, not
	// the bare value: errors.Is matches, string equality does not.
	_, err := servers[0].scanSegments(context.Background(), nil, nil, queryTimeBounds(nil, ""), ExecOptions{}, nil)
	if !errors.Is(err, ErrServerDown) {
		t.Fatalf("down server returned %v, want a wrapped ErrServerDown", err)
	}
	if err.Error() == ErrServerDown.Error() {
		t.Fatalf("error %q is the bare sentinel; expected %%w wrapping to add server context", err)
	}

	// One re-route onto the surviving replica must absorb the wrapped error.
	res, err := NewBroker(d).Execute(context.Background(), &QueryRequest{Query: &Query{Aggs: []AggSpec{{Kind: AggCount}}}})
	if err != nil {
		t.Fatalf("re-route did not absorb the wrapped ErrServerDown: %v", err)
	}
	if got := rowsOf(res)[0][0].(int64); got != 200 {
		t.Errorf("count after failover = %v, want 200", got)
	}
}

func TestP2PRecoveryWithStoreDown(t *testing.T) {
	// The §4.3.4 scenario: segment store down AND a server lost. P2P mode
	// recovers from peer replicas; centralized mode cannot.
	store := objstore.NewFaultStore(objstore.NewMemStore())
	d, servers := newDeployment(t, 3, 2, false, BackupP2P, store)
	ingestOrders(t, d, 200, 2)
	for p := 0; p < 2; p++ {
		if err := d.Seal(p); err != nil {
			t.Fatal(err)
		}
	}
	d.WaitUploads()
	store.SetDown(true)
	servers[0].SetDown(true)
	recovered, err := d.RecoverServer(0)
	if err != nil {
		t.Fatalf("p2p recovery failed during store outage: %v", err)
	}
	if recovered == 0 {
		t.Fatal("nothing recovered")
	}
	r, err := NewBroker(d).Execute(context.Background(), &QueryRequest{Query: &Query{Aggs: []AggSpec{{Kind: AggCount}}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsOf(r)[0][0].(int64); got != 200 {
		t.Errorf("post-recovery count = %d, want 200", got)
	}
}

func TestCentralizedRecoveryNeedsStore(t *testing.T) {
	store := objstore.NewFaultStore(objstore.NewMemStore())
	d, servers := newDeployment(t, 3, 1, false, BackupCentralized, store)
	ingestOrders(t, d, 200, 2)
	for p := 0; p < 2; p++ {
		if err := d.Seal(p); err != nil {
			t.Fatal(err)
		}
	}
	servers[0].SetDown(true)
	// With the store up, centralized recovery works (download).
	if recovered, err := d.RecoverServer(0); err != nil || recovered == 0 {
		t.Fatalf("centralized recovery with store up = %d, %v", recovered, err)
	}
	// With replicas=1 and another server+store failure, recovery fails.
	servers[1].SetDown(true)
	store.SetDown(true)
	if _, err := d.RecoverServer(1); err == nil {
		t.Error("centralized recovery during store outage should fail for unreplicated segments")
	}
}

func TestCentralizedSealBlocksDuringOutage(t *testing.T) {
	store := objstore.NewFaultStore(objstore.NewMemStore())
	d, _ := newDeployment(t, 2, 1, false, BackupCentralized, store)
	// Fill one partition right up to the seal threshold.
	rows := orderRows(49)
	for _, r := range rows {
		if err := d.Ingest(0, r); err != nil {
			t.Fatal(err)
		}
	}
	store.SetDown(true)
	// The 50th row triggers a seal, which must fail (synchronous backup).
	err := d.Ingest(0, orderRows(50)[49])
	if !errors.Is(err, objstore.ErrUnavailable) {
		t.Fatalf("seal during outage = %v, want ErrUnavailable", err)
	}
	// Data is not lost: after the store recovers, ingestion resumes and the
	// seal succeeds with all 50 rows.
	store.SetDown(false)
	if err := d.Ingest(0, orderRows(51)[50]); err != nil {
		t.Fatal(err)
	}
	r, err := NewBroker(d).Execute(context.Background(), &QueryRequest{Query: &Query{Aggs: []AggSpec{{Kind: AggCount}}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsOf(r)[0][0].(int64); got != 51 {
		t.Errorf("count after recovery = %d, want 51", got)
	}
}

func TestP2PSealUnaffectedByOutage(t *testing.T) {
	store := objstore.NewFaultStore(objstore.NewMemStore())
	d, _ := newDeployment(t, 2, 2, false, BackupP2P, store)
	store.SetDown(true)
	ingestOrders(t, d, 200, 2) // seals happen during the outage
	d.WaitUploads()
	_, sealed, uploadErrs := d.Stats()
	if sealed != 4 {
		t.Errorf("sealed = %d during outage, want 4 (p2p does not block)", sealed)
	}
	if uploadErrs == 0 {
		t.Error("async uploads should have failed during the outage")
	}
	r, err := NewBroker(d).Execute(context.Background(), &QueryRequest{Query: &Query{Aggs: []AggSpec{{Kind: AggCount}}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsOf(r)[0][0].(int64); got != 200 {
		t.Errorf("count = %d, want 200", got)
	}
}

func TestRealtimeIngestion(t *testing.T) {
	cluster, err := stream.NewCluster(stream.ClusterConfig{Name: "c", Nodes: 1, ReplicationInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.CreateTopic("orders", stream.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	codec, err := record.NewCodec(ordersSchema())
	if err != nil {
		t.Fatal(err)
	}
	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ing, err := NewRealtimeIngester(cluster, "orders", codec, d)
	if err != nil {
		t.Fatal(err)
	}
	ing.Start()
	defer ing.Stop()

	p := stream.NewProducer(cluster, "svc", "", nil)
	for _, r := range orderRows(150) {
		payload, _ := codec.Encode(r)
		if err := p.Produce("orders", []byte(r.String("order_id")), payload); err != nil {
			t.Fatal(err)
		}
	}
	b := NewBroker(d)
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		r, err := b.Execute(context.Background(), &QueryRequest{Query: &Query{Aggs: []AggSpec{{Kind: AggCount}}}})
		if err == nil && rowsOf(r)[0][0].(int64) == 150 {
			if lag := ing.Lag(); lag != 0 {
				t.Errorf("lag = %d after full ingest", lag)
			}
			if n, _ := ing.Errors(); n != 0 {
				t.Errorf("ingest errors = %d", n)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	r, _ := b.Execute(context.Background(), &QueryRequest{Query: &Query{Aggs: []AggSpec{{Kind: AggCount}}}})
	t.Fatalf("realtime ingestion incomplete: %v", rowsOf(r))
}

// TestSelectStarSkipsBlobsAcrossSeal: a TypeBytes column is stored in no
// layout, so SELECT * leaves it out and naming it is an UnknownColumnError
// — the same answer while the rows are consuming, while some are sealed,
// and from the streaming path. (SELECT * used to answer on consuming rows
// and fail with "unknown select column" as soon as a segment sealed.)
func TestSelectStarSkipsBlobsAcrossSeal(t *testing.T) {
	schema := &metadata.Schema{Name: "docs", Version: 1, Fields: []metadata.Field{
		{Name: "id", Type: metadata.TypeString},
		{Name: "blob", Type: metadata.TypeBytes, Nullable: true},
		{Name: "n", Type: metadata.TypeLong},
	}}
	d, err := NewDeployment(DeploymentConfig{
		Table:        TableConfig{Name: "docs", Schema: schema, SegmentRows: 4},
		Servers:      []*Server{NewServer("s0")},
		SegmentStore: objstore.NewMemStore(),
		Backup:       BackupP2P,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(d)
	ingested := 0
	ingest := func(n int) {
		for ; n > 0; n-- {
			r := record.Record{"id": fmt.Sprintf("d%d", ingested), "blob": []byte{byte(ingested)}, "n": int64(ingested)}
			if err := d.Ingest(0, r); err != nil {
				t.Fatal(err)
			}
			ingested++
		}
	}
	check := func(stage string) {
		t.Helper()
		star := &Query{OrderBy: []OrderSpec{{Column: "n"}}}
		resp, err := b.Execute(context.Background(), &QueryRequest{Query: star})
		if err != nil {
			t.Fatalf("%s: SELECT *: %v", stage, err)
		}
		if want := []string{"id", "n"}; !reflect.DeepEqual(resp.Batch.Columns, want) || resp.Batch.Len != ingested {
			t.Fatalf("%s: SELECT * gave columns %v and %d rows, want %v and %d", stage, resp.Batch.Columns, resp.Batch.Len, want, ingested)
		}
		qs, err := b.ExecuteStream(context.Background(), &QueryRequest{Query: &Query{}})
		if err != nil {
			t.Fatalf("%s: streamed SELECT *: %v", stage, err)
		}
		rows := drainStream(t, qs)
		if !reflect.DeepEqual(qs.Columns(), []string{"id", "n"}) || len(rows) != ingested {
			t.Fatalf("%s: streamed SELECT * gave columns %v and %d rows", stage, qs.Columns(), len(rows))
		}
		qs.Close()
		var unknown *UnknownColumnError
		_, err = b.Execute(context.Background(), &QueryRequest{Query: &Query{Select: []string{"id", "blob"}}})
		if !errors.As(err, &unknown) || unknown.Column != "blob" || unknown.Role != "select" {
			t.Fatalf("%s: SELECT blob: error %v, want an UnknownColumnError for select column blob", stage, err)
		}
	}
	ingest(3)
	check("consuming")
	ingest(3) // seals at 4: four rows sealed, two consuming
	if _, sealed, _ := d.Stats(); sealed != 1 {
		t.Fatalf("%d segments sealed, want 1", sealed)
	}
	check("sealed+consuming")
}

// TestRowsScannedOneDefinition: RowsScanned (and UpsertFiltered) mean the
// same on consuming and sealed rows — rows that survived the filters, rows
// the validity mask dropped — so the numbers do not move when a seal turns
// one layout into the other.
func TestRowsScannedOneDefinition(t *testing.T) {
	d, _ := newDeployment(t, 2, 1, true, BackupP2P, nil)
	ingestOrders(t, d, 40, 2) // under the 50-row seal threshold: all consuming
	for i, r := range orderRows(8) {
		if err := d.Ingest(i%2, r); err != nil { // supersede eight keys
			t.Fatal(err)
		}
	}
	b := NewBroker(d)
	req := &QueryRequest{Query: &Query{Aggs: []AggSpec{{Kind: AggCount}},
		Filters: []Filter{{Column: "city", Op: OpEq, Value: "sf"}}}}
	consuming, err := b.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// sf is every fourth row: 10 live matches, 2 superseded ones.
	if st := consuming.Stats; st.RowsScanned != 10 || st.UpsertFiltered != 2 || st.SegmentsScanned != 0 {
		t.Fatalf("consuming: RowsScanned=%d UpsertFiltered=%d SegmentsScanned=%d, want 10, 2, 0", st.RowsScanned, st.UpsertFiltered, st.SegmentsScanned)
	}
	for p := 0; p < 2; p++ {
		if err := d.Seal(p); err != nil {
			t.Fatal(err)
		}
	}
	sealed, err := b.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if st := sealed.Stats; st.RowsScanned != 10 || st.UpsertFiltered != 2 || st.SegmentsScanned != 2 {
		t.Fatalf("sealed: RowsScanned=%d UpsertFiltered=%d SegmentsScanned=%d, want 10, 2, 2", st.RowsScanned, st.UpsertFiltered, st.SegmentsScanned)
	}
	if !reflect.DeepEqual(rowsOf(consuming), rowsOf(sealed)) {
		t.Fatalf("answer changed across the seal: %v then %v", rowsOf(consuming), rowsOf(sealed))
	}
}
