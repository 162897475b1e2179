package matview_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/objstore"
	"repro/internal/olap"
	"repro/internal/olap/matview"
	"repro/internal/reftest"
)

// newUnitDeployment returns a deployment of a generated table and the
// generator of its rows.
// rowsOf boxes a response's rows.
func rowsOf(r *olap.QueryResponse) [][]any { return r.Batch.AppendRows(nil) }

func newUnitDeployment(t *testing.T) (*olap.Deployment, []*olap.Server, *reftest.Gen) {
	t.Helper()
	g := reftest.NewGen(reftest.Seed(t))
	servers := make([]*olap.Server, 2)
	for i := range servers {
		servers[i] = olap.NewServer(fmt.Sprintf("server-%d", i))
	}
	d, err := olap.NewDeployment(olap.DeploymentConfig{
		Table: olap.TableConfig{
			Name:        g.Schema.Name,
			Schema:      g.Schema,
			SegmentRows: 50,
			Replicas:    1,
		},
		Servers:      servers,
		SegmentStore: objstore.NewMemStore(),
		Backup:       olap.BackupP2P,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, servers, g
}

func unitCountReq() *olap.QueryRequest {
	return &olap.QueryRequest{Query: &olap.Query{Aggs: []olap.AggSpec{{Kind: olap.AggCount}}}}
}

func TestRegisterValidation(t *testing.T) {
	d, _, _ := newUnitDeployment(t)
	reg := matview.NewRegistry(d, matview.Config{})
	ctx := context.Background()
	if _, err := reg.Register(ctx, nil); err == nil {
		t.Error("nil request must be rejected")
	}
	if _, err := reg.Register(ctx, &olap.QueryRequest{}); err == nil {
		t.Error("nil query must be rejected")
	}
	if _, err := reg.Register(ctx, &olap.QueryRequest{Query: &olap.Query{Select: []string{"id"}}}); err == nil {
		t.Error("selection shapes must be rejected: only aggregates are mergeable")
	}
	// A shape that cannot execute (SUM over a string column) must fail
	// registration, not linger as a broken view.
	if _, err := reg.Register(ctx, &olap.QueryRequest{
		Query: &olap.Query{Aggs: []olap.AggSpec{{Kind: olap.AggSum, Column: "id"}}},
	}); err == nil {
		t.Error("type-invalid shapes must fail registration")
	}
	if st := reg.Stats(); st.Views != 0 {
		t.Errorf("no view should have survived, stats %+v", st)
	}
}

func TestRegisterIdempotentAndUnregister(t *testing.T) {
	d, _, g := newUnitDeployment(t)
	for i := 0; i < 40; i++ {
		if err := d.Ingest(0, g.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	reg := matview.NewRegistry(d, matview.Config{})
	b := olap.NewBrokerWithOptions(d, olap.BrokerOptions{Views: reg})

	v1, err := reg.Register(context.Background(), unitCountReq())
	if err != nil {
		t.Fatal(err)
	}
	v2, err := reg.Register(context.Background(), unitCountReq())
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Error("re-registering the same shape must return the existing view")
	}
	if st := reg.Stats(); st.Views != 1 {
		t.Errorf("views = %d, want 1", st.Views)
	}
	if v1.Key() != olap.ViewKey(g.Schema.Name, unitCountReq().Query) {
		t.Error("view key must match the canonical ViewKey")
	}

	resp, err := b.Execute(context.Background(), unitCountReq())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats.ViewHit != 1 {
		t.Fatalf("registered shape must hit, stats %+v", resp.Stats)
	}
	if got := rowsOf(resp)[0][0].(int64); got != 40 {
		t.Fatalf("count = %d, want 40", got)
	}

	if !reg.Unregister(unitCountReq()) {
		t.Fatal("unregister must report the shape was present")
	}
	if reg.Unregister(unitCountReq()) {
		t.Fatal("second unregister must report absence")
	}
	resp, err = b.Execute(context.Background(), unitCountReq())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats.ViewHit != 0 {
		t.Fatal("unregistered shape must execute normally")
	}
}

// TestStaleServeDuringRematerialize pins the fallback state machine: a
// retraction (segment drop) dirties the view while every server is down, so
// the re-materialization cannot complete — within MaxStaleness the view
// serves its last consistent snapshot with an explicit staleness bound, and
// once the cluster recovers it converges back to fresh exact serving.
func TestStaleServeDuringRematerialize(t *testing.T) {
	d, servers, g := newUnitDeployment(t)
	for i := 0; i < 120; i++ {
		if err := d.Ingest(0, g.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	reg := matview.NewRegistry(d, matview.Config{MaxStaleness: time.Minute})
	b := olap.NewBrokerWithOptions(d, olap.BrokerOptions{Views: reg})
	if _, err := reg.Register(context.Background(), unitCountReq()); err != nil {
		t.Fatal(err)
	}
	warm, err := b.Execute(context.Background(), unitCountReq())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.ViewHit != 1 || rowsOf(warm)[0][0].(int64) != 120 {
		t.Fatalf("warm serve wrong: %+v %v", warm.Stats, rowsOf(warm))
	}

	// Outage + retraction: the drop dirties the view and the worker cannot
	// re-materialize while the servers are down.
	for _, s := range servers {
		s.SetDown(true)
	}
	infos := d.SegmentInfos()
	if len(infos) == 0 {
		t.Fatal("expected sealed segments")
	}
	dropped := infos[0]
	d.DropSegment(dropped.Name, false)

	stale, err := b.Execute(context.Background(), unitCountReq())
	if err != nil {
		t.Fatal(err)
	}
	if stale.Stats.ViewHit != 1 {
		t.Fatalf("within the bound the snapshot must serve, stats %+v", stale.Stats)
	}
	if stale.Stats.ViewStalenessMs < 1 {
		t.Fatalf("stale serve must report an explicit bound, got %d", stale.Stats.ViewStalenessMs)
	}
	// The snapshot predates the drop: it still counts the dropped rows.
	if got := rowsOf(stale)[0][0].(int64); got != 120 {
		t.Fatalf("stale snapshot count = %d, want 120", got)
	}

	// Recovery: servers return, the worker (re-kicked by reads if it gave
	// up mid-outage) converges the view back to fresh exact answers.
	for _, s := range servers {
		s.SetDown(false)
	}
	want := int64(120 - dropped.NumRows)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := b.Execute(context.Background(), unitCountReq())
		if err != nil {
			t.Fatal(err)
		}
		if resp.Stats.ViewHit == 1 && resp.Stats.ViewStalenessMs == 0 {
			if got := rowsOf(resp)[0][0].(int64); got != want {
				t.Fatalf("recovered count = %d, want %d", got, want)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("view never recovered to fresh serving")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := reg.Stats(); st.StaleHits == 0 || st.Rematerializations == 0 {
		t.Fatalf("expected stale serves and re-materializations, stats %+v", st)
	}
}

// TestStalenessBoundFallsThrough: with a zero staleness bound a dirty view
// never serves its snapshot — the broker falls through to normal execution,
// which here surfaces the outage instead of a silently stale answer.
func TestStalenessBoundFallsThrough(t *testing.T) {
	d, servers, g := newUnitDeployment(t)
	for i := 0; i < 120; i++ {
		if err := d.Ingest(0, g.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	reg := matview.NewRegistry(d, matview.Config{MaxStaleness: 0})
	b := olap.NewBrokerWithOptions(d, olap.BrokerOptions{Views: reg})
	if _, err := reg.Register(context.Background(), unitCountReq()); err != nil {
		t.Fatal(err)
	}
	if resp, err := b.Execute(context.Background(), unitCountReq()); err != nil || resp.Stats.ViewHit != 1 {
		t.Fatalf("warm serve: %v %+v", err, resp.Stats)
	}

	for _, s := range servers {
		s.SetDown(true)
	}
	infos := d.SegmentInfos()
	if len(infos) == 0 {
		t.Fatal("expected sealed segments")
	}
	d.DropSegment(infos[0].Name, false)

	_, err := b.Execute(context.Background(), unitCountReq())
	if err == nil {
		t.Fatal("dirty view past the bound must fall through to execution, which surfaces the outage")
	}
	if st := reg.Stats(); st.StaleHits != 0 || st.Misses == 0 {
		t.Fatalf("zero bound must never serve stale, stats %+v", st)
	}
}

// TestRegistryMetricsGauges asserts the registry's gauges on the deployment
// metrics registry reflect view traffic: view count, hit counter, and the
// drain-lag/staleness gauges reading zero on a fresh, clean view.
func TestRegistryMetricsGauges(t *testing.T) {
	d, _, g := newUnitDeployment(t)
	for i := 0; i < 40; i++ {
		if err := d.Ingest(0, g.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	reg := matview.NewRegistry(d, matview.Config{})
	b := olap.NewBrokerWithOptions(d, olap.BrokerOptions{Views: reg})
	view, err := reg.Register(context.Background(), unitCountReq())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if resp, err := b.Execute(context.Background(), unitCountReq()); err != nil || resp.Stats.ViewHit != 1 {
			t.Fatalf("view serve %d: %v %+v", i, err, resp.Stats)
		}
	}
	if !view.Fresh() {
		t.Fatal("append-only ingest must leave the view fresh")
	}
	points := map[string]float64{}
	for _, p := range d.MetricsSnapshot() {
		points[p.Name] = p.Value
	}
	if points["matview_views"] != 1 {
		t.Errorf("matview_views = %v, want 1", points["matview_views"])
	}
	if points["matview_hits_total"] < 3 {
		t.Errorf("matview_hits_total = %v, want >= 3", points["matview_hits_total"])
	}
	if points["matview_drain_lag_rows"] != 0 {
		t.Errorf("matview_drain_lag_rows = %v, want 0 on a drained view", points["matview_drain_lag_rows"])
	}
	if points["matview_staleness_ms"] != 0 {
		t.Errorf("matview_staleness_ms = %v, want 0 on a clean view", points["matview_staleness_ms"])
	}
	if _, ok := points["matview_misses_total"]; !ok {
		t.Error("matview_misses_total gauge not registered")
	}
}
