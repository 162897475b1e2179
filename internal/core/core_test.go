package core

import (
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/metadata"
	"repro/internal/objstore"
	"repro/internal/olap"
	"repro/internal/record"
	"repro/internal/stream"
)

func tripsSchema() *metadata.Schema {
	return &metadata.Schema{
		Name: "trips",
		Fields: []metadata.Field{
			{Name: "trip_id", Type: metadata.TypeString},
			{Name: "city", Type: metadata.TypeString, Dimension: true},
			{Name: "fare", Type: metadata.TypeDouble},
			{Name: "ts", Type: metadata.TypeTimestamp},
		},
		TimeField:  "ts",
		PrimaryKey: "trip_id",
	}
}

func tripRows(n int) []record.Record {
	rows := make([]record.Record, n)
	for i := range rows {
		rows[i] = record.Record{
			"trip_id": "t" + string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i%10)),
			"city":    []string{"sf", "nyc"}[i%2],
			"fare":    float64(i % 30),
			"ts":      int64(1700000000000 + i*1000),
		}
	}
	return rows
}

func newPlatform(t *testing.T) *Platform {
	t.Helper()
	c, err := stream.NewCluster(stream.ClusterConfig{Name: "main", Nodes: 3, ReplicationInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	p, err := NewPlatform(Config{Clusters: []*stream.Cluster{c}, Storage: objstore.NewMemStore()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestAbstractionStack(t *testing.T) {
	// End-to-end through every Fig 2 layer: metadata registration, stream
	// produce, streaming SQL compute, OLAP ingest, federated SQL, archival.
	p := newPlatform(t)
	if _, err := p.CreateStream("quickstart", tripsSchema(), stream.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateOLAPTable("quickstart", olap.TableConfig{Name: "trips", SegmentRows: 50}, "trips", olap.BackupP2P); err != nil {
		t.Fatal(err)
	}
	if err := p.EnableArchival("quickstart", "trips"); err != nil {
		t.Fatal(err)
	}
	sink := flow.NewCollectSink()
	if err := p.DeployStreamingSQL("quickstart", "fare-agg",
		"SELECT city, COUNT(*) AS trips, SUM(fare) AS revenue FROM trips GROUP BY city, TUMBLE(ts, 60000)", sink); err != nil {
		t.Fatal(err)
	}
	if err := p.ProduceRecords("quickstart", "trips", tripRows(200)); err != nil {
		t.Fatal(err)
	}
	if got := p.WaitForOLAP("trips", 200, 3*time.Second); got != 200 {
		t.Fatalf("OLAP ingested %d, want 200", got)
	}
	res, err := p.Query("quickstart", "SELECT city, COUNT(*) AS n FROM pinot.trips GROUP BY city ORDER BY city")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1].(int64) != 100 {
		t.Fatalf("OLAP query = %v", res.Rows)
	}
	// Streaming SQL output appears.
	deadline := time.Now().Add(3 * time.Second)
	for sink.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if sink.Len() == 0 {
		t.Error("streaming SQL job produced no windows")
	}
	// Archival: wait for the archiver job, then compact and query via hive.
	deadline = time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if n, _ := p.Compact("trips"); n > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	hres, err := p.Query("quickstart", "SELECT COUNT(*) AS n FROM hive.trips")
	if err != nil {
		t.Fatal(err)
	}
	if hres.Rows[0][0].(int64) == 0 {
		t.Error("archive query returned no rows")
	}
	// Lineage was recorded.
	down := p.Registry.Downstream("stream:trips")
	if len(down) != 2 {
		t.Errorf("lineage downstream = %v", down)
	}
}

func TestTable1ComponentMatrix(t *testing.T) {
	// Reproduce Table 1: the four §5 use cases touch the expected layers.
	p := newPlatform(t)
	if _, err := p.CreateStream("surge", tripsSchema(), stream.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}

	// Surge (§5.1): API + Compute + Stream (no OLAP/SQL).
	err := p.DeployJob("surge", "surge-pipeline", func(parallelism int) (*flow.Job, error) {
		codec, _ := p.Codec("trips")
		cluster, _ := p.Streams.Lookup("trips")
		src, err := flow.NewStreamSource(cluster, "trips", codec, flow.StreamSourceConfig{TimeField: "ts"})
		if err != nil {
			return nil, err
		}
		return flow.NewJob(flow.JobSpec{
			Name:    "surge-pipeline",
			Sources: []flow.SourceSpec{{Source: src}},
			Stages: []flow.StageSpec{{Name: "w", KeyBy: "city", New: func() flow.Operator {
				return flow.NewWindowAggOp(60_000, 0, "city", flow.Aggregation{Kind: record.AggCount})
			}}},
			Sink: flow.SinkSpec{Sink: flow.NewCollectSink()},
		})
	})
	if err != nil {
		t.Fatal(err)
	}

	// Restaurant Manager (§5.2): SQL + OLAP + Compute + Stream.
	if err := p.DeployStreamingSQL("restaurant-manager", "rm-preagg",
		"SELECT city, SUM(fare) AS revenue FROM trips GROUP BY city, TUMBLE(ts, 60000)", flow.NewCollectSink()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateOLAPTable("restaurant-manager", olap.TableConfig{Name: "rm_trips"}, "trips", olap.BackupP2P); err != nil {
		t.Fatal(err)
	}

	// Prediction monitoring (§5.3): API + SQL + OLAP + Compute + Stream.
	p.Producer("prediction-monitoring", "ml-models")
	if err := p.DeployStreamingSQL("prediction-monitoring", "pm-agg",
		"SELECT city, COUNT(*) FROM trips GROUP BY city, TUMBLE(ts, 60000)", flow.NewCollectSink()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateOLAPTable("prediction-monitoring", olap.TableConfig{Name: "pm_metrics"}, "trips", olap.BackupP2P); err != nil {
		t.Fatal(err)
	}

	// Eats ops automation (§5.4): SQL + OLAP + Compute + Stream + Storage.
	if _, err := p.CreateOLAPTable("eats-ops", olap.TableConfig{Name: "eats_orders"}, "trips", olap.BackupP2P); err != nil {
		t.Fatal(err)
	}
	if err := p.EnableArchival("eats-ops", "trips"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Query("eats-ops", "SELECT COUNT(*) FROM pinot.eats_orders"); err != nil {
		t.Fatal(err)
	}
	if err := p.DeployStreamingSQL("eats-ops", "eats-alerts",
		"SELECT city, COUNT(*) AS n FROM trips GROUP BY city, TUMBLE(ts, 60000)", flow.NewCollectSink()); err != nil {
		t.Fatal(err)
	}

	matrix := p.ComponentMatrix()
	has := func(uc string, l Layer) bool {
		for _, got := range matrix[uc] {
			if got == l {
				return true
			}
		}
		return false
	}
	// Table 1 expectations.
	checks := []struct {
		useCase string
		layer   Layer
		want    bool
	}{
		{"surge", LayerAPI, true},
		{"surge", LayerCompute, true},
		{"surge", LayerStream, true},
		{"surge", LayerOLAP, false},
		{"restaurant-manager", LayerSQL, true},
		{"restaurant-manager", LayerOLAP, true},
		{"restaurant-manager", LayerCompute, true},
		{"restaurant-manager", LayerAPI, false},
		{"prediction-monitoring", LayerAPI, true},
		{"prediction-monitoring", LayerSQL, true},
		{"prediction-monitoring", LayerOLAP, true},
		{"eats-ops", LayerSQL, true},
		{"eats-ops", LayerOLAP, true},
		{"eats-ops", LayerStorage, true},
	}
	for _, c := range checks {
		if got := has(c.useCase, c.layer); got != c.want {
			t.Errorf("Table 1: %s uses %s = %v, want %v", c.useCase, c.layer, got, c.want)
		}
	}
}

func TestPlatformValidation(t *testing.T) {
	if _, err := NewPlatform(Config{}); err == nil {
		t.Error("platform without clusters should fail")
	}
	p := newPlatform(t)
	if _, err := p.Codec("ghost"); err == nil {
		t.Error("unknown stream codec should fail")
	}
	if _, err := p.Compact("ghost"); err == nil {
		t.Error("compaction without archival should fail")
	}
	if _, err := p.CreateOLAPTable("x", olap.TableConfig{Name: "t"}, "ghost", olap.BackupP2P); err == nil {
		t.Error("OLAP table over unknown stream should fail")
	}
}

// The archiver writes the rows of each sink write as one raw-log batch, not
// one object per event: compaction then lists, reads and deletes a few
// objects for 200 rows, not 200.
func TestArchiverWritesABatchPerSinkWrite(t *testing.T) {
	p := newPlatform(t)
	if _, err := p.CreateStream("archive", tripsSchema(), stream.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	if err := p.EnableArchival("archive", "trips"); err != nil {
		t.Fatal(err)
	}
	if err := p.ProduceRecords("archive", "trips", tripRows(200)); err != nil {
		t.Fatal(err)
	}
	rows, parts := 0, 0
	for deadline := time.Now().Add(3 * time.Second); rows < 200 && time.Now().Before(deadline); {
		n, err := p.Compact("trips")
		if err != nil {
			t.Fatal(err)
		}
		if n > 0 {
			rows, parts = rows+n, parts+1
		}
		time.Sleep(5 * time.Millisecond)
	}
	puts, _, _, _ := p.Storage.(*objstore.MemStore).Stats()
	if batches := int(puts) - parts; rows != 200 || batches > 20 {
		t.Errorf("archived %d rows in %d raw batches, want 200 in a few", rows, batches)
	}
	res, err := p.Query("archive", "SELECT COUNT(*) AS n, SUM(fare) AS f FROM hive.trips")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != int64(200) || res.Rows[0][1] != float64(2800) {
		t.Errorf("hive.trips = %v, want [200 2800]", res.Rows[0])
	}
}
