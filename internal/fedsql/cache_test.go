package fedsql

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/objstore"
	"repro/internal/olap"
)

// TestPlanLineShowsCacheDecisions: a connector with a broker result cache
// reports cache=miss then cache=hit in the EXPLAIN plan line, with
// identical rows both times, and a post-ingest query goes back to miss.
func TestPlanLineShowsCacheDecisions(t *testing.T) {
	servers := []*olap.Server{olap.NewServer("s0"), olap.NewServer("s1")}
	d, err := olap.NewDeployment(olap.DeploymentConfig{
		Table:        olap.TableConfig{Name: "orders", Schema: ordersSchema(), SegmentRows: 50},
		Servers:      servers,
		SegmentStore: objstore.NewMemStore(),
		Backup:       olap.BackupP2P,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := orderRows(200)
	for i, r := range rows {
		if err := d.Ingest(i%2, r); err != nil {
			t.Fatal(err)
		}
	}
	pinot := NewPinotConnector("pinot")
	pinot.CacheMaxBytes = 1 << 20
	pinot.AddTable(d)
	e := NewEngine()
	e.Register(pinot)

	const sql = "SELECT city, SUM(amount) AS revenue FROM pinot.orders GROUP BY city"
	first, err := e.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Plan) != 1 || !strings.Contains(first.Plan[0], "cache=miss") {
		t.Fatalf("first plan %v should show cache=miss", first.Plan)
	}
	second, err := e.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(second.Plan[0], "cache=hit") {
		t.Fatalf("second plan %v should show cache=hit", second.Plan)
	}
	if second.Stats.Exec.CacheHit != 1 || second.Stats.Exec.CacheMemBytes <= 0 {
		t.Fatalf("hit stats %+v", second.Stats.Exec)
	}
	if rowsKey(first) != rowsKey(second) {
		t.Fatal("cached result differs from executed result")
	}

	if err := d.Ingest(0, rows[0]); err != nil {
		t.Fatal(err)
	}
	third, err := e.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(third.Plan[0], "cache=miss") {
		t.Fatalf("post-ingest plan %v should show cache=miss", third.Plan)
	}
}

// TestCachedBatchSharedAcrossQueries: a cached pushed-down aggregate's
// response batch is shared by every cache hit and coalesced follower that
// reads it, so the engine serves it read-only. Goroutines started together
// run one GROUP BY and one GROUP BY … ORDER BY … LIMIT through a connector
// with a result cache, and every answer equals the first. Run under -race
// in CI.
func TestCachedBatchSharedAcrossQueries(t *testing.T) {
	servers := []*olap.Server{olap.NewServer("s0"), olap.NewServer("s1")}
	d, err := olap.NewDeployment(olap.DeploymentConfig{
		Table:        olap.TableConfig{Name: "orders", Schema: ordersSchema(), SegmentRows: 50},
		Servers:      servers,
		SegmentStore: objstore.NewMemStore(),
		Backup:       olap.BackupP2P,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range orderRows(200) {
		if err := d.Ingest(i%2, r); err != nil {
			t.Fatal(err)
		}
	}
	pinot := NewPinotConnector("pinot")
	pinot.CacheMaxBytes = 1 << 20
	pinot.AddTable(d)
	e := NewEngine()
	e.Register(pinot)

	queries := []string{
		"SELECT city, SUM(amount) AS revenue, MIN(amount) AS lo, COUNT(*) AS n FROM pinot.orders GROUP BY city",
		"SELECT city, AVG(amount) AS mean FROM pinot.orders GROUP BY city ORDER BY mean DESC LIMIT 2",
	}
	const workers, rounds = 6, 20
	answers := make([][]string, len(queries))
	var hits [2]int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < rounds; i++ {
				qi := (w + i) % len(queries)
				res, err := e.Query(queries[qi])
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				answers[qi] = append(answers[qi], rowsKey(res))
				hits[qi] += res.Stats.Exec.CacheHit + res.Stats.Exec.Coalesced
				mu.Unlock()
			}
		}()
	}
	close(start)
	wg.Wait()
	for qi, got := range answers {
		if hits[qi] == 0 {
			t.Errorf("%s: no answer read the shared batch", queries[qi])
		}
		for _, a := range got[1:] {
			if a != got[0] {
				t.Fatalf("%s: an answer\n%s\ndiffers from the first\n%s", queries[qi], a, got[0])
			}
		}
	}
}
