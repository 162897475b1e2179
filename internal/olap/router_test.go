package olap

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/objstore"
	"repro/internal/record"
)

// partitionedCities returns one city name per partition: cities[p] hashes to
// partition p under the canonical PartitionFor hash.
func partitionedCities(t testing.TB, n int) []string {
	t.Helper()
	cities := make([]string, n)
	found := 0
	for i := 0; found < n && i < 100_000; i++ {
		name := fmt.Sprintf("city-%03d", i)
		p := PartitionFor(name, n)
		if cities[p] == "" {
			cities[p] = name
			found++
		}
	}
	if found < n {
		t.Fatalf("could not find %d cities covering all partitions", n)
	}
	return cities
}

// routedDeployment builds the routing fixture: 4 servers, 2 replicas per
// segment, a declared partition function on "city" with 4 partitions, and
// rowsPerCity rows per city sealed into several segments per partition.
func routedDeployment(t testing.TB, rowsPerCity int) (*Deployment, []*Server, []string) {
	t.Helper()
	cities := partitionedCities(t, 4)
	servers := make([]*Server, 4)
	for i := range servers {
		servers[i] = NewServer(fmt.Sprintf("server-%d", i))
	}
	d, err := NewDeployment(DeploymentConfig{
		Table: TableConfig{
			Name:            "orders",
			Schema:          ordersSchema(),
			SegmentRows:     rowsPerCity / 3, // several sealed segments per partition
			Replicas:        2,
			PartitionColumn: "city",
			Partitions:      4,
		},
		Servers:      servers,
		SegmentStore: objstore.NewMemStore(),
		Backup:       BackupP2P,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rowsPerCity; i++ {
		for p, city := range cities {
			r := record.Record{
				"order_id": fmt.Sprintf("o-%s-%05d", city, i),
				"city":     city,
				"status":   []string{"placed", "cooking", "delivered"}[i%3],
				"amount":   float64(i % 40),
				"items":    int64(i%5 + 1),
				"ts":       int64(1700000000000 + i*1000),
			}
			if err := d.Ingest(p, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	for p := 0; p < 4; p++ {
		if err := d.Seal(p); err != nil {
			t.Fatal(err)
		}
	}
	d.WaitUploads()
	return d, servers, cities
}

func countQueryFor(city string) *Query {
	q := &Query{Aggs: []AggSpec{{Kind: AggCount}, {Kind: AggSum, Column: "amount"}}}
	if city != "" {
		q.Filters = []Filter{{Column: "city", Op: OpEq, Value: city}}
	}
	return q
}

func TestIngestEnforcesDeclaredPartitionFunction(t *testing.T) {
	d, _, cities := routedDeployment(t, 30)
	wrong := (PartitionFor(cities[0], 4) + 1) % 4
	err := d.Ingest(wrong, record.Record{
		"order_id": "bad", "city": cities[0], "amount": 1.0, "ts": int64(1700000000000),
	})
	if err == nil {
		t.Fatal("ingest on the wrong partition should fail for a declared partition column")
	}
}

func TestPartitionForNumericCanonicalization(t *testing.T) {
	if PartitionFor(int64(3), 8) != PartitionFor(float64(3), 8) {
		t.Error("int64(3) and float64(3) must hash to the same partition")
	}
	if PartitionFor("3", 8) == PartitionFor(int64(3), 8) {
		// Strings and numbers live in different hash domains; equality here
		// would be coincidence, not a requirement — just document the
		// domains differ by construction ("s:" vs "n:" prefixes).
		t.Log("string and numeric 3 happened to collide (allowed)")
	}
}

func TestRoundRobinRouterMatchesExpectedTotals(t *testing.T) {
	d, _, _ := routedDeployment(t, 60)
	b := NewBroker(d)
	resp, err := b.Execute(context.Background(), &QueryRequest{Query: countQueryFor("")})
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsOf(resp)[0][0].(int64); got != 240 {
		t.Errorf("count = %d, want 240", got)
	}
	if resp.Route.Router != "round-robin" {
		t.Errorf("router = %q", resp.Route.Router)
	}
	if resp.Stats.ServersContacted == 0 || resp.Stats.ServersContacted > 4 {
		t.Errorf("ServersContacted = %d", resp.Stats.ServersContacted)
	}
}

func TestReplicaGroupRouterBoundsFanOut(t *testing.T) {
	d, _, _ := routedDeployment(t, 60)
	baseline, err := NewBroker(d).Execute(context.Background(), &QueryRequest{Query: countQueryFor("")})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBrokerWithOptions(d, BrokerOptions{Router: &ReplicaGroupRouter{}})
	for i := 0; i < 4; i++ { // both preferred groups get exercised
		resp, err := b.Execute(context.Background(), &QueryRequest{Query: countQueryFor("")})
		if err != nil {
			t.Fatal(err)
		}
		// 4 servers / 2 replica groups: one group = 2 servers.
		if resp.Stats.ServersContacted > 2 {
			t.Errorf("replica-group fan-out = %d servers, want <= 2", resp.Stats.ServersContacted)
		}
		if resp.Route.ReplicaGroup < 0 || resp.Route.ReplicaGroup > 1 {
			t.Errorf("replica group = %d", resp.Route.ReplicaGroup)
		}
		if !reflect.DeepEqual(rowsOf(resp), rowsOf(baseline)) {
			t.Errorf("replica-group rows %v != baseline %v", rowsOf(resp), rowsOf(baseline))
		}
	}
}

func TestReplicaGroupRouterFailsOverToOtherReplicaSet(t *testing.T) {
	d, servers, _ := routedDeployment(t, 60)
	baseline, err := NewBroker(d).Execute(context.Background(), &QueryRequest{Query: countQueryFor("")})
	if err != nil {
		t.Fatal(err)
	}
	// Kill replica group 0 entirely (servers 0 and 2): every preferred-group
	// pick must fail over to the other replica set.
	servers[0].SetDown(true)
	servers[2].SetDown(true)
	b := NewBrokerWithOptions(d, BrokerOptions{Router: &ReplicaGroupRouter{}})
	for i := 0; i < 4; i++ {
		resp, err := b.Execute(context.Background(), &QueryRequest{Query: countQueryFor("")})
		if err != nil {
			t.Fatalf("query %d with group 0 down: %v", i, err)
		}
		if !reflect.DeepEqual(rowsOf(resp), rowsOf(baseline)) {
			t.Errorf("failover rows %v != baseline %v", rowsOf(resp), rowsOf(baseline))
		}
		if resp.Stats.ServersContacted > 2 {
			t.Errorf("contacted %d servers with half the cluster down", resp.Stats.ServersContacted)
		}
	}
}

func TestPartitionRouterPrunesServers(t *testing.T) {
	d, _, cities := routedDeployment(t, 60)
	q := countQueryFor(cities[2])
	baseline, err := NewBroker(d).Execute(context.Background(), &QueryRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBrokerWithOptions(d, BrokerOptions{Router: &PartitionRouter{}})
	resp, err := b.Execute(context.Background(), &QueryRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rowsOf(resp), rowsOf(baseline)) {
		t.Errorf("partition-routed rows %v != baseline %v", rowsOf(resp), rowsOf(baseline))
	}
	if resp.Stats.ServersContacted != 1 {
		t.Errorf("ServersContacted = %d, want 1 (only the partition's owner)", resp.Stats.ServersContacted)
	}
	if resp.Stats.PartitionsPruned != 3 {
		t.Errorf("PartitionsPruned = %d, want 3", resp.Stats.PartitionsPruned)
	}
	if got := rowsOf(resp)[0][0].(int64); got != 60 {
		t.Errorf("count = %d, want 60", got)
	}

	// Without a partition filter the router scans everything and prunes
	// nothing.
	all, err := b.Execute(context.Background(), &QueryRequest{Query: countQueryFor("")})
	if err != nil {
		t.Fatal(err)
	}
	if all.Stats.PartitionsPruned != 0 {
		t.Errorf("unfiltered PartitionsPruned = %d, want 0", all.Stats.PartitionsPruned)
	}
	if got := rowsOf(all)[0][0].(int64); got != 240 {
		t.Errorf("unfiltered count = %d, want 240", got)
	}
}

func TestPartitionRouterInFilterPrunes(t *testing.T) {
	d, _, cities := routedDeployment(t, 30)
	b := NewBrokerWithOptions(d, BrokerOptions{Router: &PartitionRouter{}})
	q := &Query{
		Filters: []Filter{{Column: "city", Op: OpIn, Values: []any{cities[0], cities[3]}}},
		Aggs:    []AggSpec{{Kind: AggCount}},
	}
	resp, err := b.Execute(context.Background(), &QueryRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsOf(resp)[0][0].(int64); got != 60 {
		t.Errorf("count = %d, want 60", got)
	}
	if resp.Stats.PartitionsPruned != 2 {
		t.Errorf("PartitionsPruned = %d, want 2", resp.Stats.PartitionsPruned)
	}
	if resp.Stats.ServersContacted > 2 {
		t.Errorf("ServersContacted = %d, want <= 2", resp.Stats.ServersContacted)
	}
}

func TestPartitionRouterNeverPrunesOnlyLiveReplica(t *testing.T) {
	d, servers, cities := routedDeployment(t, 60)
	q := countQueryFor(cities[1])
	baseline, err := NewBroker(d).Execute(context.Background(), &QueryRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	owner := PartitionFor(cities[1], 4) % len(servers)
	servers[owner].SetDown(true)
	b := NewBrokerWithOptions(d, BrokerOptions{Router: &PartitionRouter{}})
	resp, err := b.Execute(context.Background(), &QueryRequest{Query: q})
	if err != nil {
		t.Fatalf("partition router must fail over when the owner is down: %v", err)
	}
	if !reflect.DeepEqual(rowsOf(resp), rowsOf(baseline)) {
		t.Errorf("failover rows %v != baseline %v", rowsOf(resp), rowsOf(baseline))
	}
	// Both replicas down: the segment really is unavailable — that must
	// surface as an error, not silent pruning.
	servers[(owner+1)%len(servers)].SetDown(true)
	if _, err := b.Execute(context.Background(), &QueryRequest{Query: q}); err == nil {
		t.Error("query with every replica down should fail")
	}
}

// TestRoutingUnderSetDownFlaps hammers all three routers while one server
// flaps up and down. Every segment keeps a live replica throughout (only
// one of two replicas flaps), so queries that fail may only fail with
// ErrServerDown from the routing race — never ErrSegmentUnavailable (that
// would mean a router pruned or lost track of the only live copy) — and
// every successful query must return exact results. Run with -race.
func TestRoutingUnderSetDownFlaps(t *testing.T) {
	d, servers, cities := routedDeployment(t, 45)
	want, err := NewBroker(d).Execute(context.Background(), &QueryRequest{Query: countQueryFor(cities[0])})
	if err != nil {
		t.Fatal(err)
	}
	routers := []Router{&RoundRobinRouter{}, &ReplicaGroupRouter{}, &PartitionRouter{}}
	stop := make(chan struct{})
	var flapper sync.WaitGroup
	flapper.Add(1)
	go func() {
		defer flapper.Done()
		down := false
		for {
			select {
			case <-stop:
				servers[1].SetDown(false)
				return
			default:
				down = !down
				servers[1].SetDown(down)
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	var wg sync.WaitGroup
	var mu sync.Mutex
	succeeded := 0
	for _, r := range routers {
		wg.Add(1)
		go func(r Router) {
			defer wg.Done()
			b := NewBrokerWithOptions(d, BrokerOptions{Router: r})
			for i := 0; i < 60; i++ {
				resp, err := b.Execute(context.Background(), &QueryRequest{Query: countQueryFor(cities[0])})
				if err != nil {
					if errors.Is(err, ErrSegmentUnavailable) {
						t.Errorf("%s: lost the only live replica: %v", r.Name(), err)
					} else if !errors.Is(err, ErrServerDown) {
						t.Errorf("%s: unexpected error: %v", r.Name(), err)
					}
					continue
				}
				if !reflect.DeepEqual(rowsOf(resp), rowsOf(want)) {
					t.Errorf("%s: rows %v != want %v", r.Name(), rowsOf(resp), rowsOf(want))
				}
				mu.Lock()
				succeeded++
				mu.Unlock()
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	flapper.Wait()
	if succeeded == 0 {
		t.Error("no query succeeded during the flap storm")
	}
}

func TestMaxSegmentsBudget(t *testing.T) {
	d, _, _ := routedDeployment(t, 60)
	b := NewBroker(d)
	_, err := b.Execute(context.Background(), &QueryRequest{Query: countQueryFor(""), MaxSegments: 1})
	if !errors.Is(err, ErrTooManySegments) {
		t.Fatalf("err = %v, want ErrTooManySegments", err)
	}
	// A pruned query that fits the budget passes.
	d2, _, cities := routedDeployment(t, 30)
	b2 := NewBrokerWithOptions(d2, BrokerOptions{Router: &PartitionRouter{}})
	resp, err := b2.Execute(context.Background(), &QueryRequest{Query: countQueryFor(cities[0]), MaxSegments: 6})
	if err != nil {
		t.Fatalf("pruned query within budget: %v", err)
	}
	if got := rowsOf(resp)[0][0].(int64); got != 30 {
		t.Errorf("count = %d, want 30", got)
	}
}

// A filter on the time column prunes the sealed segments outside its
// bounds before any scan, and the answer stays exact.
func TestTimeFilterPrunesSegments(t *testing.T) {
	d, _, _ := routedDeployment(t, 60)
	q := countQueryFor("")
	q.Filters = append(q.Filters, Filter{Column: "ts", Op: OpBetween, Value: int64(1700000000000), Value2: int64(1700000009000)}) // first 10 ts values
	resp, err := NewBroker(d).Execute(context.Background(), &QueryRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsOf(resp)[0][0].(int64); got != 40 { // 10 per city x 4 cities
		t.Errorf("filtered count = %d, want 40", got)
	}
	if resp.Stats.SegmentsPruned == 0 {
		t.Error("the time filter should prune the segments outside it")
	}
}

// A conformed cell hashes where its boxed value does, for every column type
// and NULL, and the hash is FNV-1a.
func TestPartitionOfValueMatchesPartitionFor(t *testing.T) {
	cases := []struct {
		t metadata.FieldType
		v any
	}{
		{metadata.TypeString, "sf"}, {metadata.TypeString, ""},
		{metadata.TypeLong, int64(-7)}, {metadata.TypeLong, int64(1) << 60},
		{metadata.TypeTimestamp, int64(1_700_000_000_000)},
		{metadata.TypeDouble, 2.5}, {metadata.TypeDouble, 3.0}, {metadata.TypeDouble, math.Inf(-1)},
		{metadata.TypeBool, true}, {metadata.TypeBool, false},
		{metadata.TypeBytes, []byte{1, 2}},
		{metadata.TypeString, nil},
	}
	for _, c := range cases {
		for _, parts := range []int{1, 4, 7} {
			if got, want := partitionOfValue(record.ValueOf(c.v), c.t, parts), PartitionFor(c.v, parts); got != want {
				t.Errorf("%s %v over %d partitions: cell hashes to %d, value to %d", c.t, c.v, parts, got, want)
			}
		}
	}
	for _, key := range []string{"", "s:sf", "n:3"} {
		h := fnv.New32a()
		h.Write([]byte(key))
		if got, want := partitionHash([]byte(key), 1<<31), int(h.Sum32()%(1<<31)); got != want {
			t.Errorf("partitionHash(%q) = %d, FNV-1a gives %d", key, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		partitionOfValue(record.ValueOf("city_03"), metadata.TypeString, 8)
		partitionOfValue(record.Value{I: 42}, metadata.TypeLong, 8)
	}); n != 0 {
		t.Errorf("hashing a cell allocates %v times, want 0", n)
	}
}
