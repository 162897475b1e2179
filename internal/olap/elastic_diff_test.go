package olap_test

// The elasticity differential harness: one deployment undergoes randomized
// membership churn (AddServer, DecommissionServer, Rebalance) interleaved
// with ingests, seals, compactions and offloads, while a control deployment
// receives the identical data operations on a fixed topology. Every query
// answer from the elastic deployment must be byte-identical
// (reflect.DeepEqual) to the control's — zero errors, zero wrong answers.
// Numerics in the fixture are exactly representable (multiples of 0.5, far
// below 2^52), so float64 aggregates are merge-order independent and
// byte-identical is a meaningful bar.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/metadata"
	"repro/internal/objstore"
	"repro/internal/olap"
	"repro/internal/record"
)

func elasticSchema() *metadata.Schema {
	return &metadata.Schema{
		Name:    "orders",
		Version: 1,
		Fields: []metadata.Field{
			{Name: "order_id", Type: metadata.TypeString},
			{Name: "city", Type: metadata.TypeString, Dimension: true},
			{Name: "status", Type: metadata.TypeString, Dimension: true},
			{Name: "amount", Type: metadata.TypeDouble},
			{Name: "items", Type: metadata.TypeLong},
			{Name: "ts", Type: metadata.TypeTimestamp},
		},
		TimeField:  "ts",
		PrimaryKey: "order_id",
	}
}

func newElasticDeployment(t *testing.T, nServers int, upsert bool) *olap.Deployment {
	t.Helper()
	servers := make([]*olap.Server, nServers)
	for i := range servers {
		servers[i] = olap.NewServer(fmt.Sprintf("server-%d", i))
	}
	d, err := olap.NewDeployment(olap.DeploymentConfig{
		Table: olap.TableConfig{
			Name:        "orders",
			Schema:      elasticSchema(),
			SegmentRows: 60,
			Upsert:      upsert,
			Replicas:    2,
			Indexes:     olap.IndexConfig{InvertedColumns: []string{"city"}},
		},
		Servers:      servers,
		SegmentStore: objstore.NewMemStore(),
		Backup:       olap.BackupP2P,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.AttachLoaders()
	return d
}

var elasticCities = []string{"sf", "nyc", "la", "chi", "sea"}
var elasticStatuses = []string{"placed", "cooking", "delivered"}

func elasticRow(i, keySpace int) record.Record {
	k := i
	if keySpace > 0 {
		k = i % keySpace
	}
	return record.Record{
		"order_id": fmt.Sprintf("o-%06d", k),
		"city":     elasticCities[i%len(elasticCities)],
		"status":   elasticStatuses[i%len(elasticStatuses)],
		"amount":   float64(i%97) / 2,
		"items":    int64(i%9 + 1),
		"ts":       int64(1700000000000) + int64(i)*1000,
	}
}

// elasticShape generates one random aggregate query; ORDER BY a group
// column keeps row order deterministic for DeepEqual.
func elasticShape(rng *rand.Rand) *olap.Query {
	aggPool := []olap.AggSpec{
		{Kind: olap.AggCount},
		{Kind: olap.AggSum, Column: "amount"},
		{Kind: olap.AggSum, Column: "items"},
		{Kind: olap.AggMin, Column: "amount"},
		{Kind: olap.AggMax, Column: "amount"},
		{Kind: olap.AggAvg, Column: "amount"},
		{Kind: olap.AggDistinctCount, Column: "city"},
		{Kind: olap.AggDistinctCount, Column: "order_id"},
	}
	rng.Shuffle(len(aggPool), func(i, j int) { aggPool[i], aggPool[j] = aggPool[j], aggPool[i] })
	q := &olap.Query{Aggs: append([]olap.AggSpec(nil), aggPool[:rng.Intn(3)+1]...)}
	switch rng.Intn(4) {
	case 1:
		q.GroupBy = []string{"city"}
	case 2:
		q.GroupBy = []string{"status"}
	case 3:
		q.GroupBy = []string{"city", "status"}
	}
	if rng.Intn(3) == 0 {
		q.Filters = append(q.Filters, olap.Filter{
			Column: "city", Op: olap.OpEq, Value: elasticCities[rng.Intn(len(elasticCities))],
		})
	}
	if rng.Intn(4) == 0 {
		lo := int64(rng.Intn(5) + 1)
		q.Filters = append(q.Filters, olap.Filter{Column: "items", Op: olap.OpBetween, Value: lo, Value2: lo + 3})
	}
	return q
}

// mirror applies one data operation identically to both deployments.
type mirror struct {
	t        *testing.T
	subject  *olap.Deployment
	control  *olap.Deployment
	next     int
	keySpace int
}

func (m *mirror) both(fn func(d *olap.Deployment) error) {
	m.t.Helper()
	if err := fn(m.subject); err != nil {
		m.t.Fatalf("subject: %v", err)
	}
	if err := fn(m.control); err != nil {
		m.t.Fatalf("control: %v", err)
	}
}

func (m *mirror) ingest(n, partitions int) {
	m.t.Helper()
	for i := 0; i < n; i++ {
		part := m.next % partitions
		// Each deployment gets its own copy: Ingest retains the map.
		idx := m.next
		m.both(func(d *olap.Deployment) error { return d.Ingest(part, elasticRow(idx, m.keySpace)) })
		m.next++
	}
}

func (m *mirror) seal(part int) {
	m.t.Helper()
	m.both(func(d *olap.Deployment) error { return d.Seal(part) })
}

// sealedNames returns the subject's segment names for a partition, sorted.
// Data operations are mirrored exactly, so the control has the same names.
func (m *mirror) sealedNames(part int) []string {
	var names []string
	for _, info := range m.subject.SegmentInfos() {
		if info.Partition == part {
			names = append(names, info.Name)
		}
	}
	sort.Strings(names)
	return names
}

func (m *mirror) compact(part int) {
	m.t.Helper()
	names := m.sealedNames(part)
	if len(names) < 2 {
		return
	}
	m.both(func(d *olap.Deployment) error {
		_, err := d.Compact(names)
		return err
	})
}

func (m *mirror) offload(part int) {
	m.t.Helper()
	names := m.sealedNames(part)
	if len(names) == 0 {
		return
	}
	name := names[len(names)-1]
	m.both(func(d *olap.Deployment) error {
		_, err := d.OffloadSegment(name)
		return err
	})
}

// compare runs one query on both brokers and requires byte-identical output.
func (m *mirror) compare(sb, cb *olap.Broker, q *olap.Query) {
	m.t.Helper()
	got, err := sb.Execute(context.Background(), &olap.QueryRequest{Query: q})
	if err != nil {
		m.t.Fatalf("elastic query error: %v", err)
	}
	want, err := cb.Execute(context.Background(), &olap.QueryRequest{Query: q})
	if err != nil {
		m.t.Fatalf("control query error: %v", err)
	}
	if !reflect.DeepEqual(got.Columns, want.Columns) {
		m.t.Fatalf("columns diverge for %+v:\n elastic %v\n control %v", q, got.Columns, want.Columns)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		m.t.Fatalf("rows diverge for %+v:\n elastic %v\n control %v", q, got.Rows, want.Rows)
	}
}

func elasticSeed(t *testing.T) int64 {
	if s := os.Getenv("ELASTIC_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("ELASTIC_SEED: %v", err)
		}
		return v
	}
	return 20260808
}

// TestDifferentialElasticity is the membership-churn gate: 30 randomized
// rounds of data operations mirrored onto both deployments, with the
// elastic one also joining and decommissioning servers, and every
// observation point byte-compared against the fixed-topology control.
func TestDifferentialElasticity(t *testing.T) {
	seed := elasticSeed(t)
	t.Logf("elasticity seed %d (override with ELASTIC_SEED)", seed)
	rng := rand.New(rand.NewSource(seed))
	const partitions = 3

	m := &mirror{
		t:       t,
		subject: newElasticDeployment(t, 3, false),
		control: newElasticDeployment(t, 3, false),
	}
	sb, cb := olap.NewBroker(m.subject), olap.NewBroker(m.control)
	m.ingest(250, partitions)

	ctx := context.Background()
	membershipOps := 0
	for round := 0; round < 30; round++ {
		switch rng.Intn(10) {
		case 6:
			m.seal(rng.Intn(partitions))
		case 7:
			m.compact(rng.Intn(partitions))
		case 8:
			m.offload(rng.Intn(partitions))
		default:
			m.ingest(rng.Intn(40)+10, partitions)
		}
		// Membership churn on the elastic deployment only.
		if rng.Intn(3) == 0 {
			active := 0
			var activeIdx []int
			for i := 0; i < m.subject.NumServers(); i++ {
				if !m.subject.Decommissioned(i) {
					active++
					activeIdx = append(activeIdx, i)
				}
			}
			if active <= 3 || rng.Intn(2) == 0 {
				if m.subject.NumServers() < 8 {
					m.subject.AddServer(olap.NewServer(fmt.Sprintf("joined-%d", m.subject.NumServers())))
					if _, err := m.subject.Rebalance(ctx); err != nil {
						t.Fatalf("rebalance after join: %v", err)
					}
					membershipOps++
				}
			} else {
				victim := activeIdx[rng.Intn(len(activeIdx))]
				if _, err := m.subject.DecommissionServer(ctx, victim); err != nil {
					t.Fatalf("decommission %d: %v", victim, err)
				}
				membershipOps++
			}
		}
		for i := 0; i < 6; i++ {
			m.compare(sb, cb, elasticShape(rng))
		}
	}
	if membershipOps == 0 {
		t.Fatal("churn schedule never changed membership")
	}
	// Final sweep on the settled cluster.
	for i := 0; i < 40; i++ {
		m.compare(sb, cb, elasticShape(rng))
	}
}

// TestDifferentialElasticityUpsert is the same gate over an upsert table:
// later rows supersede keys while the partition-owner anchor (replica slot
// 0) follows decommissions. Latest-value semantics must match the control
// exactly throughout.
func TestDifferentialElasticityUpsert(t *testing.T) {
	seed := elasticSeed(t) + 1
	t.Logf("elasticity seed %d (override with ELASTIC_SEED)", seed)
	rng := rand.New(rand.NewSource(seed))
	const partitions = 2

	m := &mirror{
		t:        t,
		subject:  newElasticDeployment(t, 3, true),
		control:  newElasticDeployment(t, 3, true),
		keySpace: 120,
	}
	sb, cb := olap.NewBroker(m.subject), olap.NewBroker(m.control)
	m.ingest(200, partitions)

	ctx := context.Background()
	joined := false
	for round := 0; round < 20; round++ {
		if rng.Intn(5) == 4 {
			m.seal(rng.Intn(partitions))
		} else {
			m.ingest(rng.Intn(30)+10, partitions)
		}
		switch round {
		case 6:
			m.subject.AddServer(olap.NewServer("joined-3"))
			if _, err := m.subject.Rebalance(ctx); err != nil {
				t.Fatal(err)
			}
			joined = true
		case 13:
			if _, err := m.subject.DecommissionServer(ctx, 0); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ {
			m.compare(sb, cb, elasticShape(rng))
		}
		// Latest-value invariant, directly: full selection matches.
		m.compare(sb, cb, &olap.Query{
			Select:  []string{"order_id", "amount"},
			OrderBy: []olap.OrderSpec{{Column: "order_id"}},
			Limit:   200,
		})
	}
	if !joined {
		t.Fatal("schedule never joined a server")
	}
}

// TestDifferentialElasticityConcurrent is the -race gate: data is frozen,
// reader goroutines continuously byte-compare the elastic deployment
// against the control while servers join, rebalance and decommission
// underneath them. Zero errors, zero divergent answers.
func TestDifferentialElasticityConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(elasticSeed(t) + 2))
	const partitions = 3
	m := &mirror{
		t:       t,
		subject: newElasticDeployment(t, 4, false),
		control: newElasticDeployment(t, 4, false),
	}
	sb, cb := olap.NewBroker(m.subject), olap.NewBroker(m.control)
	m.ingest(700, partitions)
	for p := 0; p < partitions; p++ {
		m.seal(p)
	}
	m.offload(0)

	shapes := make([]*olap.Query, 12)
	wants := make([]*olap.QueryResponse, 12)
	for i := range shapes {
		shapes[i] = elasticShape(rng)
		w, err := cb.Execute(context.Background(), &olap.QueryRequest{Query: shapes[i]})
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = w
	}

	stop := make(chan struct{})
	var queries, errs, wrong atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := r.Intn(len(shapes))
				got, err := sb.Execute(context.Background(), &olap.QueryRequest{Query: shapes[i]})
				if err != nil {
					errs.Add(1)
					continue
				}
				queries.Add(1)
				if !reflect.DeepEqual(got.Rows, wants[i].Rows) {
					wrong.Add(1)
				}
			}
		}(w)
	}

	ctx := context.Background()
	// Force genuine overlap: before each membership change, wait until the
	// readers have pushed more queries through (the data is frozen, so the
	// expected answers never change).
	waitTraffic := func() {
		target := queries.Load() + 50
		for queries.Load()+errs.Load()*50 < target {
		}
	}
	waitTraffic()
	m.subject.AddServer(olap.NewServer("joined-4"))
	if _, err := m.subject.Rebalance(ctx); err != nil {
		t.Fatal(err)
	}
	waitTraffic()
	m.subject.AddServer(olap.NewServer("joined-5"))
	if _, err := m.subject.Rebalance(ctx); err != nil {
		t.Fatal(err)
	}
	waitTraffic()
	if _, err := m.subject.DecommissionServer(ctx, 0); err != nil {
		t.Fatal(err)
	}
	waitTraffic()
	if _, err := m.subject.DecommissionServer(ctx, 4); err != nil {
		t.Fatal(err)
	}
	waitTraffic()
	close(stop)
	wg.Wait()

	if queries.Load() == 0 {
		t.Fatal("no queries overlapped the churn")
	}
	if n := errs.Load(); n != 0 {
		t.Fatalf("%d query errors during churn, want 0", n)
	}
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d divergent answers during churn, want 0", n)
	}
}
