package olap_test

// The elasticity differential harness: three deployments receive one
// randomized schedule of ingests, seals (some held in flight while rows and
// queries arrive), compactions and offloads from the reference driver — a
// fixed topology with peer-to-peer backup, and two elastic ones with
// centralized backup whose membership also churns (AddServer,
// DecommissionServer, Rebalance), the second behind a broker cache — and
// every answer of each must be one the reference accepts: zero errors, zero
// wrong answers. Every query is checked twice: the cached system answers the
// second from the per-segment partials the first left (olapsys.Config).

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/olap"
	"repro/internal/reftest"
	"repro/internal/reftest/olapsys"
)

func newSystem(t *testing.T, g *reftest.Gen, servers int, upsert bool, backup olap.BackupMode) *olapsys.System {
	t.Helper()
	return olapsys.New(t, g, olapsys.Config{Servers: servers, Replicas: 2, Upsert: upsert, Backup: backup}, olap.FromReference)
}

// newCachedSystem is newSystem with centralized backup behind a broker
// cache.
func newCachedSystem(t *testing.T, g *reftest.Gen, servers int, upsert bool) *olapsys.System {
	t.Helper()
	cfg := olapsys.Config{Servers: servers, Replicas: 2, Upsert: upsert, Backup: olap.BackupCentralized, CacheMaxBytes: 16 << 20}
	return olapsys.New(t, g, cfg, olap.FromReference)
}

// checkTwice checks q on every system twice in a row.
func checkTwice(drv *reftest.Driver, q *reftest.Query) {
	drv.Check(q)
	drv.Check(q)
}

// elastic is a system whose membership the driver churns.
type elastic struct {
	*olapsys.System
	changes int
}

// Churn joins a server (and rebalances onto it) while three or fewer are
// active, or at random below eight; otherwise decommissions an active one.
func (e *elastic) Churn(rng *rand.Rand) error {
	var active []int
	for i := 0; i < e.NumServers(); i++ {
		if !e.Decommissioned(i) {
			active = append(active, i)
		}
	}
	ctx := context.Background()
	if len(active) <= 3 || rng.Intn(2) == 0 {
		if e.NumServers() >= 8 {
			return nil
		}
		e.changes++
		e.AddServer(olap.NewServer(fmt.Sprintf("joined-%d", e.NumServers())))
		_, err := e.Rebalance(ctx)
		return err
	}
	e.changes++
	_, err := e.DecommissionServer(ctx, active[rng.Intn(len(active))])
	return err
}

// TestDifferentialElasticity is the membership-churn gate: 30 randomized
// rounds of the driver's schedule, the elastic deployment also joining and
// decommissioning servers, with queries checked after every round.
func TestDifferentialElasticity(t *testing.T) {
	g := reftest.NewGen(reftest.Seed(t))
	const partitions = 3
	moving := &elastic{System: newSystem(t, g, 3, false, olap.BackupCentralized)}
	cached := &elastic{System: newCachedSystem(t, g, 3, false)}
	drv := reftest.NewDriver(t, g, partitions, 0, newSystem(t, g, 3, false, olap.BackupP2P), moving, cached)
	drv.Ingest(250)
	for round := 0; round < 30; round++ {
		if g.Rng.Intn(5) == 0 {
			drv.SealMidway(g.Rng.Intn(partitions), 5+g.Rng.Intn(20), g.Query(), g.Query())
		} else {
			drv.Step()
		}
		if g.Rng.Intn(3) == 0 {
			drv.Churn()
		}
		for i := 0; i < 6; i++ {
			checkTwice(drv, g.Query())
		}
	}
	if moving.changes == 0 || cached.changes == 0 {
		t.Fatal("churn schedule never changed membership")
	}
	// Final sweep on the settled cluster.
	for i := 0; i < 40; i++ {
		checkTwice(drv, g.Query())
	}
	if st := cached.Broker.CacheStats(); st.SegmentHits == 0 {
		t.Fatalf("the cached system never answered from a segment partial: %+v", st)
	}
}

// TestDifferentialElasticityUpsert is the same gate over an upsert table:
// later rows supersede keys — some of them while the seal holding the old
// row is in flight — while the partition-owner anchor (replica slot 0)
// follows a join and a decommission. Every row's latest value is checked
// after every round, and so is the table's row count.
func TestDifferentialElasticityUpsert(t *testing.T) {
	g := reftest.NewGen(reftest.Seed(t) + 1)
	const partitions = 2
	moving := newSystem(t, g, 3, true, olap.BackupCentralized)
	cached := newCachedSystem(t, g, 3, true)
	drv := reftest.NewDriver(t, g, partitions, 120, newSystem(t, g, 3, true, olap.BackupP2P), moving, cached)
	drv.Ingest(200)
	all, err := reftest.Parse("SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	// A fixed aggregate over every row: after a supersede of a sealed row,
	// the cached system must not answer it from the partial the same shape
	// left before.
	count, err := reftest.Parse("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for round := 0; round < 20; round++ {
		switch p := g.Rng.Intn(partitions); g.Rng.Intn(5) {
		case 3:
			drv.Seal(p)
		case 4:
			drv.SealMidway(p, 10, all, g.Query())
		default:
			drv.Ingest(g.Rng.Intn(30) + 10)
		}
		for _, s := range []*olapsys.System{moving, cached} {
			switch round {
			case 6:
				s.AddServer(olap.NewServer("joined-3"))
				if _, err := s.Rebalance(ctx); err != nil {
					t.Fatal(err)
				}
			case 13:
				if _, err := s.DecommissionServer(ctx, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 5; i++ {
			checkTwice(drv, g.Query())
		}
		checkTwice(drv, all)
		checkTwice(drv, count)
	}
	if st := cached.Broker.CacheStats(); st.SegmentHits == 0 {
		t.Fatalf("the cached system never answered from a segment partial: %+v", st)
	}
}

// TestDifferentialElasticityConcurrent is the -race gate: data is frozen,
// reader goroutines continuously check the elastic deployment's answers
// against the reference while servers join, rebalance and decommission
// underneath them. Zero errors, zero wrong answers.
func TestDifferentialElasticityConcurrent(t *testing.T) {
	g := reftest.NewGen(reftest.Seed(t) + 2)
	const partitions = 3
	s := newSystem(t, g, 4, false, olap.BackupP2P)
	drv := reftest.NewDriver(t, g, partitions, 0, s)
	drv.Ingest(700)
	for p := 0; p < partitions; p++ {
		drv.Seal(p)
	}
	drv.Offload(0)

	shapes := make([]*reftest.Query, 12)
	wants := make([]*reftest.Result, len(shapes))
	for i := range shapes {
		shapes[i] = g.Query()
		wants[i] = drv.Want(shapes[i])
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
				cols, rows, err := s.Query(shapes[i])
				if err != nil {
					errs.Add(1)
					continue
				}
				queries.Add(1)
				if err := wants[i].Check(shapes[i], cols, rows); err != nil {
					t.Errorf("%s: %v", shapes[i], err)
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
	s.AddServer(olap.NewServer("joined-4"))
	if _, err := s.Rebalance(ctx); err != nil {
		t.Fatal(err)
	}
	waitTraffic()
	s.AddServer(olap.NewServer("joined-5"))
	if _, err := s.Rebalance(ctx); err != nil {
		t.Fatal(err)
	}
	waitTraffic()
	if _, err := s.DecommissionServer(ctx, 0); err != nil {
		t.Fatal(err)
	}
	waitTraffic()
	if _, err := s.DecommissionServer(ctx, 4); err != nil {
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
		t.Fatalf("%d wrong answers during churn, want 0", n)
	}
}

var _ reftest.Elastic = (*elastic)(nil)
