package matview_test

// The differential harness is the matview gate: random aggregate shapes are
// registered as views over a random table, the reference driver interleaves
// ingests, seals, compactions, offloads and upserts with them, and every
// view-served answer must be one the reference accepts at that point —
// checked against the reference, not against a second run of the system.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/olap"
	"repro/internal/olap/matview"
	"repro/internal/record"
	"repro/internal/reftest"
	"repro/internal/reftest/olapsys"
	"repro/internal/sqlparse"
)

// fromReference returns the reference's aggregation as the OLAP layer's
// query — olap.FromReference, which this package's tests cannot reach, less
// selections, which views do not serve: comparison operators and, from
// COUNT on, aggregate kinds are numbered alike, and GROUP BY columns lead
// the items.
func fromReference(rq *reftest.Query) *olap.Query {
	q := &olap.Query{Table: rq.From.Name, GroupBy: rq.GroupBy, Limit: rq.Limit, Offset: rq.Offset}
	for _, p := range rq.Where {
		q.Filters = append(q.Filters, olap.Filter{Column: p.Column, Op: olap.FilterOp(p.Op), Value: p.Value, Value2: p.Value2, Values: p.Values})
	}
	for _, it := range rq.Items {
		if it.Func != sqlparse.FuncNone {
			q.Aggs = append(q.Aggs, olap.AggSpec{Kind: olap.AggKind(it.Func - sqlparse.FuncCount), Column: it.Column, As: it.Alias})
		}
	}
	for _, o := range rq.OrderBy {
		q.OrderBy = append(q.OrderBy, olap.OrderSpec{Column: o.Column, Desc: o.Desc})
	}
	return q
}

// viewSystem is a deployment as the reference driver drives it, read
// through a broker that serves its registered views.
type viewSystem struct {
	*olapsys.System
	reg *matview.Registry
}

func newViewSystem(t *testing.T, g *reftest.Gen, upsert bool, cfg matview.Config) *viewSystem {
	t.Helper()
	s := &viewSystem{System: olapsys.New(t, g, olapsys.Config{Servers: 3, Replicas: 1, Upsert: upsert, Backup: olap.BackupP2P}, fromReference)}
	s.reg = matview.NewRegistry(s.Deployment, cfg)
	s.Broker = olap.NewBrokerWithOptions(s.Deployment, olap.BrokerOptions{Views: s.reg})
	return s
}

// register registers n random aggregate shapes as views.
func (s *viewSystem) register(t *testing.T, g *reftest.Gen, n int) []*reftest.Query {
	t.Helper()
	shapes := make([]*reftest.Query, n)
	for i := range shapes {
		shapes[i] = g.Aggregation()
		if _, err := s.reg.Register(context.Background(), &olap.QueryRequest{Query: fromReference(shapes[i])}); err != nil {
			t.Fatalf("register %s: %v", shapes[i], err)
		}
	}
	return shapes
}

// check holds the served answer to q to the reference and, with wantHit, to
// a fresh view hit that scanned nothing.
func (s *viewSystem) check(t *testing.T, drv *reftest.Driver, q *reftest.Query, wantHit bool) {
	t.Helper()
	resp, err := s.Execute(q)
	if err == nil {
		err = drv.Want(q).Check(q, resp.Columns, resp.Rows)
	}
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	if st := resp.Stats; wantHit && (st.ViewHit != 1 || st.ViewStalenessMs != 0 || st.RowsScanned != 0 || st.SegmentsScanned != 0) {
		t.Fatalf("%s: want a fresh view hit that scans nothing, got %+v", q, st)
	}
}

// TestDifferentialRandomizedViews is the main gate: 200 random registered
// shapes over an append-only table and 40 rounds of the driver's schedule,
// view reads checked at every observation point and a full sweep at the
// end. Append-only mutations never retract, so every read must be a fresh
// view hit.
func TestDifferentialRandomizedViews(t *testing.T) {
	g := reftest.NewGen(reftest.Seed(t))
	s := newViewSystem(t, g, false, matview.Config{})
	drv := reftest.NewDriver(t, g, 2, 0, s)
	// Enough rows that initial materialization sees sealed and consuming
	// segments on both partitions.
	drv.Ingest(300)
	shapes := s.register(t, g, 200)
	for round := 0; round < 40; round++ {
		drv.Step()
		for i := 0; i < 6; i++ {
			s.check(t, drv, shapes[g.Rng.Intn(len(shapes))], true)
		}
	}
	for _, q := range shapes {
		s.check(t, drv, q, true)
	}
	st := s.reg.Stats()
	if st.Views == 0 || st.Hits == 0 || st.RowsMerged == 0 {
		t.Fatalf("registry did no incremental work: %+v", st)
	}
	if st.Rematerializations != 0 {
		t.Fatalf("append-only run must not re-materialize, stats %+v", st)
	}
}

// TestDifferentialUpsertRetraction exercises the retraction path: an upsert
// table where random batches supersede existing keys, forcing views dirty
// and re-materialized. MaxStaleness is 0, so every served answer is either
// a fresh exact view hit or a cold fall-through — both must be answers the
// reference accepts; the harness waits for freshness after each read so
// hits are actually exercised.
func TestDifferentialUpsertRetraction(t *testing.T) {
	g := reftest.NewGen(reftest.Seed(t) + 1)
	s := newViewSystem(t, g, true, matview.Config{MaxStaleness: 0})
	drv := reftest.NewDriver(t, g, 1, 150, s)
	drv.Ingest(200)
	shapes := s.register(t, g, 30)
	waitFresh := func(q *reftest.Query) {
		t.Helper()
		v := s.reg.View(&olap.QueryRequest{Query: fromReference(q)})
		if v == nil {
			t.Fatal("shape not registered")
		}
		deadline := time.Now().Add(5 * time.Second)
		for !v.Fresh() {
			if time.Now().After(deadline) {
				t.Fatal("view never re-materialized")
			}
			time.Sleep(time.Millisecond)
		}
	}
	for round := 0; round < 25; round++ {
		if g.Rng.Intn(6) == 5 {
			drv.Seal(0)
		} else {
			drv.Ingest(g.Rng.Intn(20) + 5)
		}
		for i := 0; i < 4; i++ {
			q := shapes[g.Rng.Intn(len(shapes))]
			// Mid-re-materialization (a cold fall-through) or already fresh,
			// the answer must be the reference's.
			s.check(t, drv, q, false)
			waitFresh(q)
			s.check(t, drv, q, true)
		}
	}
	for _, q := range shapes {
		waitFresh(q)
		s.check(t, drv, q, true)
	}
	st := s.reg.Stats()
	if st.Rematerializations == 0 {
		t.Fatalf("upsert run must have re-materialized, stats %+v", st)
	}
	if st.Hits == 0 {
		t.Fatalf("upsert run must still serve fresh hits, stats %+v", st)
	}
}

// TestDifferentialConcurrent is the -race smoke: a writer ingesting,
// sealing and compacting continuously while readers serve registered views
// through the broker. Readers assert the linearization invariant — a view
// answer reflects at least every ingest that completed before the read
// began and nothing beyond what has committed by the time it returns — and
// once the writer is done every view answers as the reference does.
func TestDifferentialConcurrent(t *testing.T) {
	g := reftest.NewGen(reftest.Seed(t) + 2)
	s := newViewSystem(t, g, false, matview.Config{})
	drv := reftest.NewDriver(t, g, 2, 0, s)
	drv.Ingest(100)
	count, err := reftest.Parse("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	countShape := &olap.QueryRequest{Query: fromReference(count)}
	if _, err := s.reg.Register(context.Background(), countShape); err != nil {
		t.Fatal(err)
	}
	others := s.register(t, g, 8)
	// The writer's rows, keys 100 on, each on partition key mod 2 as the
	// driver would place them.
	rows := make([]record.Record, 2000)
	for i := range rows {
		rows[i] = g.Row(100 + i)
	}

	// started counts rows whose Ingest has begun, committed those whose
	// Ingest has returned. A view answer observed between them can include
	// the in-flight row (its mutation event lands inside Ingest's critical
	// section, before committed increments), so the window is
	// [committed-before, started-after].
	var started, committed atomic.Int64
	started.Store(100)
	committed.Store(100)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, r := range rows {
			k := 100 + i
			started.Add(1)
			if err := s.Ingest(k%2, r); err != nil {
				t.Error(err)
				return
			}
			committed.Add(1)
			if k%400 == 399 {
				if err := s.Seal(k % 2); err != nil {
					t.Error(err)
					return
				}
				if err := s.Compact(0); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				before := committed.Load()
				resp, err := s.Broker.Execute(context.Background(), countShape)
				if err != nil {
					t.Error(err)
					return
				}
				after := started.Load()
				if resp.Stats.ViewHit != 1 {
					t.Errorf("append-only reads must hit the view: %+v", resp.Stats)
					return
				}
				n := resp.Rows[0][0].(int64)
				if n < before || n > after {
					t.Errorf("count %d outside committed window [%d, %d]", n, before, after)
					return
				}
				if _, err := s.Execute(others[i%len(others)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	<-done
	for _, r := range rows {
		drv.Ref.Put(r)
	}
	for _, q := range append(others, count) {
		s.check(t, drv, q, true)
	}
}
