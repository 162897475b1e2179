package olap

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/metadata"
	"repro/internal/objstore"
	"repro/internal/record"
	"repro/internal/reftest"
	"repro/internal/sqlparse"
)

// scratchCase is one query TestScanScratchDoesNotLeak interleaves, with the
// reference's form of it.
type scratchCase struct {
	name string
	rq   *reftest.Query
	q    *Query
	tp   *topKPlan
}

// scratchCases are the five shapes a scan's scratch serves: a code-space
// top-K trimmed in the scan, an untrimmed GROUP BY with DISTINCTCOUNT (its
// sets live in the accumulators), a global aggregate (every slot 0), a
// selection, and a GROUP BY a raw long, which a consuming scan groups
// through the scratch's key index.
func scratchCases(t *testing.T) []scratchCase {
	distinct := mustParse(t, "SELECT city, COUNT(*) AS n FROM orders GROUP BY city")
	// FromReference's kind mapping, inverted: DISTINCTCOUNT has no SQL name.
	distinct.Items = append(distinct.Items, sqlparse.SelectItem{
		Func: sqlparse.FuncCount + sqlparse.FuncKind(AggDistinctCount), Column: "restaurant_id", Alias: "r"})
	cases := []scratchCase{
		{name: "top-K", rq: mustParse(t, "SELECT order_id, SUM(amount) AS total FROM orders GROUP BY order_id ORDER BY total DESC LIMIT 10")},
		{name: "distinct", rq: distinct},
		{name: "global", rq: mustParse(t, "SELECT COUNT(*) AS n, SUM(amount) AS s FROM orders WHERE status = 'placed'")},
		{name: "select", rq: mustParse(t, "SELECT order_id, amount FROM orders WHERE city = 'city_03' AND amount >= 100")},
		{name: "keyed", rq: mustParse(t, "SELECT restaurant_id, COUNT(*) AS n, SUM(amount) AS s FROM orders GROUP BY restaurant_id")},
	}
	for i := range cases {
		cases[i].q = FromReference(cases[i].rq)
		cases[i].tp = planTopK(cases[i].q, 0)
	}
	return cases
}

// TestScanScratchDoesNotLeak: scans that share pooled scratches answer as
// the reference does, whatever ran on the scratch before — a code-space
// top-K, an untrimmed GROUP BY with DISTINCTCOUNT, a global aggregate, a
// selection and a keyed GROUP BY, interleaved over a sealed segment and a consuming store by two
// goroutines at once; a partial an untrimmed scan returned owns its rows,
// so 50 more scans leave its answer as it was; and release, called on a
// scratch directly (sync.Pool need not hand one back), leaves its table and
// accumulators zero, its key index empty and no DISTINCTCOUNT set
// reachable.
func TestScanScratchDoesNotLeak(t *testing.T) {
	rows := benchRows(6_000)
	m := storeOf(t, benchSchema(), rows)
	seg, err := m.seal(benchIndexes, -1)
	if err != nil {
		t.Fatal(err)
	}
	ref := reftest.NewTable(benchSchema(), false)
	for _, r := range rows {
		ref.Put(r)
	}
	db := reftest.DB{"orders": ref}
	cases := scratchCases(t)
	scans := map[string]func() *scanSet{"sealed": seg.scan, "consuming": m.snapshot}
	check := func(c scratchCase, where string, p *Partial) *QueryResponse {
		t.Helper()
		res, err := p.Finalize(c.q)
		if err == nil {
			err = db.Check(c.rq, res.Batch.Columns, rowsOf(res))
		}
		if err != nil {
			t.Errorf("%s on the %s scan: %v", c.name, where, err)
		}
		return res
	}
	scan := func(c scratchCase, where string) *Partial {
		t.Helper()
		p, err := scans[where]().executePartial(c.q, nil, c.tp)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if p := scan(cases[0], "sealed"); p.stats.GroupsTrimmed == 0 {
		t.Fatalf("the top-K case trims nothing (%d groups)", p.n)
	}

	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 24 {
				c, where := cases[(i+w)%len(cases)], []string{"sealed", "consuming"}[(i/len(cases)+w)%2]
				check(c, where, scan(c, where))
			}
		}()
	}
	wg.Wait()

	kept := scan(cases[1], "sealed")
	before := check(cases[1], "sealed", kept)
	for i := range 50 {
		c := cases[i%len(cases)]
		scan(c, []string{"sealed", "consuming"}[i%2])
	}
	if after := check(cases[1], "sealed", kept); !reflect.DeepEqual(rowsOf(before), rowsOf(after)) {
		t.Errorf("an untrimmed partial answers %v after 50 more scans, %v before", rowsOf(after), rowsOf(before))
	}

	// release on one scratch, scan after scan: what it clears is what the
	// next scan assumes.
	s := new(scanScratch)
	for i, c := range append(cases[:2:2], cases[:2]...) {
		sc := scans[[]string{"sealed", "consuming"}[i/2]]()
		ss := &selStream{n: sc.n, s: s, sel: s.sel[:0]}
		p, err := sc.executeAgg(c.q, ss, c.tp)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.ids) == 0 || len(s.accs) == 0 {
			t.Fatalf("%s: the scan used no table entry (%d) or accumulator (%d)", c.name, len(s.ids), len(s.accs))
		}
		if c.name == "distinct" && s.accs[1].distinct == nil {
			t.Fatalf("%s: no DISTINCTCOUNT set in the scratch", c.name)
		}
		s.release()
		for id, slot := range s.table {
			if slot != 0 {
				t.Fatalf("%s: release left table[%d] = %d", c.name, id, slot)
			}
		}
		for i, a := range s.accs[:cap(s.accs)] {
			if a != (aggState{}) {
				t.Fatalf("%s: release left accs[%d] = %+v", c.name, i, a)
			}
		}
		for _, k := range s.keys[:cap(s.keys)] {
			for _, str := range k.Strs[:cap(k.Strs)] {
				if str != "" {
					t.Fatalf("%s: release left the key %q reachable", c.name, str)
				}
			}
		}
		check(c, "released scratch's", p)
	}
	// The keyed form: a consuming scan numbers its raw longs in the
	// scratch's index, which release empties and the next scan reuses.
	keyed := cases[len(cases)-1]
	for range 2 {
		sc := m.snapshot()
		ss := &selStream{n: sc.n, s: s, sel: s.sel[:0]}
		p, err := sc.executeAgg(keyed.q, ss, keyed.tp)
		if err != nil {
			t.Fatal(err)
		}
		if s.index.Len() != p.n || p.n == 0 {
			t.Fatalf("keyed: the scratch's index holds %d keys for %d groups", s.index.Len(), p.n)
		}
		s.release()
		if s.index.Len() != 0 {
			t.Fatalf("keyed: release left %d keys in the index", s.index.Len())
		}
		check(keyed, "released scratch's", p)
	}
}

// TestPartialsRecycled: the group tables a query's producers and broker
// build go back to the pool once their last owner is done, and nothing a
// pooled table held shows in a later answer. A1-shaped (top-10 over
// restaurants, every segment and producer trimmed), A4-shaped (city ×
// status) and DISTINCTCOUNT queries run through brokers with the segment
// cache off and on, interleaved by two goroutines, every answer checked
// against reftest. Then, on one P with the GC off so the pool keeps what is
// put into it, each case runs again over that deployment and over one whose
// only segment is the only run of its producer and of the broker (a single
// adopted run, released once, after Finalize): every table in the pool is
// cleared — no state, DISTINCTCOUNT set or key string left — and none is
// in it twice. The segment cache's partials are shared and never pooled: a
// cached query answers exactly from them after all of that.
func TestPartialsRecycled(t *testing.T) {
	rows := benchRows(6_000)
	ref := reftest.NewTable(benchSchema(), false)
	for _, r := range rows {
		ref.Put(r)
	}
	db := reftest.DB{"orders": ref}
	deploy := func(servers, segmentRows int, rows []record.Record) *Deployment {
		cfg := DeploymentConfig{Table: TableConfig{Name: "orders", Schema: benchSchema(), SegmentRows: segmentRows, Indexes: benchIndexes},
			SegmentStore: objstore.NewMemStore(), Backup: BackupP2P}
		for s := range servers {
			cfg.Servers = append(cfg.Servers, NewServer(fmt.Sprintf("s%d", s)))
		}
		d, err := NewDeployment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ingestAll(t, d, rows, servers)
		d.WaitUploads()
		return d
	}
	d := deploy(2, 1_200, rows) // 2 sealed segments and 600 consuming rows a partition
	plain := NewBrokerWithOptions(d, BrokerOptions{Workers: 2})
	cached := NewBrokerWithOptions(d, BrokerOptions{Workers: 2, CacheMaxBytes: 1 << 24})
	one := NewBroker(deploy(1, 1_000, rows[:1_000]))

	distinct := mustParse(t, "SELECT city, COUNT(*) AS n FROM orders GROUP BY city")
	distinct.Items = append(distinct.Items, sqlparse.SelectItem{
		Func: sqlparse.FuncCount + sqlparse.FuncKind(AggDistinctCount), Column: "restaurant_id", Alias: "r"})
	cases := []scratchCase{
		{name: "A1", rq: mustParse(t, "SELECT restaurant_id, SUM(amount) AS total FROM orders GROUP BY restaurant_id ORDER BY total DESC LIMIT 10")},
		{name: "A4", rq: mustParse(t, "SELECT city, status, COUNT(*) AS n, AVG(amount) AS mean, MAX(amount) AS top FROM orders GROUP BY city, status")},
		{name: "distinct", rq: distinct},
	}
	// MaxSegments gives each request its own result-cache key, so every
	// request scatters; TrimSize 200 trims every segment and producer of A1,
	// and its top 10 stay exact on these rows.
	var budget atomic.Int64
	budget.Store(1 << 20)
	run := func(b *Broker, c scratchCase) *QueryResponse {
		t.Helper()
		res, err := b.Execute(context.Background(), &QueryRequest{Query: FromReference(c.rq), TrimSize: 200, MaxSegments: int(budget.Add(1))})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		return res
	}
	check := func(b *Broker, c scratchCase, rows []record.Record) *QueryResponse {
		t.Helper()
		res := run(b, c)
		want := db
		if len(rows) < 6_000 {
			small := reftest.NewTable(benchSchema(), false)
			for _, r := range rows {
				small.Put(r)
			}
			want = reftest.DB{"orders": small}
		}
		if err := want.Check(c.rq, res.Batch.Columns, rowsOf(res)); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		return res
	}
	if res := check(plain, cases[0], rows); res.Stats.GroupsTrimmed == 0 {
		t.Fatal("A1 trims nothing")
	}

	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 24 {
				check([]*Broker{plain, cached}[(i/len(cases)+w)%2], cases[(i+w)%len(cases)], rows)
			}
		}()
	}
	wg.Wait()

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	drain := func() []*Partial {
		var out []*Partial
		for c := range tables {
			for p, ok := tables[c].Get().(*Partial); ok; p, ok = tables[c].Get().(*Partial) {
				out = append(out, p)
			}
		}
		return out
	}
	pooled := 0
	for _, b := range []*Broker{plain, cached, one} {
		drain()
		for _, c := range cases {
			if b == one {
				check(b, c, rows[:1_000])
			} else {
				check(b, c, rows)
			}
		}
		seen := map[*Partial]bool{}
		for _, p := range drain() {
			if seen[p] {
				t.Fatalf("a table is in the pool twice: released twice")
			}
			seen[p] = true
			if p.n != 0 || len(p.accs) != 0 || len(p.keys) != 0 {
				t.Fatalf("a pooled table holds %d groups, %d states, %d key columns", p.n, len(p.accs), len(p.keys))
			}
			for i, a := range p.accs[:cap(p.accs)] {
				if a != (aggState{}) {
					t.Fatalf("a pooled table's state %d is %+v", i, a)
				}
			}
			for _, k := range p.keys[:cap(p.keys)] {
				if k.Type != metadata.TypeInvalid || slices.ContainsFunc(k.Strs[:cap(k.Strs)], func(s string) bool { return s != "" }) {
					t.Fatalf("a pooled table's key column is %v, its strings %q", k.Type, k.Strs[:cap(k.Strs)])
				}
			}
		}
		pooled += len(seen)
	}
	if pooled == 0 {
		t.Fatal("no query released a table")
	}
	if res := check(cached, cases[1], rows); res.Stats.SegmentsCached == 0 {
		t.Fatal("A4 on the cached broker read no cached partial")
	}
}
