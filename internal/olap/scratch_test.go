package olap

import (
	"reflect"
	"sync"
	"testing"

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

// scratchCases are the four shapes a scan's scratch serves: a code-space
// top-K trimmed in the scan, an untrimmed GROUP BY with DISTINCTCOUNT (its
// sets live in the accumulators), a global aggregate (every slot 0) and a
// selection.
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
	}
	for i := range cases {
		cases[i].q = FromReference(cases[i].rq)
		cases[i].tp = planTopK(cases[i].q, 0)
	}
	return cases
}

// TestScanScratchDoesNotLeak: scans that share pooled scratches answer as
// the reference does, whatever ran on the scratch before — a code-space
// top-K, an untrimmed GROUP BY with DISTINCTCOUNT, a global aggregate and a
// selection, interleaved over a sealed segment and a consuming store by two
// goroutines at once; a partial an untrimmed scan returned owns its rows,
// so 50 more scans leave its answer as it was; and release, called on a
// scratch directly (sync.Pool need not hand one back), leaves its table and
// accumulators zero and no DISTINCTCOUNT set reachable.
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
}
