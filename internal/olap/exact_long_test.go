package olap

import (
	"testing"

	"repro/internal/reftest"
	"repro/internal/sqlparse"
)

// TestLongsAboveTwoTo53SurviveSeal: a sealed dictionary holds a long column
// as int64, so a long keeps its exact value when its segment seals — rows of
// 2^53+1 and 2^53+3 select the same int64 values from the consuming store
// and from the sealed segment, plain, inverted and sorted on the column —
// and =, !=, range, IN and GROUP BY on such longs answer as the reference
// does: a long compares as its float64, as record.Compare has it, so 2^53
// and 2^53+1 are one value to a filter and to a group.
func TestLongsAboveTwoTo53SurviveSeal(t *testing.T) {
	const big = int64(1) << 53
	vals := []int64{big, big + 1, big + 2, big + 3, big + 4, -big - 1, 7}
	rows := orderRows(21)
	exact := map[string]int64{}
	for i, r := range rows {
		r["items"] = vals[i%len(vals)]
		exact[r["order_id"].(string)] = vals[i%len(vals)]
	}
	schema := ordersSchema()
	table := reftest.NewTable(schema, false)
	m := newMutableSegment("m", schema, len(rows), nil)
	for _, r := range rows {
		table.Put(r)
		if _, err := m.add(r); err != nil {
			t.Fatal(err)
		}
	}
	db := reftest.DB{"orders": table}
	scans := map[string]*scanSet{"consuming": m.snapshot()}
	for name, cfg := range map[string]IndexConfig{
		"sealed": {}, "inverted": {InvertedColumns: []string{"items"}}, "sorted": {SortedColumn: "items"},
	} {
		seg, err := m.seal(cfg, -1)
		if err != nil {
			t.Fatal(err)
		}
		scans[name] = seg.scan()
	}

	queries := []*reftest.Query{
		mustParse(t, "SELECT order_id, items FROM orders"),
		mustParse(t, "SELECT items, COUNT(*) AS n, MAX(amount) AS top FROM orders GROUP BY items"),
	}
	for op := sqlparse.CmpEq; op <= sqlparse.CmpBetween; op++ {
		for _, lit := range []any{big + 1, big + 3, float64(big), float64(big + 4), int64(7)} {
			p := sqlparse.Predicate{Column: "items", Op: op, Value: lit}
			switch op {
			case sqlparse.CmpBetween:
				p.Value2 = big + 3
			case sqlparse.CmpIn:
				p.Value, p.Values = nil, []any{lit, big + 2}
			}
			q := mustParse(t, "SELECT order_id, items FROM orders")
			q.Where = []sqlparse.Predicate{p}
			queries = append(queries, q)
		}
	}
	for name, sc := range scans {
		for _, rq := range queries {
			q := FromReference(rq)
			p, err := sc.executePartial(q, nil, nil)
			var res *QueryResponse
			if err == nil {
				res, err = p.Finalize(q)
			}
			if err == nil {
				err = db.Check(rq, res.Batch.Columns, rowsOf(res))
			}
			if err != nil {
				t.Fatalf("%s: %s: %v", name, rq, err)
			}
			if len(rq.GroupBy) > 0 {
				continue
			}
			for _, row := range rowsOf(res) {
				if got, ok := row[1].(int64); !ok || got != exact[row[0].(string)] {
					t.Fatalf("%s: %s: %s has items %#v, want int64 %d", name, rq, row[0], row[1], exact[row[0].(string)])
				}
			}
		}
	}
}
