package olap

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/metadata"
	"repro/internal/objstore"
	"repro/internal/record"
	"repro/internal/reftest"
)

// topKOrderRows returns n rows whose amounts are a deterministic permutation
// of multiples of 0.25 — unique (so orderings are tie-free) and exactly
// representable in float64 (so sums merge bit-identically in any order).
func topKOrderRows(n int) []record.Record {
	cities := []string{"sf", "nyc", "la", "chi"}
	statuses := []string{"placed", "cooking", "delivered"}
	rows := make([]record.Record, n)
	for i := range rows {
		rows[i] = record.Record{
			"order_id": fmt.Sprintf("o-%05d", i),
			"city":     cities[i%len(cities)],
			"status":   statuses[i%len(statuses)],
			"amount":   float64((i*7919)%n)*0.25 + 0.25, // 7919 is prime: a permutation when gcd(7919,n)=1
			"items":    int64(i%7 + 1),
			"ts":       int64(1700000000000 + i*1000),
		}
	}
	return rows
}

func ingestAll(t *testing.T, d *Deployment, rows []record.Record, partitions int) {
	t.Helper()
	for i, r := range rows {
		if err := d.Ingest(i%partitions, r); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTopKTrimmedMatchesExactUniqueKeys pins the headline property of the
// trimmed path: when every group lives in exactly one segment (unique group
// keys), segment/server trimming is provably exact, ships far fewer
// candidates, and reports the trim in the new stats.
func TestTopKTrimmedMatchesExactUniqueKeys(t *testing.T) {
	rows := topKOrderRows(400)
	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ingestAll(t, d, rows, 2) // 8 sealed segments of 50 rows, no consuming tail
	b := NewBrokerWithOptions(d, BrokerOptions{Workers: 4})
	ctx := context.Background()

	grouped := &Query{
		GroupBy: []string{"order_id"},
		Aggs:    []AggSpec{{Kind: AggSum, Column: "amount", As: "rev"}},
		OrderBy: []OrderSpec{{Column: "rev", Desc: true}},
		Limit:   7,
	}
	exact, err := b.Execute(ctx, &QueryRequest{Query: grouped, TrimExact: true})
	if err != nil {
		t.Fatal(err)
	}
	trim, err := b.Execute(ctx, &QueryRequest{Query: grouped, TrimSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trim.Rows, exact.Rows) {
		t.Errorf("trimmed top-K diverged on unique keys:\n trim %v\nexact %v", trim.Rows, exact.Rows)
	}
	if exact.Stats.GroupsTrimmed != 0 {
		t.Errorf("TrimExact run trimmed %d groups", exact.Stats.GroupsTrimmed)
	}
	if trim.Stats.GroupsTrimmed == 0 {
		t.Error("trimmed run reported no GroupsTrimmed")
	}
	if exact.Stats.GroupsShipped != 400 {
		t.Errorf("exact GroupsShipped = %d, want 400", exact.Stats.GroupsShipped)
	}
	// groupK = max(5*7, 10) = 35 per server, 2 servers.
	if want := int64(2 * GroupTrimK(7, 10)); trim.Stats.GroupsShipped != want {
		t.Errorf("trimmed GroupsShipped = %d, want %d", trim.Stats.GroupsShipped, want)
	}

	selection := &Query{
		Select:  []string{"order_id", "amount"},
		OrderBy: []OrderSpec{{Column: "amount", Desc: true}},
		Limit:   7,
	}
	exactS, err := b.Execute(ctx, &QueryRequest{Query: selection, TrimExact: true})
	if err != nil {
		t.Fatal(err)
	}
	trimS, err := b.Execute(ctx, &QueryRequest{Query: selection})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trimS.Rows, exactS.Rows) {
		t.Errorf("selection heap diverged:\n trim %v\nexact %v", trimS.Rows, exactS.Rows)
	}
	if exactS.Stats.RowsShipped != 400 || exactS.Stats.RowsHeapKept != 0 {
		t.Errorf("exact selection shipped %d rows, heap kept %d; want 400 / 0",
			exactS.Stats.RowsShipped, exactS.Stats.RowsHeapKept)
	}
	if trimS.Stats.RowsShipped != 14 { // 7 per server after the server trim
		t.Errorf("trimmed selection RowsShipped = %d, want 14", trimS.Stats.RowsShipped)
	}
	if trimS.Stats.RowsHeapKept != 7*8 { // 7 kept by each of the 8 segment heaps
		t.Errorf("RowsHeapKept = %d, want 56", trimS.Stats.RowsHeapKept)
	}
}

// TestTrimTiesMatchExact: when the ORDER BY term ties at the LIMIT
// boundary, a trimmed top-K returns the rows TrimExact does. The segment
// trim, the server trim and Finalize break a tie by one rule, ascending
// group value, so "n10" never outranks "n2" as text and a consuming
// string's insertion order or a keyed group's code spelling never decides
// which groups survive. Every group here has one row, so every COUNT ties.
// Ordered selections break a tie by ascending value of the selected
// columns, so neither the cut nor the order servers finish in decides
// which tied rows are returned.
func TestTrimTiesMatchExact(t *testing.T) {
	rows := func(n int) []record.Record {
		out := make([]record.Record, n)
		for i := range out {
			// Strings out of value order, so insertion order is not the answer.
			id := (i*17)%n + 1
			out[i] = record.Record{"order_id": fmt.Sprintf("o-%d", id), "city": "sf", "status": "placed",
				"amount": float64(id) / 4, "items": int64(id), "ts": int64(1_700_000_000_000 + i)}
		}
		return out
	}
	for _, c := range []struct {
		name          string
		rows, segment int
		groupBy       []string
		first         []any // the answer's first column: the least group values
	}{
		{"numeric/consuming", 40, 50, []string{"items"}, []any{int64(1), int64(2)}},
		{"string/consuming", 40, 50, []string{"order_id"}, []any{"o-1", "o-10"}},
		// Four unique columns of 100-row segments: a code space of 101^4,
		// past maxCodeSpace, so the sealed scans group through the key index.
		{"numeric/sealed-hashed", 200, 100, []string{"items", "order_id", "amount", "ts"}, []any{int64(1), int64(2)}},
		{"string/sealed-hashed", 200, 100, []string{"order_id", "items", "amount", "ts"}, []any{"o-1", "o-10"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			d, err := NewDeployment(DeploymentConfig{
				Table:        TableConfig{Name: "orders", Schema: ordersSchema(), SegmentRows: c.segment},
				Servers:      []*Server{NewServer("s0")},
				SegmentStore: objstore.NewMemStore(),
				Backup:       BackupP2P,
			})
			if err != nil {
				t.Fatal(err)
			}
			ingestAll(t, d, rows(c.rows), 1)
			b := NewBroker(d)
			q := &Query{GroupBy: c.groupBy, Aggs: []AggSpec{{Kind: AggCount, As: "n"}},
				OrderBy: []OrderSpec{{Column: "n", Desc: true}}, Limit: 2}
			exact, err := b.Execute(context.Background(), &QueryRequest{Query: q, TrimExact: true})
			if err != nil {
				t.Fatal(err)
			}
			trim, err := b.Execute(context.Background(), &QueryRequest{Query: q, TrimSize: 10})
			if err != nil {
				t.Fatal(err)
			}
			if trim.Stats.GroupsTrimmed == 0 {
				t.Fatal("the trimmed run trimmed nothing")
			}
			if !reflect.DeepEqual(trim.Rows, exact.Rows) {
				t.Errorf("trimmed top-K %v, TrimExact %v", trim.Rows, exact.Rows)
			}
			for i, row := range exact.Rows {
				if row[0] != c.first[i] {
					t.Errorf("TrimExact %v: ties not broken by ascending group value, want first column %v", exact.Rows, c.first)
					break
				}
			}
		})
	}

	// The ORDER BY key takes five values, so a fifth of the rows tie for
	// first place and the LIMIT cuts through them. 50-row segments on two
	// servers: 80 rows stay consuming, 400 seal.
	for _, c := range []struct {
		name, by string
		rows     int
	}{
		{"select/numeric/consuming", "items", 80},
		{"select/string/consuming", "status", 80},
		{"select/numeric/sealed", "items", 400},
		{"select/string/sealed", "status", 400},
	} {
		t.Run(c.name, func(t *testing.T) {
			recs := rows(c.rows)
			for _, r := range recs {
				id := int(r["items"].(int64))
				r["items"], r["status"] = int64(id%5), []string{"a", "b", "c", "d", "e"}[id%5]
			}
			d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
			ingestAll(t, d, recs, 2)
			b := NewBrokerWithOptions(d, BrokerOptions{Workers: 4})
			q := &Query{Select: []string{"order_id", c.by, "amount"},
				OrderBy: []OrderSpec{{Column: c.by, Desc: true}}, Limit: 7, Offset: 2}
			// The answer: the key descending, then order_id ascending as text.
			slices.SortFunc(recs, func(x, y record.Record) int {
				if k := record.Compare(y[c.by], x[c.by]); k != 0 {
					return k
				}
				return strings.Compare(x["order_id"].(string), y["order_id"].(string))
			})
			var want [][]any
			for _, r := range recs[q.Offset : q.Offset+q.Limit] {
				want = append(want, []any{r["order_id"], r[c.by], r["amount"]})
			}
			for run := range 30 {
				for _, exact := range []bool{true, false} {
					res, err := b.Execute(context.Background(), &QueryRequest{Query: q, TrimExact: exact})
					if err != nil {
						t.Fatal(err)
					}
					if !exact && res.Stats.RowsHeapKept == 0 {
						t.Fatal("the trimmed run cut nothing")
					}
					if !reflect.DeepEqual(res.Rows, want) {
						t.Fatalf("run %d, TrimExact %v: %v, want %v", run, exact, res.Rows, want)
					}
				}
			}
		})
	}
}

// randomTopKQuery draws one ORDER BY/LIMIT query shape: grouped on a
// unique key (trim provably exact), grouped on a low-cardinality key (trim
// never kicks in), or an ordered selection — with random direction, limit,
// offset and an optional filter.
func randomTopKQuery(t *testing.T, rng *rand.Rand) *reftest.Query {
	where, dir := "", []string{"", " DESC"}[rng.Intn(2)]
	if rng.Intn(3) == 0 {
		where = fmt.Sprintf(" WHERE city = '%s'", []string{"sf", "nyc"}[rng.Intn(2)])
	}
	var sql string
	switch rng.Intn(3) {
	case 0: // high-cardinality group-by: every group lives in one segment
		sql = fmt.Sprintf("SELECT order_id, %s(amount) AS m FROM orders%s GROUP BY order_id ORDER BY m%s",
			[]string{"SUM", "AVG", "MAX"}[rng.Intn(3)], where, dir)
	case 1: // low-cardinality group-by: fewer groups than any trim budget
		sql = fmt.Sprintf("SELECT city, %s AS m FROM orders%s GROUP BY city ORDER BY m%s",
			[]string{"SUM(amount)", "AVG(amount)", "COUNT(*)"}[rng.Intn(3)], where, dir)
	default: // ordered selection
		sql = fmt.Sprintf("SELECT order_id, amount FROM orders%s ORDER BY %s%s", where, []string{"order_id", "amount"}[rng.Intn(2)], dir)
	}
	q := mustParse(t, fmt.Sprintf("%s LIMIT %d", sql, 1+rng.Intn(15)))
	q.Offset = rng.Intn(4)
	return q
}

// TestTopKRandomizedEquivalence is the randomized equivalence matrix over
// generated queries: both TrimExact and the default trimmed path answer as
// the reference does on low-skew data (unique or low-cardinality group
// keys). Runs with a parallel worker pool, so -race exercises the trim path
// concurrently.
func TestTopKRandomizedEquivalence(t *testing.T) {
	rows := topKOrderRows(360)
	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ingestAll(t, d, rows, 2) // sealed segments plus a 30-row consuming tail per partition
	ref := reftest.NewTable(ordersSchema(), false)
	for _, r := range rows {
		ref.Put(r)
	}
	db := reftest.DB{"orders": ref}
	b := NewBrokerWithOptions(d, BrokerOptions{Workers: 4})
	rng := rand.New(rand.NewSource(reftest.Seed(t)))
	for i := 0; i < 60; i++ {
		rq := randomTopKQuery(t, rng)
		for _, req := range []*QueryRequest{{Query: FromReference(rq), TrimExact: true}, {Query: FromReference(rq), TrimSize: 25}} {
			got, err := b.Execute(context.Background(), req)
			if err == nil {
				err = db.Check(rq, got.Columns, got.Rows)
			}
			if err != nil {
				t.Errorf("query %d %s (TrimExact %v): %v", i, rq, req.TrimExact, err)
			}
		}
	}
}

// TestQueryOffsetPagination checks Limit+Offset pagination: pages stitched
// together must reproduce the unpaginated prefix, on both the trimmed and
// exact paths (heaps keep Limit+Offset candidates).
func TestQueryOffsetPagination(t *testing.T) {
	rows := topKOrderRows(200)
	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ingestAll(t, d, rows, 2)
	b := NewBroker(d)
	ctx := context.Background()
	base := &Query{
		GroupBy: []string{"order_id"},
		Aggs:    []AggSpec{{Kind: AggSum, Column: "amount", As: "rev"}},
		OrderBy: []OrderSpec{{Column: "rev", Desc: true}},
		Limit:   10,
	}
	full, err := b.Execute(ctx, &QueryRequest{Query: base, TrimExact: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, trimExact := range []bool{false, true} {
		var paged [][]any
		for off := 0; off < 10; off += 5 {
			q := *base
			q.Limit, q.Offset = 5, off
			resp, err := b.Execute(ctx, &QueryRequest{Query: &q, TrimExact: trimExact})
			if err != nil {
				t.Fatal(err)
			}
			paged = append(paged, resp.Rows...)
		}
		if !reflect.DeepEqual(paged, full.Rows) {
			t.Errorf("trimExact=%v: stitched pages != top-10:\n got %v\nwant %v", trimExact, paged, full.Rows)
		}
	}

	// Unordered Limit+Offset over consuming (unsealed) rows: the row-scan
	// early stop must gather Limit+Offset rows so the page is full —
	// regression for the consuming-path offset bug.
	dc, _ := newDeployment(t, 1, 1, false, BackupP2P, nil)
	ingestAll(t, dc, topKOrderRows(30), 1) // stays below the 50-row seal threshold
	page, err := NewBroker(dc).Execute(context.Background(), &QueryRequest{Query: &Query{Select: []string{"order_id"}, Limit: 10, Offset: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Rows) != 10 {
		t.Errorf("consuming-path page = %d rows, want 10 (offset 5 of 30)", len(page.Rows))
	}

	// A global aggregate over zero rows answers one row (COUNT 0), which
	// OFFSET skips like any other.
	for name, dep := range map[string]*Deployment{"sealed": d, "consuming": dc} {
		for off, want := range []int{1, 0} {
			q := &Query{Aggs: []AggSpec{{Kind: AggCount}}, Filters: []Filter{{Column: "order_id", Op: OpEq, Value: "none"}}, Offset: off}
			resp, err := NewBroker(dep).Execute(ctx, &QueryRequest{Query: q})
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Rows) != want {
				t.Errorf("%s: COUNT(*) of no rows, OFFSET %d = %v, want %d rows", name, off, resp.Rows, want)
			}
		}
	}
}

// scoresSchema has a nullable numeric column, so groups can have zero
// non-null values — the NULL-semantics bugfix surface.
func scoresSchema() *metadata.Schema {
	return &metadata.Schema{
		Name:    "scores",
		Version: 1,
		Fields: []metadata.Field{
			{Name: "order_id", Type: metadata.TypeString},
			{Name: "city", Type: metadata.TypeString, Dimension: true},
			{Name: "score", Type: metadata.TypeDouble, Nullable: true},
			{Name: "ts", Type: metadata.TypeTimestamp},
		},
		TimeField:  "ts",
		PrimaryKey: "order_id",
	}
}

func scoreRows(n int) []record.Record {
	rows := make([]record.Record, n)
	for i := range rows {
		r := record.Record{
			"order_id": fmt.Sprintf("s-%03d", i),
			"city":     []string{"scored", "unscored"}[i%2],
			"ts":       int64(1700000000000 + i),
		}
		if i%2 == 0 { // only the "scored" city ever has a score
			r["score"] = float64(i) + 0.5
		}
		rows[i] = r
	}
	return rows
}

// TestAggNullSemantics: MIN/MAX/AVG over zero non-null values must be SQL
// NULL (nil), never a fabricated 0 — while COUNT stays 0 and SUM keeps the
// empty-sum 0. Checked on the sealed-segment path, the consuming-row path,
// and the zero-row global aggregate.
func TestAggNullSemantics(t *testing.T) {
	aggs := []AggSpec{
		{Kind: AggMin, Column: "score"},
		{Kind: AggMax, Column: "score"},
		{Kind: AggAvg, Column: "score"},
		{Kind: AggCount, Column: "score", As: "nonnull"},
		{Kind: AggSum, Column: "score"},
	}
	checkGroups := func(t *testing.T, rows [][]any) {
		t.Helper()
		byCity := map[string][]any{}
		for _, r := range rows {
			byCity[r[0].(string)] = r[1:]
		}
		un, ok := byCity["unscored"]
		if !ok {
			t.Fatalf("unscored group missing: %v", rows)
		}
		if un[0] != nil || un[1] != nil || un[2] != nil {
			t.Errorf("min/max/avg over zero non-null values = %v/%v/%v, want nil/nil/nil", un[0], un[1], un[2])
		}
		if un[3] != int64(0) || un[4] != 0.0 {
			t.Errorf("count/sum over zero non-null values = %v/%v, want 0/0", un[3], un[4])
		}
		if sc := byCity["scored"]; sc[0] == nil || sc[2] == nil {
			t.Errorf("scored group lost its values: %v", sc)
		}
	}

	// Sealed-segment path (dense single-group-by accumulators).
	seg, err := BuildSegment("scores", scoresSchema(), scoreRows(40), IndexConfig{}, -1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := seg.Execute(&Query{GroupBy: []string{"city"}, Aggs: aggs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkGroups(t, res.Rows)

	// Consuming-row path (unsealed deployment) plus the zero-row global
	// aggregate through the broker.
	d, err := NewDeployment(DeploymentConfig{
		Table:   TableConfig{Name: "scores", Schema: scoresSchema(), SegmentRows: 1000, Upsert: false},
		Servers: []*Server{NewServer("s0")},
	})
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, d, scoreRows(40), 1)
	b := NewBroker(d)
	got, err := b.Execute(context.Background(), &QueryRequest{Query: &Query{GroupBy: []string{"city"}, Aggs: aggs}})
	if err != nil {
		t.Fatal(err)
	}
	checkGroups(t, got.Rows)

	empty, err := b.Execute(context.Background(), &QueryRequest{Query: &Query{
		Filters: []Filter{{Column: "city", Op: OpEq, Value: "nowhere"}},
		Aggs:    aggs,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Rows) != 1 {
		t.Fatalf("zero-row global aggregate rows = %v", empty.Rows)
	}
	want := []any{nil, nil, nil, int64(0), 0.0}
	if !reflect.DeepEqual(empty.Rows[0], want) {
		t.Errorf("zero-row global aggregate = %v, want %v", empty.Rows[0], want)
	}
}

// TestStringAggRejected: SUM/AVG/MIN/MAX over string columns must fail with
// a clear validation error instead of silently accumulating 0.0, on the
// single-group-by fast path, the multi-group path, the global path, and the
// consuming-row path — while COUNT/DISTINCTCOUNT over strings keep working.
func TestStringAggRejected(t *testing.T) {
	seg := buildTestSegment(t, orderRows(30), IndexConfig{})
	badKinds := []AggKind{AggSum, AggAvg, AggMin, AggMax}
	shapes := map[string]*Query{
		"single-group-by": {GroupBy: []string{"status"}},
		"multi-group-by":  {GroupBy: []string{"status", "items"}},
		"global":          {},
	}
	for name, shape := range shapes {
		for _, kind := range badKinds {
			q := *shape
			q.Aggs = []AggSpec{{Kind: kind, Column: "city"}}
			_, err := seg.Execute(&q, nil)
			if err == nil || !strings.Contains(err.Error(), "string column") {
				t.Errorf("%s %s(city) on segment: err = %v, want string-column rejection", name, kind, err)
			}
		}
	}

	// Consuming-row path and broker-level validation.
	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ingestOrders(t, d, 30, 2) // stays consuming (threshold 50)
	b := NewBroker(d)
	for _, kind := range badKinds {
		_, err := b.Execute(context.Background(), &QueryRequest{Query: &Query{Aggs: []AggSpec{{Kind: kind, Column: "city"}}}})
		if err == nil || !strings.Contains(err.Error(), "string column") {
			t.Errorf("broker %s(city): err = %v, want string-column rejection", kind, err)
		}
	}

	// COUNT and DISTINCTCOUNT remain valid over strings, everywhere.
	for _, q := range []*Query{
		{Aggs: []AggSpec{{Kind: AggCount, Column: "city"}, {Kind: AggDistinctCount, Column: "city"}}},
		{GroupBy: []string{"status"}, Aggs: []AggSpec{{Kind: AggDistinctCount, Column: "city"}}},
	} {
		if _, err := seg.Execute(q, nil); err != nil {
			t.Errorf("segment count/distinctcount over strings: %v", err)
		}
		if _, err := b.Execute(context.Background(), &QueryRequest{Query: q}); err != nil {
			t.Errorf("broker count/distinctcount over strings: %v", err)
		}
	}
}
