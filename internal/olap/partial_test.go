package olap

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/record"
)

// TestPartialAllocations: the group table costs no heap object per group.
// At 1 000 and at BatchRows+1 000 distinct keys it measures a segment's
// ExecutePartial — sealed, and a consuming store grouped by its raw long
// column — a Merge of two partials with disjoint and with equal key sets,
// and a Finalize under ORDER BY … LIMIT 10; and the same for an ordered
// selection over the same rows, plus its trimmed scan. The groups or rows
// the larger size adds may cost at most 0.02 allocations each: amortized
// growth of the table's arrays and index, never an object per group or row.
func TestPartialAllocations(t *testing.T) {
	q := &Query{GroupBy: []string{"items"},
		Aggs:    []AggSpec{{Kind: AggCount, As: "n"}, {Kind: AggSum, Column: "amount", As: "total"}},
		OrderBy: []OrderSpec{{Column: "total", Desc: true}}, Limit: 10}
	sel := &Query{Select: []string{"order_id", "items", "amount"},
		OrderBy: []OrderSpec{{Column: "amount", Desc: true}}, Limit: 10}
	// rows holds two rows of each of keys items from first on.
	rows := func(first, keys int) []record.Record {
		out := make([]record.Record, 2*keys)
		for i := range out {
			out[i] = record.Record{"order_id": fmt.Sprintf("o-%d", i), "city": "sf", "status": "placed",
				"amount": float64(i%97) / 4, "items": int64(first + i%keys), "ts": int64(1_700_000_000_000 + i)}
		}
		return out
	}
	measure := func(keys int) map[string][2]float64 {
		seg, err := BuildSegment("s", ordersSchema(), rows(0, keys), IndexConfig{}, -1)
		if err != nil {
			t.Fatal(err)
		}
		store := storeOf(t, ordersSchema(), rows(0, keys))
		a, err := seg.ExecutePartial(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := store.snapshot().executePartial(q, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		disjoint, err := storeOf(t, ordersSchema(), rows(keys, keys)).snapshot().executePartial(q, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		sa, err := seg.ExecutePartial(sel, nil)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := store.snapshot().executePartial(sel, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Every group's key and states, sealed as consuming: past BatchRows
		// groups the sealed keys are gathered a code block at a time.
		whole := &Query{GroupBy: q.GroupBy, Aggs: q.Aggs}
		if ra, rb := finalized(t, a, whole), finalized(t, b, whole); !reflect.DeepEqual(ra, rb) {
			t.Fatalf("%d keys: the sealed partial's groups differ from the consuming one's", keys)
		}
		merge := func(o *Partial, groups int) func() {
			return func() {
				acc := newPartial(q)
				acc.Merge(a)
				acc.Merge(o)
				if acc.n != groups {
					t.Fatalf("%d groups merged, want %d", acc.n, groups)
				}
			}
		}
		rows := float64(2 * keys)
		// Each case: its allocations, and the groups or rows it holds.
		return map[string][2]float64{
			"ExecutePartial/sealed": {testing.AllocsPerRun(5, func() {
				if _, err := seg.ExecutePartial(q, nil); err != nil {
					t.Fatal(err)
				}
			}), float64(keys)},
			"ExecutePartial/consuming": {testing.AllocsPerRun(5, func() {
				if _, err := store.snapshot().executePartial(q, nil, nil); err != nil {
					t.Fatal(err)
				}
			}), float64(keys)},
			"Merge/disjoint": {testing.AllocsPerRun(5, merge(disjoint, 2*keys)), float64(2 * keys)},
			"Merge/equal":    {testing.AllocsPerRun(5, merge(b, keys)), float64(keys)},
			"Finalize": {testing.AllocsPerRun(5, func() {
				if res, err := a.Finalize(q); err != nil || res.Batch.Len != 10 {
					t.Fatalf("Finalize: %v", err)
				}
			}), float64(keys)},
			"Select/ExecutePartial/sealed": {testing.AllocsPerRun(5, func() {
				if _, err := seg.ExecutePartial(sel, nil); err != nil {
					t.Fatal(err)
				}
			}), rows},
			"Select/ExecutePartial/consuming": {testing.AllocsPerRun(5, func() {
				if _, err := store.snapshot().executePartial(sel, nil, nil); err != nil {
					t.Fatal(err)
				}
			}), rows},
			"Select/trimmed": {testing.AllocsPerRun(5, func() {
				if p, err := seg.executePartialTrim(sel, nil, planTopK(sel, 0)); err != nil || p.n != 10 {
					t.Fatalf("trimmed selection kept %d rows: %v", p.n, err)
				}
			}), rows},
			"Select/Merge": {testing.AllocsPerRun(5, func() {
				acc := newPartial(sel)
				acc.Merge(sa)
				acc.Merge(sb)
				if acc.n != 4*keys {
					t.Fatalf("%d rows merged, want %d", acc.n, 4*keys)
				}
			}), 2 * rows},
			"Select/Finalize": {testing.AllocsPerRun(5, func() {
				if res, err := sa.Finalize(sel); err != nil || res.Batch.Len != 10 {
					t.Fatalf("Finalize: %v", err)
				}
			}), rows},
		}
	}
	small, large := measure(1000), measure(BatchRows+1000)
	for name, l := range large {
		sm := small[name]
		if perGroup := (l[0] - sm[0]) / (l[1] - sm[1]); perGroup > 0.02 {
			t.Errorf("%s: %.0f allocations for %.0f groups or rows, %.0f for %.0f (%.3f per added one), want at most 0.02",
				name, sm[0], sm[1], l[0], l[1], perGroup)
		}
	}
}

// finalized is p's finalized rows under q.
func finalized(t *testing.T, p *Partial, q *Query) [][]any {
	t.Helper()
	res, err := p.Finalize(q)
	if err != nil {
		t.Fatal(err)
	}
	return rowsOf(res)
}

// TestSegmentPartialsFoldTwoCodesOfOneKey: a sealed segment's partial
// leaves the scan in strict key order, trimmed (more groups than groupK) and
// untrimmed. Every fifth row of a partition is 2^53 or 2^53+1, two longs
// that are one float64: one group held under two dictionary codes, which
// the scan, a Merge and the broker each fold into one. Every other row is a
// group of its own, so a trimmed broker answer equals the TrimExact one.
func TestSegmentPartialsFoldTwoCodesOfOneKey(t *testing.T) {
	const big = int64(1) << 53
	rows := func(n int) []record.Record {
		out := make([]record.Record, n)
		for i := range out {
			items := int64(1000 + i)
			if j := i / 2; j%5 == 0 { // j: the row's place in its partition
				items = big + int64(j/5%2)
			}
			out[i] = record.Record{"order_id": fmt.Sprintf("o-%d", i), "city": "sf", "status": "placed",
				"amount": float64(i%8) / 4, "items": items, "ts": int64(1_700_000_000_000 + i)}
		}
		return out
	}
	q := &Query{GroupBy: []string{"items"},
		Aggs:    []AggSpec{{Kind: AggCount, As: "n"}, {Kind: AggSum, Column: "amount", As: "total"}},
		OrderBy: []OrderSpec{{Column: "n", Desc: true}}, Limit: 3}
	seg, err := BuildSegment("s", ordersSchema(), rows(100), IndexConfig{}, -1)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := seg.executePartialTrim(q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if whole.n != 81 || !inKeyOrder(whole) {
		t.Fatalf("untrimmed: %d rows, in key order %v; want 81 (two codes of one key folded), in order", whole.n, inKeyOrder(whole))
	}
	if got := finalized(t, whole, q)[0]; got[0] != big || got[1] != int64(20) {
		t.Errorf("untrimmed partial's top group %v, want 2^53 with 20 rows", got)
	}
	tp := planTopK(q, 10)
	trimmed, err := seg.executePartialTrim(q, nil, tp)
	if err != nil {
		t.Fatal(err)
	}
	// The two codes fold before the trim cuts: groupK whole groups survive.
	if trimmed.n != tp.groupK || !inKeyOrder(trimmed) || trimmed.stats.GroupsTrimmed != int64(81-tp.groupK) {
		t.Fatalf("trimmed: %d rows, in key order %v, %d trimmed; want %d, in order, %d",
			trimmed.n, inKeyOrder(trimmed), trimmed.stats.GroupsTrimmed, tp.groupK, 81-tp.groupK)
	}
	acc := newPartial(q)
	acc.Merge(trimmed)
	acc.Merge(whole)
	if acc.n != 81 || !inKeyOrder(acc) {
		t.Errorf("merged: %d groups, in key order %v; want 81, in order", acc.n, inKeyOrder(acc))
	}

	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ingestAll(t, d, rows(400), 2) // 8 sealed segments of 50 rows, no consuming tail
	b := NewBroker(d)
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
	if !reflect.DeepEqual(floatClassed(rowsOf(trim)), floatClassed(rowsOf(exact))) {
		t.Errorf("trimmed top-K %v, TrimExact %v", rowsOf(trim), rowsOf(exact))
	}
	if top := floatClassed(rowsOf(exact))[0]; top[0] != big || top[1] != int64(80) {
		t.Errorf("TrimExact's top group %v, want 2^53 with 80 rows", rowsOf(exact)[0])
	}
}

// TestTrimFoldsTwoCodesOfOneKeyFirst: a segment trim ranks whole groups.
// Each partition's 50 rows hold 2^53 and 2^53+1 — one group under two
// dictionary codes — with amount 6 each, and six groups that sum to 10, so
// the group ranks first only when its two codes are folded before the cut.
// A trim of the codes apart keeps five groups of 10 and drops both halves.
// It holds on one sealed segment under planTopK(q, 1) and through a broker
// with TrimSize 1, over two such segments.
func TestTrimFoldsTwoCodesOfOneKeyFirst(t *testing.T) {
	const big = int64(1) << 53
	rows := make([]record.Record, 100)
	for i := range rows {
		j, items, amount := i/2, int64(1+(i/2+4)%6), 1.25 // j: the row's place in its partition
		if j < 2 {
			items, amount = big+int64(j), 6
		}
		rows[i] = record.Record{"order_id": fmt.Sprintf("o-%d", i), "city": "sf", "status": "placed",
			"amount": amount, "items": items, "ts": int64(1_700_000_000_000 + i)}
	}
	q := &Query{GroupBy: []string{"items"}, Aggs: []AggSpec{{Kind: AggSum, Column: "amount", As: "total"}},
		OrderBy: []OrderSpec{{Column: "total", Desc: true}}, Limit: 1}
	var part []record.Record // partition 0's rows
	for i := 0; i < len(rows); i += 2 {
		part = append(part, rows[i])
	}
	seg, err := BuildSegment("s", ordersSchema(), part, IndexConfig{}, -1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := seg.executePartialTrim(q, nil, planTopK(q, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := finalized(t, p, q); p.stats.GroupsTrimmed != 2 || !reflect.DeepEqual(got, [][]any{{big, 12.0}}) {
		t.Errorf("trimmed segment: %v, %d groups trimmed; want [[2^53 12]], 2", got, p.stats.GroupsTrimmed)
	}

	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ingestAll(t, d, rows, 2) // 2 sealed segments of 50 rows, no consuming tail
	res, err := NewBroker(d).Execute(context.Background(), &QueryRequest{Query: q, TrimSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := floatClassed(rowsOf(res)); res.Stats.GroupsTrimmed == 0 || !reflect.DeepEqual(got, floatClassed([][]any{{big, 24.0}})) {
		t.Errorf("broker with TrimSize 1: %v, %d groups trimmed; want [[2^53 24]], some", rowsOf(res), res.Stats.GroupsTrimmed)
	}
}

// TestPartialSizeChargesKeysAndStates: a partial's size, which the cache
// charges, covers the arrays its keys and its states hold, to capacity,
// whether it left a scan or a Merge. A segment scan's partial (keep) is a
// pooled table: 10 groups of two states sit in an array of 32.
func TestPartialSizeChargesKeysAndStates(t *testing.T) {
	rows := make([]record.Record, 50)
	for i := range rows {
		rows[i] = record.Record{"order_id": fmt.Sprintf("o-%d", i), "city": fmt.Sprintf("c%d", i%10), "status": "placed",
			"amount": float64(i), "items": int64(i), "ts": int64(1_700_000_000_000 + i)}
	}
	q := &Query{GroupBy: []string{"city"}, Aggs: []AggSpec{{Kind: AggCount, As: "n"}, {Kind: AggSum, Column: "amount", As: "total"}}}
	seg, err := BuildSegment("s", ordersSchema(), rows, IndexConfig{}, -1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := seg.executePartialTrim(q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// held is what the partial's arrays hold, read from the arrays.
	held := func(p *Partial) int64 {
		n := int64(unsafe.Sizeof(aggState{})) * int64(cap(p.accs))
		for _, v := range p.keys[:cap(p.keys)] {
			n += int64(8*cap(v.Ints) + 8*cap(v.Floats) + int(unsafe.Sizeof(""))*cap(v.Strs) + int(unsafe.Sizeof([]byte{}))*cap(v.Bytes) + cap(v.Null))
		}
		return n
	}
	if p.n != 10 || cap(p.accs) <= len(p.accs) || p.size() < held(p) {
		t.Fatalf("segment partial: %d groups, %d of %d states, size %d; want 10 groups in a larger pooled array, at least %d",
			p.n, len(p.accs), cap(p.accs), p.size(), held(p))
	}
	p.Merge(newPartial(q))
	if p.n != 10 || p.size() < held(p) {
		t.Errorf("after a Merge: %d groups, size %d; want 10, at least %d", p.n, p.size(), held(p))
	}
}

// inKeyOrder reports an aggregation's groups in strict key order.
func inKeyOrder(p *Partial) bool {
	for r := 1; r < p.n; r++ {
		if compareKeys(p, r-1, p, r) >= 0 {
			return false
		}
	}
	return true
}

// TestPartialsEmitInKeyOrder: every grouping form emits its groups in strict
// key order (record.Vector.KeyCompare), which the run merge and Finalize
// without ORDER BY rely on: the code-space form over one and two sealed
// columns with NULL codes, past maxCodeSpace the keyed form, raw consuming
// long and double columns, a dense consuming string column, the star-tree,
// a global aggregate and trimmed scans. The rows hold NULLs, NaN beside -0
// and 0, and 2^53 beside 2^53+1, so a sealed dictionary has two codes of one
// value. An emitter that writes its groups in first-seen order fails it.
func TestPartialsEmitInKeyOrder(t *testing.T) {
	const n = 600
	cities := []string{"sf", "nyc", "la", "chi", "bos"}
	rows := make([]record.Record, n)
	for i := range rows {
		r := record.Record{"order_id": fmt.Sprintf("o-%04d", (i*7919)%n), "city": cities[(i*3)%len(cities)], "status": "placed",
			"amount": float64((i*13)%40) / 4, "items": int64((i * 31) % 290), "ts": int64(1_700_000_000_000 + i)}
		switch i % 11 {
		case 0:
			delete(r, "amount")
		case 3:
			r["amount"] = math.NaN()
			r["items"] = int64(1) << 53
		case 5:
			r["amount"] = math.Copysign(0, -1)
			r["items"] = int64(1)<<53 + 1
		case 7:
			delete(r, "items")
		}
		if i%3 != 0 {
			r["rush"] = i%3 == 1
		}
		rows[i] = r
	}
	aggs := []AggSpec{{Kind: AggCount, As: "n"}, {Kind: AggSum, Column: "amount", As: "total"}}
	by := func(cols ...string) *Query { return &Query{GroupBy: cols, Aggs: aggs} }
	top := func(cols ...string) *Query {
		q := by(cols...)
		q.OrderBy, q.Limit = []OrderSpec{{Column: "n", Desc: true}}, 3
		return q
	}
	sealed, err := BuildSegment("s", ordersSchema(), rows, IndexConfig{}, -1)
	if err != nil {
		t.Fatal(err)
	}
	star, err := BuildSegment("t", ordersSchema(), rows, IndexConfig{StarTree: &StarTreeConfig{
		Dimensions: []string{"city", "status", "items"}, Metrics: []string{"amount"}, MaxLeafRecords: 2}}, -1)
	if err != nil {
		t.Fatal(err)
	}
	// The consuming store takes each row's cells as BuildSegment does: a
	// missing field is NULL.
	schema := ordersSchema()
	m := newMutableSegment("m", schema, n, nil)
	for _, r := range rows {
		vals := make([]record.Value, len(schema.Fields))
		for fi, f := range schema.Fields {
			v, err := record.Coerce(r[f.Name], f.Type)
			if err != nil {
				t.Fatal(err)
			}
			vals[fi] = record.ValueOf(v)
		}
		m.appendRow(vals)
	}
	consuming := m.snapshot()
	for _, c := range []struct {
		name string
		scan func(q *Query, valid *Bitmap, tp *topKPlan) (*Partial, error)
		q    *Query
		trim bool
	}{
		{"code space, one column", sealed.executePartialTrim, by("rush"), false},
		{"code space, one numeric column", sealed.executePartialTrim, by("amount"), false},
		{"code space, two columns", sealed.executePartialTrim, by("rush", "city"), false},
		{"code space, two columns after ties", sealed.executePartialTrim, by("items", "city"), false},
		{"keyed past maxCodeSpace", sealed.executePartialTrim, by("order_id", "items"), false},
		{"raw consuming long", consuming.executePartial, by("items"), false},
		{"raw consuming double", consuming.executePartial, by("amount"), false},
		{"dense consuming string", consuming.executePartial, by("city"), false},
		{"dense and raw consuming", consuming.executePartial, by("city", "items"), false},
		{"raw consuming bool", consuming.executePartial, by("rush"), false},
		{"star-tree", star.executePartialTrim, &Query{Filters: []Filter{{Column: "status", Op: OpEq, Value: "placed"}},
			GroupBy: []string{"city", "items"}, Aggs: aggs}, false},
		{"global", sealed.executePartialTrim, by(), false},
		{"trimmed sealed", sealed.executePartialTrim, top("items"), true},
		{"trimmed consuming", consuming.executePartial, top("amount", "city"), true},
	} {
		var tp *topKPlan
		if c.trim {
			tp = planTopK(c.q, 10)
		}
		p, err := c.scan(c.q, nil, tp)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.name == "star-tree" && p.stats.StarTreeServed != 1 {
			t.Errorf("%s: not served from the tree", c.name)
		}
		if c.trim && p.stats.GroupsTrimmed == 0 {
			t.Errorf("%s: nothing trimmed", c.name)
		}
		if p.n < 1 || c.name != "global" && p.n < 3 {
			t.Errorf("%s: %d groups", c.name, p.n)
		}
		for r := 1; r < p.n; r++ {
			if compareKeys(p, r-1, p, r) >= 0 {
				t.Errorf("%s: group %d %v does not come after group %d %v", c.name, r, keyOf(p, r), r-1, keyOf(p, r-1))
				break
			}
		}
	}
	s := getScratch()
	defer s.put()
	if g := newGrouper(s, []*colView{sealed.scan().col("order_id"), sealed.scan().col("items")}, 1, n); g.table != nil {
		t.Error("order_id × items fits the code space; the keyed form is not reached")
	}
}

// keyOf is row r's key, boxed, for a failure message.
func keyOf(p *Partial, r int) []any {
	key := make([]any, len(p.keys))
	for c := range p.keys {
		key[c] = p.keys[c].Box(r)
	}
	return key
}
