package olap

import (
	"context"
	"fmt"
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
				if res, err := a.Finalize(q); err != nil || len(res.Rows) != 10 {
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
				if res, err := sa.Finalize(sel); err != nil || len(res.Rows) != 10 {
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
	return res.Rows
}

// TestSegmentPartialsLeaveUnindexed: a sealed segment's partial leaves the
// scan unindexed, trimmed (more groups than groupK) and untrimmed, and is
// indexed where a key is first looked up. Every fifth row of a partition is
// 2^53 or 2^53+1, two longs that are one float64: one group held under two
// dictionary codes, which Finalize of the bare partial, a Merge and the
// broker each fold into one. Every other row is a group of its own, so a
// trimmed broker answer equals the TrimExact one.
func TestSegmentPartialsLeaveUnindexed(t *testing.T) {
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
	if whole.n != 82 || whole.index.Len() != 0 {
		t.Fatalf("untrimmed: %d rows, %d indexed; want 82 (two of one key), none indexed", whole.n, whole.index.Len())
	}
	if got := finalized(t, whole, q)[0]; got[0] != big || got[1] != int64(20) {
		t.Errorf("untrimmed partial's top group %v, want 2^53 with 20 rows", got)
	}
	tp := planTopK(q, 10)
	trimmed, err := seg.executePartialTrim(q, nil, tp)
	if err != nil {
		t.Fatal(err)
	}
	if trimmed.n != tp.groupK || trimmed.index.Len() != 0 || trimmed.stats.GroupsTrimmed != int64(82-tp.groupK) {
		t.Fatalf("trimmed: %d rows, %d indexed, %d trimmed; want %d, none, %d",
			trimmed.n, trimmed.index.Len(), trimmed.stats.GroupsTrimmed, tp.groupK, 82-tp.groupK)
	}
	acc := newPartial(q)
	acc.Merge(trimmed)
	if acc.n != tp.groupK-1 || acc.index.Len() != acc.n || trimmed.index.Len() != 0 {
		t.Errorf("merge target: %d groups, %d indexed, argument %d indexed; want %d, all, none",
			acc.n, acc.index.Len(), trimmed.index.Len(), tp.groupK-1)
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
	if !reflect.DeepEqual(floatClassed(trim.Rows), floatClassed(exact.Rows)) {
		t.Errorf("trimmed top-K %v, TrimExact %v", trim.Rows, exact.Rows)
	}
	if top := floatClassed(exact.Rows)[0]; top[0] != big || top[1] != int64(80) {
		t.Errorf("TrimExact's top group %v, want 2^53 with 80 rows", exact.Rows[0])
	}
}

// TestPartialSizeChargesABuiltIndexOnly: a segment's partial enters the
// cache unindexed, so its size charges its keys and states and no index;
// once a Merge into it builds the index, the index is charged too.
func TestPartialSizeChargesABuiltIndexOnly(t *testing.T) {
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
	if p.n != 10 || p.index.Len() != 0 {
		t.Fatalf("segment partial: %d groups, %d indexed; want 10, none", p.n, p.index.Len())
	}
	unindexed := int64(128 + int(unsafe.Sizeof(aggState{}))*len(p.accs))
	for c := range p.keys {
		unindexed += p.keys[c].Size()
	}
	if got := p.size(); got != unindexed {
		t.Errorf("unindexed size = %d, want %d: keys and states, no index", got, unindexed)
	}
	p.Merge(newPartial(q))
	if p.index.Len() != p.n {
		t.Fatalf("after a Merge: %d of %d groups indexed", p.index.Len(), p.n)
	}
	if got := p.size(); got < unindexed+48*int64(p.n) {
		t.Errorf("indexed size = %d, want at least %d: the index is charged", got, unindexed+48*int64(p.n))
	}
}
