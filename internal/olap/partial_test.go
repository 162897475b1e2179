package olap

import (
	"fmt"
	"reflect"
	"testing"

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
