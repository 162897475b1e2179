package flow

import (
	"math"
	"testing"

	"repro/internal/record"
)

// FuzzRestoreOperators feeds the window, join and reduce operators' Restore
// the bytes a checkpoint store could hand back: a snapshot that does not
// restore is an error, never a panic, and an operator that restores takes a
// row, fires, evicts and snapshots again without one.
func FuzzRestoreOperators(f *testing.F) {
	ops := []func() Operator{
		func() Operator {
			w := NewWindowAggOp(60_000, 0, "city", Aggregation{Kind: record.AggCount, As: "n"}, Aggregation{Kind: record.AggSum, Field: "v", As: "total"})
			w.CarryColumns = []string{"ts"}
			return w
		},
		func() Operator { return NewIntervalJoinOp(1000) },
		func() Operator {
			return NewReduceOp(func(acc record.Record, e Event) record.Record {
				if acc == nil {
					acc = record.Record{}
				}
				acc["n"] = acc.Long("n") + 1
				return acc
			})
		},
	}
	in := rows(4, base)
	for _, newOp := range ops {
		op := newOp()
		for i, r := range in {
			op.ProcessElement(Event{Key: "sf", Time: base + int64(i), Source: i % 2, Row: r}, func(Event) {})
		}
		snap, err := op.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(snap)
	}
	f.Add([]byte(headWindowSnapshot))
	f.Add([]byte(headJoinSnapshot))
	f.Add([]byte(`{"sf":{"n":2,"city":"sf"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, newOp := range ops {
			op := newOp()
			if op.Restore(data) != nil {
				continue
			}
			for i, r := range in {
				op.ProcessElement(Event{Key: "sf", Time: base + int64(i), Source: i % 2, Row: r}, func(e Event) { e.Row.Record() })
			}
			op.OnWatermark(math.MaxInt64, func(e Event) { e.Row.Record() })
			op.Snapshot()
			op.StateBytes()
		}
	})
}
