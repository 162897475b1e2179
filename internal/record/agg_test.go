package record

import (
	"math"
	"testing"
)

// TestAggFinalAndMerge: a state folded from parts and merged answers as the
// state folded from every value, in any grouping, and zero inputs answer as
// SQL does — COUNT 0, SUM 0, MIN, MAX and AVG NULL.
func TestAggFinalAndMerge(t *testing.T) {
	values := []float64{5, -2, 7, 0.5, -2}
	var all Agg
	for _, v := range values {
		all.Add(v)
	}
	want := map[AggKind]any{AggCount: int64(5), AggSum: 8.5, AggMin: -2.0, AggMax: 7.0, AggAvg: 1.7}
	for cut := 0; cut <= len(values); cut++ {
		var left, right, empty Agg
		for _, v := range values[:cut] {
			left.Add(v)
		}
		for _, v := range values[cut:] {
			right.Add(v)
		}
		left.Merge(empty)
		empty.Merge(right)
		left.Merge(empty)
		if left != all {
			t.Errorf("cut %d: merged %+v, folded %+v", cut, left, all)
		}
	}
	final := func(a *Agg, kind AggKind) any {
		var v Vector
		v.Reset(kind.FinalType())
		a.AppendFinal(&v, kind)
		return v.Box(0)
	}
	var none Agg
	for kind, w := range want {
		if got := final(&all, kind); got != w {
			t.Errorf("%s = %v, want %v", kind, got, w)
		}
		got := final(&none, kind)
		if null := got == nil; null != (kind != AggCount && kind != AggSum) {
			t.Errorf("%s over no input = %v", kind, got)
		}
	}
	if f, null := none.Final(AggAvg); !null || !math.IsNaN(f) {
		t.Errorf("AVG over no input: %v, %v", f, null)
	}
	for kind, name := range map[AggKind]string{AggCount: "count", AggSum: "sum", AggMin: "min", AggMax: "max", AggAvg: "avg", AggDistinctCount: "distinctcount"} {
		if kind.String() != name {
			t.Errorf("%d names %q, want %q", kind, kind, name)
		}
	}
}
