package record

// AggKind enumerates the aggregation functions, one list for every engine
// that folds them: the streaming windows, the OLAP partials and star-tree,
// and the federated engine.
type AggKind int

const (
	// AggCount counts rows (no column) or non-NULL values.
	AggCount AggKind = iota
	// AggSum sums a numeric column.
	AggSum
	// AggMin takes the minimum.
	AggMin
	// AggMax takes the maximum.
	AggMax
	// AggAvg averages. It is carried as a SUM+COUNT pair so partial results
	// merge exactly across segments and servers.
	AggAvg
	// AggDistinctCount counts distinct non-NULL values. Agg does not carry
	// the value set; the OLAP layer keeps it beside the Agg.
	AggDistinctCount
)

// String names the aggregation as it appears in result columns.
func (k AggKind) String() string {
	switch k {
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	case AggDistinctCount:
		return "distinctcount"
	default:
		return "count"
	}
}

// Agg is the running state of one aggregation over the non-NULL values it
// was shown: their count, sum, minimum and maximum. A caller skips NULL
// inputs, and COUNT(*) adds to Count directly. Agg merges associatively and
// commutatively, so states fold in any grouping or order. The field names
// are the JSON a window checkpoints its states in.
type Agg struct {
	Count int64
	Sum   float64
	Min   float64
	Max   float64
}

// Add folds one non-NULL value in.
func (a *Agg) Add(v float64) {
	if a.Count == 0 {
		a.Min, a.Max = v, v
	} else {
		if v < a.Min {
			a.Min = v
		}
		if v > a.Max {
			a.Max = v
		}
	}
	a.Count++
	a.Sum += v
}

// Merge folds another state in.
func (a *Agg) Merge(o Agg) {
	switch {
	case o.Count == 0:
	case a.Count == 0:
		*a = o
	default:
		a.Count += o.Count
		a.Sum += o.Sum
		if o.Min < a.Min {
			a.Min = o.Min
		}
		if o.Max > a.Max {
			a.Max = o.Max
		}
	}
}

// Final is the aggregation's value as a float64, or SQL NULL: MIN, MAX and
// AVG over zero values are NULL, never a fabricated 0; only COUNT (0) and
// SUM (the empty sum, 0) have zero-input values.
func (a *Agg) Final(kind AggKind) (f float64, null bool) {
	switch kind {
	case AggSum:
		return a.Sum, false
	case AggMin:
		return a.Min, a.Count == 0
	case AggMax:
		return a.Max, a.Count == 0
	case AggAvg:
		return a.Sum / float64(a.Count), a.Count == 0
	default:
		return float64(a.Count), false
	}
}

// Value is Final boxed as a result cell: nil for NULL, COUNT's int64, and
// every other aggregation's float64.
func (a *Agg) Value(kind AggKind) any {
	switch f, null := a.Final(kind); {
	case null:
		return nil
	case kind == AggCount:
		return a.Count
	default:
		return f
	}
}
