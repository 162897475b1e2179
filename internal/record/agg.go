package record

import "repro/internal/metadata"

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

// FinalType is the type of the aggregation's result column: long for COUNT
// and DISTINCTCOUNT, double for the others.
func (k AggKind) FinalType() metadata.FieldType {
	if k == AggCount || k == AggDistinctCount {
		return metadata.TypeLong
	}
	return metadata.TypeDouble
}

// AppendFinal appends the aggregation's result cell to v, a vector of
// kind.FinalType() — the one writer of a result cell, so a pushed-down
// aggregate and the engine-side fallback answer alike: Count as a long for
// COUNT (and DISTINCTCOUNT, whose caller puts the set's size in Count), Final
// as a double for the others, SQL NULL as Final has it.
func (a *Agg) AppendFinal(v *Vector, kind AggKind) {
	switch f, null := a.Final(kind); {
	case null:
		v.AppendNulls(1)
	case kind == AggCount || kind == AggDistinctCount:
		v.Ints = append(v.Ints, a.Count)
	default:
		v.Floats = append(v.Floats, f)
	}
}
