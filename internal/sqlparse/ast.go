package sqlparse

import (
	"fmt"
	"strings"

	"repro/internal/record"
)

// FuncKind enumerates supported function calls in projections.
type FuncKind int

const (
	// FuncNone marks a plain column reference.
	FuncNone FuncKind = iota
	// FuncCount is COUNT(*) or COUNT(col).
	FuncCount
	// FuncSum is SUM(col).
	FuncSum
	// FuncMin is MIN(col).
	FuncMin
	// FuncMax is MAX(col).
	FuncMax
	// FuncAvg is AVG(col).
	FuncAvg
)

// String names the function in upper case.
func (f FuncKind) String() string {
	switch f {
	case FuncCount:
		return "COUNT"
	case FuncSum:
		return "SUM"
	case FuncMin:
		return "MIN"
	case FuncMax:
		return "MAX"
	case FuncAvg:
		return "AVG"
	default:
		return ""
	}
}

// Agg is the aggregation an aggregate function computes; FuncNone maps to
// COUNT.
func (f FuncKind) Agg() record.AggKind {
	switch f {
	case FuncSum:
		return record.AggSum
	case FuncMin:
		return record.AggMin
	case FuncMax:
		return record.AggMax
	case FuncAvg:
		return record.AggAvg
	default:
		return record.AggCount
	}
}

// SelectItem is one projection: a column, qualified column, or aggregate.
type SelectItem struct {
	// Star marks SELECT *.
	Star bool
	// Func is the aggregate (FuncNone for a plain column).
	Func FuncKind
	// Table qualifies the column ("a" in a.city); empty when unqualified.
	Table string
	// Column is the referenced column ("" for COUNT(*)).
	Column string
	// Alias is the AS name, if any.
	Alias string
}

// OutputName returns the result column name for this item.
func (s SelectItem) OutputName() string {
	if s.Alias != "" {
		return s.Alias
	}
	if s.Func != FuncNone {
		if s.Column == "" {
			return "count"
		}
		return strings.ToLower(s.Func.String()) + "_" + s.Column
	}
	return s.Column
}

// CompareOp enumerates predicate comparison operators.
type CompareOp int

const (
	// CmpEq is =.
	CmpEq CompareOp = iota
	// CmpNe is != or <>.
	CmpNe
	// CmpLt is <.
	CmpLt
	// CmpLe is <=.
	CmpLe
	// CmpGt is >.
	CmpGt
	// CmpGe is >=.
	CmpGe
	// CmpIn is IN (v, ...).
	CmpIn
	// CmpBetween is BETWEEN v AND w.
	CmpBetween
)

// Predicate is one WHERE conjunct: column OP literal(s). Only AND-connected
// predicates are supported, matching the OLAP layer's filter model.
type Predicate struct {
	Table  string
	Column string
	Op     CompareOp
	// Value and Value2 are literals (string or float64); Values for IN.
	Value  any
	Value2 any
	Values []any
}

// Matches evaluates the predicate against its column's value in a row, in
// the shared record.Compare ordering (numeric coercion included). It is the
// reference Compiled.MatchesValue, which both SQL layers filter with, is
// held to (compiled_test.go, FuzzPredicateValue), so a query filters the
// same rows whichever engine runs it. NULL, or a column the row lacks,
// satisfies no predicate.
func (p Predicate) Matches(v any) bool {
	if v == nil {
		return false
	}
	cmp := record.Compare(v, p.Value)
	switch p.Op {
	case CmpEq:
		return cmp == 0
	case CmpNe:
		return cmp != 0
	case CmpLt:
		return cmp < 0
	case CmpLe:
		return cmp <= 0
	case CmpGt:
		return cmp > 0
	case CmpGe:
		return cmp >= 0
	case CmpBetween:
		return cmp >= 0 && record.Compare(v, p.Value2) <= 0
	case CmpIn:
		for _, want := range p.Values {
			if record.Compare(v, want) == 0 {
				return true
			}
		}
	}
	return false
}

// WindowSpec is a streaming window group key: TUMBLE(ts, sizeMs) or
// HOP(ts, slideMs, sizeMs).
type WindowSpec struct {
	// TimeColumn is the event-time column.
	TimeColumn string
	// SizeMs is the window length.
	SizeMs int64
	// SlideMs is the hop (== SizeMs for tumbling).
	SlideMs int64
}

// JoinSpec is FROM a JOIN b ON a.x = b.y.
type JoinSpec struct {
	Left, Right *TableRef
	LeftCol     string // qualified by Left's name/alias
	RightCol    string
	// WithinMs bounds |t_left - t_right| for streaming interval joins;
	// 0 means equi-join without a time bound (batch join).
	WithinMs int64
}

// TableRef is a FROM source: a named table, a subquery, or a join.
type TableRef struct {
	// Name is the table name (possibly "connector.table" via Qualifier).
	Name      string
	Qualifier string // catalog/connector qualifier before the dot
	Alias     string
	// Sub is a derived table (subquery in FROM).
	Sub *SelectStmt
	// Join makes this ref a join node; Name/Sub are unset then.
	Join *JoinSpec
}

// RefName returns the name this ref is addressed by in qualified columns.
func (t *TableRef) RefName() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// OrderItem is one ORDER BY term.
type OrderItem struct {
	Column string
	Desc   bool
}

// SelectStmt is a parsed SELECT.
type SelectStmt struct {
	Items   []SelectItem
	From    *TableRef
	Where   []Predicate
	GroupBy []string
	// Window is the TUMBLE/HOP group key, if present.
	Window  *WindowSpec
	OrderBy []OrderItem
	Limit   int
}

// HasAggregates reports whether any projection is an aggregate call.
func (s *SelectStmt) HasAggregates() bool {
	for _, it := range s.Items {
		if it.Func != FuncNone {
			return true
		}
	}
	return false
}

// String reconstructs an approximate SQL text (diagnostics only).
func (s *SelectStmt) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		switch {
		case it.Star:
			sb.WriteString("*")
		case it.Func != FuncNone:
			fmt.Fprintf(&sb, "%s(%s)", it.Func, it.Column)
		default:
			sb.WriteString(it.Column)
		}
		if it.Alias != "" {
			fmt.Fprintf(&sb, " AS %s", it.Alias)
		}
	}
	if s.From != nil {
		fmt.Fprintf(&sb, " FROM %s", s.From.Name)
	}
	if len(s.Where) > 0 {
		fmt.Fprintf(&sb, " WHERE <%d predicates>", len(s.Where))
	}
	if len(s.GroupBy) > 0 || s.Window != nil {
		sb.WriteString(" GROUP BY ...")
	}
	if s.Limit > 0 {
		fmt.Fprintf(&sb, " LIMIT %d", s.Limit)
	}
	return sb.String()
}
