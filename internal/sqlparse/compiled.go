package sqlparse

import (
	"bytes"
	"fmt"
	"strconv"

	"repro/internal/metadata"
	"repro/internal/record"
)

// Compiled is a WHERE conjunct compiled for typed cells: MatchesValue answers
// what Matches answers on the boxed cell, without boxing the cell or
// formatting the literal per row. Both SQL layers filter through it — the
// federated engine over batch vectors, the streaming one over flow rows.
type Compiled struct {
	Predicate
	lits []literal // Value, then Value2 for BETWEEN; Values for IN
}

// literal is a predicate literal as record.Compare sees it.
type literal struct {
	v    any
	null bool
	num  bool    // record.ToFloat64 takes it
	f    float64 // its number when num
	text []byte  // its %v: what a non-number compares against
}

// Compile compiles the predicate once, for any number of cells.
func (p Predicate) Compile() Compiled {
	lits := []any{p.Value}
	switch p.Op {
	case CmpBetween:
		lits = append(lits, p.Value2)
	case CmpIn:
		lits = p.Values
	}
	c := Compiled{Predicate: p}
	for _, v := range lits {
		l := literal{v: v, null: v == nil}
		l.f, l.num = record.ToFloat64(v)
		if !l.null {
			l.text = []byte(fmt.Sprintf("%v", v))
		}
		c.lits = append(c.lits, l)
	}
	return c
}

// MatchesValue is the predicate's verdict on a cell of type t: NULL
// satisfies nothing.
func (c *Compiled) MatchesValue(v record.Value, t metadata.FieldType) bool {
	if v.Null {
		return false
	}
	switch c.Op {
	case CmpIn:
		for i := range c.lits {
			if c.lits[i].compare(v, t) == 0 {
				return true
			}
		}
		return false
	case CmpBetween:
		return c.lits[0].compare(v, t) >= 0 && c.lits[1].compare(v, t) <= 0
	}
	cmp := c.lits[0].compare(v, t)
	switch c.Op {
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
	}
	return false
}

// compare is record.Compare(v.Box(t), l.v) for a non-NULL cell: numbers
// compare as numbers, anything else as text — a string cell is its own text,
// a number's is written into a stack buffer only when the literal is not a
// number.
func (l *literal) compare(v record.Value, t metadata.FieldType) int {
	if l.null {
		return 1
	}
	var f float64
	switch t {
	case metadata.TypeString:
		return bytes.Compare(v.B, l.text)
	case metadata.TypeBytes:
		return record.Compare(v.Box(t), l.v) // a blob's text is its %v
	case metadata.TypeDouble:
		f = v.F
	default: // long, timestamp, bool (0 or 1)
		f = float64(v.I)
	}
	if l.num {
		switch {
		case f < l.f:
			return -1
		case f > l.f:
			return 1
		}
		return 0
	}
	var buf [32]byte
	text := buf[:0]
	switch t {
	case metadata.TypeDouble:
		text = strconv.AppendFloat(text, v.F, 'g', -1, 64)
	case metadata.TypeBool:
		text = strconv.AppendBool(text, v.I != 0)
	default:
		text = strconv.AppendInt(text, v.I, 10)
	}
	return bytes.Compare(text, l.text)
}
