package sqlparse

import (
	"math"
	"testing"

	"repro/internal/metadata"
	"repro/internal/record"
)

var fuzzTypes = []metadata.FieldType{metadata.TypeLong, metadata.TypeDouble, metadata.TypeString,
	metadata.TypeBool, metadata.TypeBytes, metadata.TypeTimestamp}

// fuzzLiteral draws a literal of each Go type the parser or the reference
// generator produces.
func fuzzLiteral(kind uint8, i int64, f float64, s string) any {
	switch kind % 6 {
	case 0:
		return nil
	case 1:
		return f
	case 2:
		return i
	case 3:
		return int(i)
	case 4:
		return s
	}
	return i&1 == 1
}

// FuzzPredicateValue holds the compiled WHERE to Predicate.Matches:
// on any cell of any type, NULL included, against literals of any type and
// every operator, the typed predicate answers what Matches answers on the
// boxed cell.
func FuzzPredicateValue(f *testing.F) {
	f.Add(uint8(0), false, int64(5), 0.0, "", uint8(0), uint8(1), int64(0), 5.0, "", uint8(4), int64(0), 0.0, "5")
	f.Add(uint8(1), false, int64(0), 2.5, "", uint8(2), uint8(2), int64(3), 0.0, "", uint8(1), int64(0), 2.5, "")
	f.Add(uint8(2), false, int64(0), 0.0, "12", uint8(4), uint8(1), int64(0), 5.0, "", uint8(4), int64(0), 0.0, "abc")
	f.Add(uint8(3), false, int64(1), 0.0, "", uint8(5), uint8(4), int64(0), 0.0, "true", uint8(5), int64(0), 0.0, "")
	f.Add(uint8(1), false, int64(0), math.Inf(1), "", uint8(6), uint8(4), int64(0), 0.0, "+Inf", uint8(4), int64(0), 0.0, "NaN")
	f.Add(uint8(4), false, int64(0), 0.0, "a", uint8(7), uint8(4), int64(0), 0.0, "[97]", uint8(0), int64(0), 0.0, "")
	f.Add(uint8(2), true, int64(0), 0.0, "", uint8(1), uint8(0), int64(0), 0.0, "", uint8(0), int64(0), 0.0, "")
	f.Add(uint8(1), false, int64(0), 1e21, "", uint8(3), uint8(4), int64(0), 0.0, "1e+21", uint8(2), int64(-7), 0.0, "")
	f.Fuzz(func(t *testing.T, typ uint8, null bool, ci int64, cf float64, cs string, op uint8,
		k1 uint8, i1 int64, f1 float64, s1 string, k2 uint8, i2 int64, f2 float64, s2 string) {
		ft := fuzzTypes[int(typ)%len(fuzzTypes)]
		v := record.Value{Null: null}
		switch ft {
		case metadata.TypeDouble:
			v.F = cf
		case metadata.TypeString, metadata.TypeBytes:
			v.B = []byte(cs)
		case metadata.TypeBool:
			v.I = ci & 1
		default:
			v.I = ci
		}
		if null {
			v = record.Value{Null: true}
		}
		l1, l2 := fuzzLiteral(k1, i1, f1, s1), fuzzLiteral(k2, i2, f2, s2)
		p := Predicate{Column: "c", Op: CompareOp(op % 8), Value: l1}
		switch p.Op {
		case CmpBetween:
			p.Value2 = l2
		case CmpIn:
			p.Value, p.Values = nil, []any{l1, l2}
		}
		compiled := p.Compile()
		if got, want := compiled.MatchesValue(v, ft), p.Matches(v.Box(ft)); got != want {
			t.Fatalf("%s cell %#v, predicate %+v: typed %v, Matches %v", ft, v.Box(ft), p, got, want)
		}
	})
}
