package record

import (
	"fmt"
	"math"
	"testing"
)

func TestToFloat64(t *testing.T) {
	cases := []struct {
		in   any
		want float64
		ok   bool
	}{
		{float64(1.5), 1.5, true},
		{int64(7), 7, true},
		{3, 3, true},
		{true, 1, true},
		{false, 0, true},
		{"1.5", 0, false},
		{nil, 0, false},
		{[]byte("x"), 0, false},
	}
	for _, c := range cases {
		got, ok := ToFloat64(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("ToFloat64(%v) = (%v, %v), want (%v, %v)", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b any
		want int
	}{
		{nil, nil, 0},
		{nil, "x", -1},
		{"x", nil, 1},
		{int64(3), float64(3), 0}, // dictionary long vs consuming-row double
		{int64(2), float64(3), -1},
		{float64(4), int64(3), 1},
		{true, int64(1), 0},
		{false, int64(1), -1},
		{"abc", "abd", -1},
		{"b", "a", 1},
		{"a", "a", 0},
		// Mixed numeric/string falls back to formatted-string ordering.
		{int64(10), "10", 0},
		{int64(2), "10", 1}, // "2" > "10" lexically — documented fallback
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAntisymmetry(t *testing.T) {
	vals := []any{nil, int64(1), float64(2.5), "a", "z", true}
	for _, a := range vals {
		for _, b := range vals {
			if Compare(a, b) != -Compare(b, a) {
				t.Errorf("Compare(%v,%v) not antisymmetric", a, b)
			}
		}
	}
}

// Two strings compare without formatting either: the clean job's status
// filter runs Compare on every row.
func TestCompareStringsAllocateNothing(t *testing.T) {
	var a, b any = "delivered", "cancelled"
	if n := testing.AllocsPerRun(100, func() { _ = Compare(a, b) }); n != 0 {
		t.Errorf("Compare of two strings allocates %v times, want 0", n)
	}
}

// fuzzValue draws one value of each Go type a Record or a literal holds.
func fuzzValue(kind uint8, i int64, f float64, s string) any {
	switch kind % 7 {
	case 0:
		return nil
	case 1:
		return i
	case 2:
		return f
	case 3:
		return int(i)
	case 4:
		return i&1 == 1
	case 5:
		return s
	}
	return []byte(s)
}

// class groups values Compare orders by one rule: numbers numerically (NaN
// apart: it compares equal to every number), anything else as text.
func class(v any) int {
	if v == nil {
		return 0
	}
	if f, ok := ToFloat64(v); ok {
		if f != f {
			return 3
		}
		return 1
	}
	return 2
}

func sign(n int) int { return min(max(n, -1), 1) }

// equal is equality within a class: as numbers, else as text. NULL equals
// only NULL.
func equal(a, b any) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	fa, aNum := ToFloat64(a)
	fb, bNum := ToFloat64(b)
	if aNum && bNum {
		return fa == fb
	}
	return fmt.Sprint(a) == fmt.Sprint(b)
}

// FuzzCompare holds Compare to the laws of an ordering. For any values it is
// antisymmetric and reflexive. Among values of one class — numbers without
// NaN, or text — plus NULLs, it is transitive and consistent with equality:
// two values compare equal exactly when they are equal as numbers (int64(3)
// and float64(3), -0 and 0) or as text. Across classes it is not transitive
// (10 > 9.5, yet "10" < "9" < "9.5" as text), which is why the laws stop
// there.
func FuzzCompare(f *testing.F) {
	f.Add(uint8(1), int64(3), 3.0, "3", uint8(2), int64(-1), 2.5, "a", uint8(5), int64(0), 0.0, "")
	f.Add(uint8(2), int64(0), math.Copysign(0, -1), "", uint8(2), int64(0), 0.0, "", uint8(1), int64(0), 0.0, "")
	f.Add(uint8(5), int64(0), 0.0, "b", uint8(6), int64(0), 0.0, "[97]", uint8(5), int64(0), 0.0, "[97]")
	f.Add(uint8(1), int64(1)<<53+1, 0.0, "", uint8(2), int64(0), float64(1<<53), "", uint8(4), int64(1), 0.0, "")
	f.Fuzz(func(t *testing.T, ka uint8, ia int64, fa float64, sa string, kb uint8, ib int64, fb float64, sb string, kc uint8, ic int64, fc float64, sc string) {
		vals := []any{fuzzValue(ka, ia, fa, sa), fuzzValue(kb, ib, fb, sb), fuzzValue(kc, ic, fc, sc)}
		for _, a := range vals {
			if c := Compare(a, a); c != 0 {
				t.Fatalf("Compare(%#v, itself) = %d", a, c)
			}
			for _, b := range vals {
				if sign(Compare(a, b)) != -sign(Compare(b, a)) {
					t.Fatalf("Compare(%#v, %#v) = %d but Compare(%#v, %#v) = %d", a, b, Compare(a, b), b, a, Compare(b, a))
				}
			}
		}
		classes := map[int]bool{}
		for _, v := range vals {
			classes[class(v)] = true
		}
		delete(classes, 0)
		if len(classes) > 1 || classes[3] {
			return
		}
		for _, a := range vals {
			for _, b := range vals {
				if (Compare(a, b) == 0) != equal(a, b) {
					t.Fatalf("Compare(%#v, %#v) = %d, yet equal is %v", a, b, Compare(a, b), equal(a, b))
				}
				for _, c := range vals {
					if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
						t.Fatalf("%#v <= %#v <= %#v, yet Compare(%#v, %#v) > 0", a, b, c, a, c)
					}
				}
			}
		}
	})
}
