package record

import "testing"

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
