package record

import (
	"math"
	"testing"

	"repro/internal/metadata"
)

// TestAppendValueKey pins the canonical key byte for byte: partials merge
// across segments and servers on it, and the federated engine orders its
// groups by it, so it is the encoding olap.groupValueKey and
// fedsql.appendValueKey both spelled before they became this function.
func TestAppendValueKey(t *testing.T) {
	for _, c := range []struct {
		v    any
		want string
	}{
		{nil, "~|"},
		{int64(3), "n3|"},
		{float64(3), "n3|"},
		{3, "n3|"},
		{true, "n1|"},
		{false, "n0|"},
		{-0.25, "n-0.25|"},
		{1e21, "n1e+21|"},
		{int64(1) << 53, "n9.007199254740992e+15|"},
		{math.NaN(), "nNaN|"},
		{math.Inf(1), "n+Inf|"},
		{math.Inf(-1), "n-Inf|"},
		{"", `s""|`},
		{"3", `s"3"|`},
		{"a|b", `s"a|b"|`},
		{`a"b`, `s"a\"b"|`},
		{"~", `s"~"|`},
		{"~|", `s"~|"|`},
		{"naïve\n", `s"naïve\n"|`},
		{[]byte("hi"), `s"[104 105]"|`},
	} {
		if got := string(AppendValueKey(nil, c.v)); got != c.want {
			t.Errorf("AppendValueKey(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
	// Append-style: a tuple's key is its values' keys in order, after
	// whatever the slice already held.
	key := AppendValueKey([]byte("k:"), "x|y")
	key = AppendValueKey(key, nil)
	key = AppendValueKey(key, int64(7))
	if string(key) != `k:s"x|y"|~|n7|` {
		t.Errorf("tuple key = %q", key)
	}
	if string(AppendValueKey(AppendValueKey(nil, "x|y"), "z")) == string(AppendValueKey(AppendValueKey(nil, "x"), "y|z")) {
		t.Error("('x|y','z') and ('x','y|z') share a key")
	}
}

// TestVectorKeyMatchesValueKey: Vector.Key puts two cells in one class and
// one key exactly when AppendValueKey spells them the same — int64(3) is
// float64(3), -0 is 0, every NaN is one, a string is never a number, NULL
// is apart — read typed or boxed; and Vector.Compare orders them as
// Compare does.
func TestVectorKeyMatchesValueKey(t *testing.T) {
	cells := []any{nil, int64(3), 3.0, -0.0, 0.0, int64(0), math.NaN(), math.Inf(1), "3", "", true, int64(1), "a|b"}
	vectors := func(x any) []*Vector {
		typed := &Vector{}
		typed.Reset(TypeOf(x))
		if x == nil {
			typed.Reset(metadata.TypeString)
		}
		typed.Append(x)
		boxed := &Vector{}
		boxed.Append(x)
		return []*Vector{typed, boxed}
	}
	type key struct {
		num  bool
		bits uint64
		text string
		ok   bool
	}
	for _, a := range cells {
		for _, b := range cells {
			same := string(AppendValueKey(nil, a)) == string(AppendValueKey(nil, b))
			for _, va := range vectors(a) {
				for _, vb := range vectors(b) {
					var ka, kb key
					ka.num, ka.bits, ka.text, ka.ok = va.Key(0)
					kb.num, kb.bits, kb.text, kb.ok = vb.Key(0)
					if (ka == kb) != same {
						t.Errorf("Key(%#v) = %+v, Key(%#v) = %+v; AppendValueKey same = %v", a, ka, b, kb, same)
					}
				}
			}
		}
	}
	// Vector.Compare is Compare, typed or boxed.
	for _, a := range cells {
		for _, b := range cells {
			typ := TypeOf(a)
			if typ == metadata.TypeInvalid {
				typ = TypeOf(b)
			}
			if tb := TypeOf(b); tb != typ && tb != metadata.TypeInvalid {
				typ = metadata.TypeInvalid // mixed: a boxed column
			}
			v := &Vector{}
			v.Reset(typ)
			v.Append(a)
			v.Append(b)
			if got, want := v.Compare(0, 1), Compare(a, b); got != want {
				t.Errorf("Vector.Compare(%#v, %#v) = %d, Compare = %d", a, b, got, want)
			}
		}
	}
	if CanonBits(math.Copysign(0, -1)) != CanonBits(0) || CanonBits(math.NaN()) != CanonBits(-math.NaN()) {
		t.Error("CanonBits keeps -0 or a NaN's sign apart")
	}
}
