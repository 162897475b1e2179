package record

import (
	"math"
	"testing"
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
