package record

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metadata"
)

// oneValue is the class rule KeyIndex keys by, stated on the values
// themselves: NULL is one value; two numbers are one when they are equal or
// both NaN (so -0 is 0, int64(3) is float64(3) and a long past 2^53 is the
// double it rounds to); anything else is text, one when its %v form is; a
// number is never a text.
func oneValue(a, b any) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	fa, aNum := ToFloat64(a)
	fb, bNum := ToFloat64(b)
	switch {
	case aNum && bNum:
		return fa == fb || fa != fa && fb != fb
	case aNum || bNum:
		return false
	}
	return fmt.Sprint(a) == fmt.Sprint(b)
}

// cellVectors holds x as one row of a vector two ways: alone, and as the
// row that follows an untyped NULL run, sliced off it. NULL is held
// untyped, and as a typed column's NULL.
func cellVectors(x any) []Vector {
	var alone, after Vector
	alone.Append(x)
	after.AppendNulls(1)
	if x == nil {
		after.Reset(metadata.TypeLong)
		after.AppendNulls(1)
		return []Vector{alone, after}
	}
	after.AppendRows(&alone, []int32{0})
	after.Slice(1, 2)
	return []Vector{alone, after}
}

// cell is x as a one-row vector.
func cell(x any) Vector { return cellVectors(x)[0] }

// cellKey is Vector.Key's classes of one cell, comparable.
type cellKey struct {
	num  bool
	bits uint64
	text string
	ok   bool
}

func keyOf(v *Vector, r int) (k cellKey) {
	k.num, k.bits, k.text, k.ok = v.Key(r)
	return k
}

// spelled is a tuple's key as AddKey takes it: each cell by Vector.Key's
// classes, spelled by AppendCellKey.
func spelled(key []Vector) []byte {
	var b []byte
	for c := range key {
		num, bits, text, ok := key[c].Key(0)
		b = AppendCellKey(b, num, bits, text, ok)
	}
	return b
}

// TestKeyIndexKeepsTheCanonicalClasses: the group and join tables of every
// engine look keys up in a KeyIndex, so two cells must find one key exactly
// when they are one value by the class rule — whichever vector types hold
// them, alone or in a tuple — and a string's bytes must not let one tuple
// pass for another.
func TestKeyIndexKeepsTheCanonicalClasses(t *testing.T) {
	values := []any{nil, int64(3), float64(3), true, int64(1), false, 0.0, math.Copysign(0, -1), math.NaN(), -math.NaN(),
		math.Inf(1), math.Inf(-1), 1e300, int64(1) << 60, int64(1)<<53 + 1, float64(1 << 53), "3", "", "~", "n3|", "<nil>",
		"a|b", `a"b`, "[51]", []byte("3")}
	tail := cell("tail")
	for _, a := range values {
		for _, b := range values {
			same := oneValue(a, b)
			for _, va := range cellVectors(a) {
				for _, vb := range cellVectors(b) {
					for _, shape := range []struct {
						name   string
						ka, kb []Vector
					}{
						{"single", []Vector{va}, []Vector{vb}},
						{"tuple", []Vector{va, tail}, []Vector{vb, tail}},
					} {
						var x KeyIndex
						x.Add(shape.ka, 0)
						if _, found := x.Find(shape.kb, 0); found != same {
							t.Errorf("%s %#v (%v) and %#v (%v): one value %v, one index key %v",
								shape.name, a, va.Type, b, vb.Type, same, found)
						}
					}
				}
			}
		}
	}
	// Tuples: a string's bytes cannot pass for the next value's key.
	for _, pair := range [][4]string{{"a\x02\x01b", "c", "a", "b\x02\x01c"}, {"a\x02b", "c", "a", "b\x02c"}} {
		var x KeyIndex
		x.Add([]Vector{cell(pair[0]), cell(pair[1])}, 0)
		if _, found := x.Find([]Vector{cell(pair[2]), cell(pair[3])}, 0); found {
			t.Errorf("tuple keys %q alias", pair)
		}
	}
}

// TestVectorKeyKeepsTheClasses: Vector.Key puts two cells in one class and
// one key exactly when they are one value — int64(3) is float64(3), -0 is
// 0, every NaN is one, a string is never a number, NULL is apart — whichever
// vectors hold them; and Vector.Compare orders two cells of one column as
// Compare does.
func TestVectorKeyKeepsTheClasses(t *testing.T) {
	cells := []any{nil, int64(3), 3.0, -0.0, 0.0, int64(0), math.NaN(), math.Inf(1), "3", "", true, int64(1), "a|b", []byte("3")}
	for _, a := range cells {
		for _, b := range cells {
			same := oneValue(a, b)
			for _, va := range cellVectors(a) {
				for _, vb := range cellVectors(b) {
					if ka, kb := keyOf(&va, 0), keyOf(&vb, 0); (ka == kb) != same {
						t.Errorf("Key(%#v) = %+v, Key(%#v) = %+v; one value %v", a, ka, b, kb, same)
					}
				}
			}
		}
	}
	// Vector.Compare is Compare over the cells one column can hold: one
	// type, NULLs beside it.
	for _, a := range cells {
		for _, b := range cells {
			if a != nil && b != nil && TypeOf(a) != TypeOf(b) {
				continue
			}
			var v Vector
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

// TestKeyCompareOrdersTheClasses: KeyCompare, the order of every group
// table, is 0 exactly when KeyIndex takes two cells for one key, whichever
// vectors hold them; it is antisymmetric and transitive; and it puts NULL
// first, every NaN before every other number, and numbers before texts.
func TestKeyCompareOrdersTheClasses(t *testing.T) {
	values := []any{nil, int64(3), float64(3), true, int64(1), false, 0.0, math.Copysign(0, -1), math.NaN(), -math.NaN(),
		math.Inf(1), math.Inf(-1), 1e300, int64(1) << 60, int64(1)<<53 + 1, float64(1 << 53), "3", "", "~", "<nil>",
		"a|b", "[51]", []byte("3")}
	var cells []Vector
	var of []any
	for _, x := range values {
		for _, v := range cellVectors(x) {
			cells, of = append(cells, v), append(of, x)
		}
	}
	cmp := func(i, j int) int { return cells[i].KeyCompare(0, &cells[j], 0) }
	for i := range cells {
		for j := range cells {
			c := cmp(i, j)
			if (c == 0) != oneValue(of[i], of[j]) {
				t.Errorf("KeyCompare(%#v (%v), %#v (%v)) = %d; one value %v", of[i], cells[i].Type, of[j], cells[j].Type, c, oneValue(of[i], of[j]))
			}
			if back := cmp(j, i); c != -back {
				t.Errorf("KeyCompare(%#v, %#v) = %d, but %d the other way", of[i], of[j], c, back)
			}
			for k := range cells {
				if c <= 0 && cmp(j, k) <= 0 && cmp(i, k) > 0 {
					t.Errorf("KeyCompare is not transitive over %#v, %#v, %#v", of[i], of[j], of[k])
				}
			}
		}
	}
	ascending := []any{nil, math.NaN(), math.Inf(-1), int64(-1), math.Copysign(0, -1), int64(1), float64(1<<53 + 2), math.Inf(1), "", "a"}
	for i := 1; i < len(ascending); i++ {
		a, b := cell(ascending[i-1]), cell(ascending[i])
		if a.KeyCompare(0, &b, 0) >= 0 {
			t.Errorf("KeyCompare(%#v, %#v) >= 0, want %#v first", ascending[i-1], ascending[i], ascending[i-1])
		}
	}
}

// TestKeyIndexNumbersKeysInOrder: keys are numbered in order of first sight,
// a repeat finds its number, and Find never adds.
func TestKeyIndexNumbersKeysInOrder(t *testing.T) {
	col := column(metadata.TypeString, "x", nil, "2", "x", "2", nil, "y")
	for _, key := range [][]Vector{{*col}, {*col, *col}, {}} {
		var x KeyIndex
		x.Reserve(key, 4)
		var got []int
		for r := range col.Len() {
			k, _ := x.Add(key, r)
			got = append(got, k)
		}
		want := []int{0, 1, 2, 0, 2, 1, 3}
		if len(key) == 0 {
			want = []int{0, 0, 0, 0, 0, 0, 0}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%d columns: numbers %v, want %v", len(key), got, want)
		}
	}
	var x KeyIndex
	if k, ok := x.Find([]Vector{*col}, 0); ok || k != -1 {
		t.Errorf("Find on an empty index: %d, %v", k, ok)
	}
	if k, ok := x.Add([]Vector{*col}, 0); ok || k != 0 {
		t.Errorf("Add after a Find that missed: %d, %v, want key 0, new", k, ok)
	}
}

// fuzzCell draws one cell a vector holds: the values fuzzValue draws (a Go
// int as the int64 a vector holds it as), a float64 from raw bits (every NaN
// payload, -0, subnormals), and a long within a few of 2^53, where longs
// start to share a double.
func fuzzCell(kind uint8, i int64, f float64, s string) any {
	switch kind %= 9; kind {
	case 3:
		return i
	case 7:
		return math.Float64frombits(uint64(i))
	case 8:
		return int64(1)<<53 + i%4
	}
	return fuzzValue(kind, i, f, s)
}

// FuzzKeyIndex: two rows of two cells each, every cell alone in its vector
// or after an untyped NULL run as mode's bits pick, get one number from a KeyIndex exactly when they are one
// value by the class rule (oneValue) — as a single column and as a tuple,
// through Add and through AddKey with the tuple spelled by AppendCellKey —
// a reused scratch never changes a key once indexed, and KeyCompare ties
// the first cells of the two rows exactly when they are one value; then a
// sequence of many cells seq draws numbers as a Go map does
// (fuzzKeySequence).
func FuzzKeyIndex(f *testing.F) {
	f.Add(uint8(1), int64(3), 0.0, "", uint8(2), int64(0), 3.0, "", uint8(5), int64(0), 0.0, "3", uint8(2), int64(0), 3.0, "", uint8(0), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(7), int64(0x7ff8000000000001), 0.0, "", uint8(2), int64(0), math.NaN(), "", uint8(2), int64(0), math.Copysign(0, -1), "", uint8(1), int64(0), 0.0, "", uint8(5), []byte("NaN -0 2^53"))
	f.Add(uint8(8), int64(1), 0.0, "", uint8(2), int64(0), float64(1<<53), "", uint8(4), int64(1), 0.0, "", uint8(1), int64(1), 0.0, "", uint8(10), []byte{8, 8, 8, 8, 7, 7, 2, 2, 1, 1, 3})
	f.Add(uint8(5), int64(0), 0.0, "a\x02\x01b", uint8(5), int64(0), 0.0, "c", uint8(5), int64(0), 0.0, "a", uint8(5), int64(0), 0.0, "b\x02\x01c", uint8(15), []byte{})
	f.Add(uint8(6), int64(0), 0.0, "3", uint8(5), int64(0), 0.0, "[51]", uint8(0), int64(0), 0.0, "", uint8(5), int64(0), 0.0, "1e3", uint8(3), []byte{5, 5, 5, 0, 0, 9})
	f.Add(uint8(5), int64(0), 0.0, "", uint8(2), int64(0), 3.0, "", uint8(5), int64(0), 0.0, "", uint8(2), int64(0), 0.5, "", uint8(0), []byte{200, 17, 33, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1})
	f.Fuzz(func(t *testing.T, ka uint8, ia int64, fa float64, sa string, kb uint8, ib int64, fb float64, sb string,
		kc uint8, ic int64, fc float64, sc string, kd uint8, id int64, fd float64, sd string, mode uint8, seq []byte) {
		vals := [4]any{fuzzCell(ka, ia, fa, sa), fuzzCell(kb, ib, fb, sb), fuzzCell(kc, ic, fc, sc), fuzzCell(kd, id, fd, sd)}
		var cols [4]Vector
		for c, x := range vals {
			cols[c] = cellVectors(x)[mode>>c&1]
		}
		// Row a is cells 0 and 1, row b cells 2 and 3.
		rows := [2][]Vector{cols[0:2], cols[2:4]}
		for _, shape := range []struct {
			name string
			cut  int
			same bool
		}{
			{"single", 1, oneValue(vals[0], vals[2])},
			{"tuple", 2, oneValue(vals[0], vals[2]) && oneValue(vals[1], vals[3])},
		} {
			var byAdd, byKey KeyIndex
			var nums [2][2]int
			for r, row := range rows {
				key := row[:shape.cut]
				nums[r][0], _ = byAdd.Add(key, 0)
				if shape.cut == 1 {
					num, bits, text, ok := key[0].Key(0)
					nums[r][1], _ = byKey.AddKey(num, bits, []byte(text), ok)
				} else {
					scratch := spelled(key)
					nums[r][1], _ = byKey.AddKey(false, 0, scratch, true)
					clear(scratch)
				}
			}
			for via, name := range []string{"Add", "AddKey"} {
				if got := nums[0][via] == nums[1][via]; got != shape.same {
					t.Fatalf("%s %s: %#v and %#v numbered %d and %d; one value %v",
						shape.name, name, vals[:shape.cut], vals[2:2+shape.cut], nums[0][via], nums[1][via], shape.same)
				}
			}
			if k, found := byAdd.Find(rows[1][:shape.cut], 0); !found || k != nums[1][0] {
				t.Fatalf("%s: Find of an indexed key = %d, %v, want %d", shape.name, k, found, nums[1][0])
			}
			if k, found := byKey.AddKey(false, 0, spelled(rows[0][:shape.cut]), true); shape.cut == 2 && (!found || k != nums[0][1]) {
				t.Fatalf("tuple: AddKey after its scratch was cleared = %d, %v, want %d", k, found, nums[0][1])
			}
		}
		// KeyCompare ties exactly the cells the index takes for one key,
		// the same either way round.
		c, back := cols[0].KeyCompare(0, &cols[2], 0), cols[2].KeyCompare(0, &cols[0], 0)
		if (c == 0) != oneValue(vals[0], vals[2]) || c != -back {
			t.Fatalf("KeyCompare(%#v, %#v) = %d, %d the other way; one value %v", vals[0], vals[2], c, back, oneValue(vals[0], vals[2]))
		}
		fuzzKeySequence(t, seq, vals, ia^ib<<1^ic<<2^id<<3)
	})
}

// fuzzKeySequence adds many cells to one single-column index, through Add
// and through AddKey, past several of its tables' growths and across a
// Reset, and holds every number to a Go map keyed by Vector.Key's class —
// the map-based index the flat tables replaced, as the oracle. Each byte of
// seq draws 16 cells, of the kind its low bits pick and with values from a
// generator seeded by seed, drawn from a range that widens as the sequence
// goes on so that keys repeat and the tables grow; the four fuzzed cells
// come first. The index is Reset at the point seq's first byte picks,
// after which it numbers from 0 again.
func fuzzKeySequence(t *testing.T, seq []byte, first [4]any, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	cells := first[:]
	for j := range 16 * min(len(seq), 256) {
		b, span := seq[j/16], int64(2+j/3)
		i := rng.Int63n(span) - span/2
		var f float64
		switch rng.Intn(8) {
		case 0:
			f = math.Copysign(0, -1)
		case 1:
			f = math.Float64frombits(0x7ff0_0000_0000_0001 | rng.Uint64()) // a NaN, of any payload
		default:
			f = float64(i) / float64(1+b%3)
		}
		cells = append(cells, fuzzCell(b+uint8(j), i, f, strconv.FormatInt(i, 10)))
	}
	resetAt := len(cells)
	if len(seq) > 0 {
		resetAt = int(seq[0]) * len(cells) / 256
	}
	var byAdd, byKey KeyIndex
	oracle := map[cellKey]int{}
	for r, x := range cells {
		if r == resetAt {
			byAdd.Reset()
			byKey.Reset()
			clear(oracle)
		}
		v := cell(x)
		class := keyOf(&v, 0)
		want, seen := oracle[class]
		if !seen {
			want = len(oracle)
			oracle[class] = want
		}
		gotAdd, foundAdd := byAdd.Add([]Vector{v}, 0)
		gotKey, foundKey := byKey.AddKey(class.num, class.bits, []byte(class.text), class.ok)
		if gotAdd != want || foundAdd != seen || gotKey != want || foundKey != seen {
			t.Fatalf("cell %d (%#v, reset at %d): Add %d (found %v), AddKey %d (found %v); the map says %d (found %v)",
				r, x, resetAt, gotAdd, foundAdd, gotKey, foundKey, want, seen)
		}
	}
	if byAdd.Len() != len(oracle) || byKey.Len() != len(oracle) {
		t.Fatalf("%d and %d keys, the map holds %d", byAdd.Len(), byKey.Len(), len(oracle))
	}
}

// TestKeyIndexTextTableMatchesAMap holds the text class — the flat table
// over the arena — to a Go map as the oracle, over 10⁴ and 10⁵ distinct
// keys: the empty string, long keys, keys sharing long prefixes and tuples
// spelled by AppendCellKey, each shown twice in random order. Every
// path in: a string column through Add (the caller's strings kept), AddKey
// from a scratch clobbered after each call (the arena's copies), and a
// tuple through both; from a zero index, one reserved for a quarter of the
// keys (grown past it), one reserved for all, and one Reset after it held
// half the absent keys. Each key gets its number of first sight, Texts gives
// its text back by number, and absent keys — one byte off a present one —
// are not found.
func TestKeyIndexTextTableMatchesAMap(t *testing.T) {
	for _, distinct := range []int{10_000, 100_000} {
		rng := rand.New(rand.NewSource(int64(distinct)))
		texts := []string{""}
		for len(texts) < distinct {
			i := len(texts)
			switch i % 4 {
			case 0:
				texts = append(texts, fmt.Sprintf("order-%08d", rng.Int63n(1e8)))
			case 1:
				texts = append(texts, strings.Repeat("shared prefix/", 8)+strconv.Itoa(i))
			case 2:
				texts = append(texts, strings.Repeat(string(rune('a'+i%26)), 64+i%200)+strconv.Itoa(i))
			default:
				texts = append(texts, strconv.Itoa(i))
			}
		}
		slices.Sort(texts)
		texts = slices.Compact(texts)
		shown := make([]int, 0, 2*len(texts))
		for i := range texts {
			shown = append(shown, i, i)
		}
		rng.Shuffle(len(shown), func(a, b int) { shown[a], shown[b] = shown[b], shown[a] })
		absent := func(s string) string { return s + "\x00" }

		var strCol, numCol Vector
		strCol.Reset(metadata.TypeString)
		numCol.Reset(metadata.TypeLong)
		for _, i := range shown {
			strCol.Strs = append(strCol.Strs, texts[i])
			numCol.Ints = append(numCol.Ints, int64(i%7))
		}
		tuple := []Vector{numCol, strCol}
		spelledOf := make([]string, len(texts))
		for i := range texts {
			spelledOf[i] = string(AppendCellKey(AppendCellKey(nil, true, CanonBits(float64(i%7)), "", true), false, 0, texts[i], true))
		}
		spell := func(r int) string { return spelledOf[shown[r]] }

		for _, reserve := range []string{"none", "quarter", "all", "reset"} {
			for _, path := range []string{"column Add", "AddKey", "tuple Add", "tuple AddKey"} {
				var x KeyIndex
				switch reserve {
				case "quarter":
					x.Reserve([]Vector{strCol}, len(texts)/4)
				case "all":
					x.ReserveTexts(len(texts), 0)
				case "reset":
					for _, s := range texts[:len(texts)/2] {
						x.AddKey(false, 0, []byte(absent(s)), true)
					}
					x.Reset()
				}
				oracle := map[string]int{}
				scratch := make([]byte, 0, 1024)
				keyOfRow := func(r int) string {
					if strings.HasPrefix(path, "tuple") {
						return spell(r)
					}
					return strCol.Strs[r]
				}
				for r := range shown {
					want, seen := oracle[keyOfRow(r)]
					if !seen {
						want = len(oracle)
						oracle[keyOfRow(r)] = want
					}
					var got int
					var found bool
					switch path {
					case "column Add":
						got, found = x.Add([]Vector{strCol}, r)
					case "AddKey":
						scratch = append(scratch[:0], strCol.Strs[r]...)
						got, found = x.AddKey(false, 0, scratch, true)
						clear(scratch[:cap(scratch)])
					case "tuple Add":
						got, found = x.Add(tuple, r)
					default:
						scratch = append(scratch[:0], spell(r)...)
						got, found = x.AddKey(false, 0, scratch, true)
						clear(scratch[:cap(scratch)])
					}
					if got != want || found != seen {
						t.Fatalf("%d keys, %s, reserved %s: row %d numbered %d (found %v), the map says %d (found %v)",
							len(texts), path, reserve, r, got, found, want, seen)
					}
				}
				if x.Len() != len(oracle) {
					t.Fatalf("%s, reserved %s: %d keys, the map holds %d", path, reserve, x.Len(), len(oracle))
				}
				bytes := 0
				for key, k := range oracle {
					if got := x.Texts()[k]; got != key {
						t.Fatalf("%s, reserved %s: Texts()[%d] = %q, want %q", path, reserve, k, got, key)
					}
					bytes += len(key)
					if strings.HasPrefix(path, "tuple") {
						continue // Find takes vectors; the absent tuples are below
					}
					var miss Vector
					miss.Append(absent(key))
					if k, found := x.Find([]Vector{miss}, 0); found || k != -1 {
						t.Fatalf("%s, reserved %s: Find of absent %q = %d, %v", path, reserve, absent(key), k, found)
					}
				}
				if path == "AddKey" || path == "tuple AddKey" {
					if x.ArenaBytes() != bytes {
						t.Errorf("%s, reserved %s: %d bytes carved, the keys hold %d", path, reserve, x.ArenaBytes(), bytes)
					}
				}
				if strings.HasPrefix(path, "tuple") {
					for r := 0; r < 1000; r++ {
						var n, s Vector
						n.Append(int64(r%7) + 7) // no tuple has a number past 6
						s.Append(strCol.Strs[r])
						if k, found := x.Find([]Vector{n, s}, 0); found || k != -1 {
							t.Fatalf("%s, reserved %s: Find of an absent tuple = %d, %v", path, reserve, k, found)
						}
					}
				}
			}
		}
	}
}

// TestKeyIndexReserveAndResetEmptyIt: Reserve, ReserveTexts and Reset each
// leave an index that has been added to empty — no key, no NULL, nothing
// carved — so the next keys are numbered from 0 again, as in a new index.
func TestKeyIndexReserveAndResetEmptyIt(t *testing.T) {
	nums, strs := column(metadata.TypeLong, int64(5), nil, int64(7)), column(metadata.TypeString, "a", nil, "b")
	for _, key := range [][]Vector{{*nums}, {*strs}, {*nums, *strs}} {
		for _, empty := range []string{"Reserve", "ReserveTexts", "Reset", "Reserve then Reset"} {
			var x KeyIndex
			for r := range 3 {
				x.Add(key, r)
			}
			x.AddKey(false, 0, []byte("carved"), true)
			switch empty {
			case "Reserve":
				x.Reserve(key, 2)
			case "ReserveTexts":
				x.ReserveTexts(2, 8)
			case "Reset":
				x.Reset()
			default:
				x.Reserve(key, 2)
				x.Reset()
			}
			if x.Len() != 0 || x.ArenaBytes() != 0 || len(x.Texts()) != 0 {
				t.Fatalf("%d columns, %s: %d keys, %d bytes carved, %d texts left", len(key), empty, x.Len(), x.ArenaBytes(), len(x.Texts()))
			}
			for r := range 3 {
				if k, found := x.Find(key, r); found || k != -1 {
					t.Fatalf("%d columns, %s: row %d (NULL %v) still found as key %d", len(key), empty, r, r == 1, k)
				}
			}
			for i, r := range []int{2, 1, 0, 1} {
				if k, found := x.Add(key, r); k != []int{0, 1, 2, 1}[i] || found != (i == 3) {
					t.Fatalf("%d columns, %s: row %d numbered %d (found %v), want %d", len(key), empty, r, k, found, []int{0, 1, 2, 1}[i])
				}
			}
		}
	}
}

// numberKeys draws distinct number classes, as cells of the types a column
// holds them in: small integers as longs and as doubles (whose CanonBits
// clump, all their low bits zero), random longs and doubles, longs past
// 2^53, NaN and 0. Each class is drawn once; alt is another cell of its
// class (a long's double, another NaN payload, -0, a long past 2^53 that
// rounds to it), or nil.
func numberKeys(rng *rand.Rand, distinct int) (keys, alt []any) {
	seen := map[uint64]bool{}
	add := func(x, y any) {
		f, _ := ToFloat64(x)
		if b := CanonBits(f); !seen[b] {
			seen[b] = true
			keys, alt = append(keys, x), append(alt, y)
		}
	}
	add(math.NaN(), math.Float64frombits(0xfff0_0000_0000_0001))
	add(0.0, math.Copysign(0, -1))
	for i := 0; len(keys) < distinct; i++ {
		switch i % 5 {
		case 0:
			add(int64(i), float64(i))
		case 1:
			add(float64(-i), int64(-i))
		case 2:
			add(rng.Int63()-1<<62, nil)
		case 3:
			add(rng.NormFloat64()*1e6, nil)
		default:
			add(int64(1)<<53+int64(2*i), int64(1)<<53+int64(2*i)+1) // the odd one rounds to the even
		}
	}
	return keys, alt
}

// TestKeyIndexNumberTableMatchesAMap holds the number class — the flat
// table over CanonBits — to a Go map of CanonBits as the oracle, over 10⁴
// and 10⁵ distinct classes (numberKeys), each shown twice in random order,
// half of them the second time as another cell of the class, and NULL
// among them. Every path in: a long or double column through Add, and
// AddKey with the bits classified; from a zero index, one reserved for a
// quarter of the keys (grown past it), one reserved for all, and one Reset
// after holding other keys. Each key gets its number of first sight, and
// absent numbers are not found. Small integers as doubles and as codes (the
// keyed scan's AddKey of a code) take a short probe from their home slot:
// the hash spreads keys that share their low bits, or their high ones.
func TestKeyIndexNumberTableMatchesAMap(t *testing.T) {
	for _, distinct := range []int{10_000, 100_000} {
		rng := rand.New(rand.NewSource(int64(distinct)))
		keys, alt := numberKeys(rng, distinct)
		shown := make([]any, 0, 2*len(keys)+2)
		for i := range keys {
			second := keys[i]
			if alt[i] != nil && i%2 == 0 {
				second = alt[i]
			}
			shown = append(shown, keys[i], second)
		}
		shown = append(shown, nil, nil)
		rng.Shuffle(len(shown), func(a, b int) { shown[a], shown[b] = shown[b], shown[a] })

		// Row r is a long in longs or a double in doubles; NULL in both.
		var longs, doubles Vector
		longs.Reset(metadata.TypeLong)
		doubles.Reset(metadata.TypeDouble)
		for r, x := range shown {
			longs.Ints, doubles.Floats = append(longs.Ints, 0), append(doubles.Floats, 0)
			switch x := x.(type) {
			case int64:
				longs.Ints[r] = x
			case float64:
				doubles.Floats[r] = x
			default:
				longs.SetNull(r)
				doubles.SetNull(r)
			}
		}
		colOf := func(r int) []Vector {
			if _, ok := shown[r].(int64); ok {
				return []Vector{longs}
			}
			return []Vector{doubles}
		}

		for _, reserve := range []string{"none", "quarter", "all", "reset"} {
			for _, path := range []string{"Add", "AddKey"} {
				var x KeyIndex
				switch reserve {
				case "quarter":
					x.Reserve([]Vector{longs}, len(keys)/4)
				case "all":
					x.Reserve([]Vector{doubles}, len(keys)+1)
				case "reset":
					for r := range len(shown) / 2 {
						x.AddKey(true, uint64(r)<<20, nil, true)
					}
					x.Reset()
				}
				oracle := map[cellKey]int{}
				for r := range shown {
					class := keyOf(&colOf(r)[0], r)
					want, seen := oracle[class]
					if !seen {
						want = len(oracle)
						oracle[class] = want
					}
					var got int
					var found bool
					if path == "Add" {
						got, found = x.Add(colOf(r), r)
					} else {
						got, found = x.AddKey(class.num, class.bits, nil, class.ok)
					}
					if got != want || found != seen {
						t.Fatalf("%d keys, %s, reserved %s: row %d (%#v) numbered %d (found %v), the map says %d (found %v)",
							len(keys), path, reserve, r, shown[r], got, found, want, seen)
					}
				}
				if x.Len() != len(oracle) || x.Texts() != nil {
					t.Fatalf("%s, reserved %s: %d keys (the map holds %d), texts %d", path, reserve, x.Len(), len(oracle), len(x.Texts()))
				}
				for _, k := range keys[:1000] {
					if f, _ := ToFloat64(k); math.Abs(f) < 1<<40 { // f+0.5 is another number
						miss := cell(f + 0.5)
						if k, found := x.Find([]Vector{miss}, 0); found {
							t.Fatalf("%s, reserved %s: Find of absent %v = %d", path, reserve, f+0.5, k)
						}
					}
				}
			}
		}

		// Clumped keys: the mean probe from a key's home slot stays short.
		for _, clump := range []string{"integers as doubles", "codes"} {
			var x KeyIndex
			for i := range distinct {
				bits := uint64(i)
				if clump == "integers as doubles" {
					bits = CanonBits(float64(i))
				}
				x.AddKey(true, bits, nil, true)
			}
			probes := 0
			for i, e := range x.nums.slots {
				if e != 0 {
					probes += (i - x.nums.home(uint32(e>>32)) + len(x.nums.slots)) % len(x.nums.slots)
				}
			}
			if mean := float64(probes) / float64(distinct); mean > 2 {
				t.Errorf("%d %s: a key sits %.1f slots past its home on average, want at most 2", distinct, clump, mean)
			}
		}
	}
}
