package record

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"strings"
	"unsafe"

	"repro/internal/metadata"
)

// KeyIndex numbers the distinct keys it is shown — 0, 1, 2, … in order of
// first sight — so a table of groups, or a join's build side, is typed
// vectors and slices indexed by that number, with no heap object per key.
// It is the one decision of which rows form one group. A key is one row of a
// tuple of cells, and two keys are one exactly when their cells are,
// pairwise, one value by Vector.Key's classes, whichever vector types hold
// them: NULL is one value; two numbers are one when their CanonBits are
// (int64(3) and float64(3), -0 and 0, every NaN); two texts when their bytes
// are; a number is never a text. A single column's numbers are indexed by
// their CanonBits and its texts as they are, a tuple by its cells spelled
// by AppendCellKey, carved from an arena, so neither formats a number nor
// quotes a string per row. Both classes sit in flat tables (flatTable) the
// collector has nothing to scan in, and Reset empties them keeping their
// capacity, so an index kept from one query to the next allocates nothing
// once it has held as many keys. The zero value is an empty index.
type KeyIndex struct {
	n      int32
	nums   flatTable[uint64] // a single column's numbers, by CanonBits
	texts  flatTable[string] // its texts, or a tuple's key bytes
	null   int32             // key+1 of a single column's NULL, or the empty tuple; 0: none
	buf    []byte            // scratch: a tuple's key bytes
	arena  []byte            // the chunk spelled keys are carved from
	carved int               // bytes carved from the arena, every chunk
}

// Reserve empties the index (Reset) and sizes it for n keys of the shape of
// key: numbers for a single column that is not a string column, texts for a
// string column or a tuple.
func (x *KeyIndex) Reserve(key []Vector, n int) {
	x.Reset()
	if len(key) == 1 && key[0].Type != metadata.TypeString {
		x.nums.reserve(n)
		return
	}
	x.texts.reserve(n)
}

// ReserveTexts empties the index (Reset) and sizes it for n text keys given
// to AddKey, whose bytes come to about bytes: the arena's first chunk.
func (x *KeyIndex) ReserveTexts(n, bytes int) {
	x.Reset()
	x.texts.reserve(n)
	x.arena = make([]byte, 0, bytes)
}

// Reset empties the index and keeps its tables' capacity; their string
// headers are cleared, so the index keeps nothing of its keys reachable. The
// arena is dropped, never written again: its bytes may be the texts of
// a slice Texts returned. Such a slice is not the index's after a Reset.
func (x *KeyIndex) Reset() {
	x.nums.reset()
	x.texts.reset()
	x.n, x.null, x.arena, x.carved = 0, 0, nil, 0
}

// Len is the number of keys indexed.
func (x *KeyIndex) Len() int { return int(x.n) }

// ArenaBytes is how many bytes of spelled keys have been carved from the
// arena, over all its chunks, since the index was last emptied.
func (x *KeyIndex) ArenaBytes() int { return x.carved }

// Texts is the text of every key by its number, "" for a NULL or a number,
// once the index holds a text or was reserved for texts (nil before). Its
// entries are never written again until a Reset: appends go past the end or
// to a new array, so a caller may read a slice it took while the index
// grows.
func (x *KeyIndex) Texts() []string { return x.texts.keys }

// Add returns the number of the key at row r of key and true when it is
// indexed; otherwise it indexes the key under the next number — the count
// of keys indexed before it — and returns that and false.
func (x *KeyIndex) Add(key []Vector, r int) (int, bool) { return x.lookup(key, r, true) }

// Find returns the number of the key at row r of key and true, or -1 and
// false when it is not indexed.
func (x *KeyIndex) Find(key []Vector, r int) (int, bool) { return x.lookup(key, r, false) }

// AddKey is Add for a key its caller has classified, so a scan that reads
// cells out of layouts of its own builds no vectors to group: a
// single-column key as Vector.Key classifies its cell (ok false for NULL),
// or a tuple as text — ok true, num false — its cells spelled in order by
// AppendCellKey. One index takes keys of one shape. A new text is copied
// into the arena, so the caller may reuse its bytes.
func (x *KeyIndex) AddKey(num bool, bits uint64, text []byte, ok bool) (int, bool) {
	if num || !ok {
		return x.class(num, bits, "", ok, true)
	}
	return x.text(unsafe.String(unsafe.SliceData(text), len(text)), true, true)
}

func (x *KeyIndex) lookup(key []Vector, r int, add bool) (int, bool) {
	switch len(key) {
	case 0: // one key, the empty tuple
		return x.class(false, 0, "", false, add)
	case 1:
		num, bits, text, ok := key[0].Key(r)
		return x.class(num, bits, text, ok, add)
	}
	x.buf = x.buf[:0]
	for c := range key {
		num, bits, text, ok := key[c].Key(r)
		x.buf = AppendCellKey(x.buf, num, bits, text, ok)
	}
	return x.text(unsafe.String(unsafe.SliceData(x.buf), len(x.buf)), true, add)
}

// class finds a key by its class and, when add is set and it is new,
// indexes it under the next number. A text is the caller's to keep.
func (x *KeyIndex) class(num bool, bits uint64, text string, ok, add bool) (int, bool) {
	k := x.n
	switch {
	case !ok:
		if x.null > 0 {
			return int(x.null - 1), true
		}
		if add {
			x.null = k + 1
		}
	case num:
		h := numHash(bits)
		slot, at := x.nums.find(bits, h)
		if at >= 0 {
			return int(at), true
		}
		if add {
			x.nums.insert(slot, bits, h, k)
		}
	default:
		return x.text(text, false, add)
	}
	if !add {
		return -1, false
	}
	if x.texts.keys != nil {
		x.texts.keys = append(x.texts.keys, "") // Texts stays by number
	}
	x.n++
	return int(k), false
}

// text finds a text key and, when add is set and it is new, indexes it
// under the next number: carved from the arena when carve is set (the
// caller reuses its bytes), as it is otherwise.
func (x *KeyIndex) text(s string, carve, add bool) (int, bool) {
	h := uint32(maphash.String(textSeed, s))
	slot, k := x.texts.find(s, h)
	if k >= 0 {
		return int(k), true
	}
	if !add {
		return -1, false
	}
	if carve {
		s = x.intern(s)
	}
	x.texts.insert(slot, s, h, x.n)
	x.n++
	return int(x.n - 1), false
}

// intern returns a copy of s carved from the arena: an index of byte keys
// allocates a chunk, each twice the last, not a string per key. Bytes once
// carved are never written again.
func (x *KeyIndex) intern(s string) string {
	if len(s) == 0 {
		return ""
	}
	if len(x.arena)+len(s) > cap(x.arena) {
		x.arena = make([]byte, 0, max(256, 2*cap(x.arena), len(s)))
	}
	at := len(x.arena)
	x.arena = append(x.arena, s...)
	x.carved += len(s)
	return unsafe.String(&x.arena[at], len(s))
}

// textSeed hashes every KeyIndex's texts: one seed for the process.
var textSeed = maphash.MakeSeed()

// numHash is a number key's 32-bit hash: its CanonBits multiplied by an odd
// constant, the product's high half folded onto its low half. The high half
// depends on every bit below it, so small codes spread; the fold brings it
// down to the low half, where a double's exponent and leading mantissa —
// the bits small integers as doubles differ in, their low bits all zero —
// land after the multiply. One multiply and one shift, not a call.
func numHash(bits uint64) uint32 {
	bits *= 0xd6e8feb86659fd93
	return uint32(bits ^ bits>>32)
}

// flatTable is one class of KeyIndex's keys, a flat open-addressing table.
// A slot holds a key's 32-bit hash above its number plus one (0 is empty),
// so the collector has nothing to scan in it and a key costs no object of
// its own; the key itself is keys[number]. A hash's home slot is the hash
// scaled to the table's length — a multiply and a fixed shift, whatever the
// length — and a collision takes the next free slot. The table is kept at
// most three quarters full.
type flatTable[K string | uint64] struct {
	slots []uint64
	keys  []K // by key number: the key, the zero value for one of another class
	n     int // keys in slots
}

// reserve makes room for n keys in an empty table, keeping a larger one.
func (t *flatTable[K]) reserve(n int) {
	if need := max(8, n+n/3+1); len(t.slots) < need {
		t.slots = make([]uint64, need)
	}
	if t.keys == nil || cap(t.keys) < n {
		t.keys = make([]K, 0, n)
	}
}

// reset empties the table, keeping its arrays; a string key is cleared.
func (t *flatTable[K]) reset() {
	if t.n > 0 {
		clear(t.slots)
	}
	clear(t.keys)
	t.keys, t.n = t.keys[:0], 0
}

// find returns the number of key s, hashed to h, or -1 and the free slot
// where it would go.
func (t *flatTable[K]) find(s K, h uint32) (slot int, k int32) {
	if len(t.slots) == 0 {
		return 0, -1
	}
	i := t.home(h)
	for {
		e := t.slots[i]
		if e == 0 {
			return i, -1
		}
		if uint32(e>>32) == h && t.keys[uint32(e)-1] == s {
			return i, int32(uint32(e) - 1)
		}
		if i++; i == len(t.slots) {
			i = 0
		}
	}
}

// insert indexes key s, hashed to h, as number k at slot, the free slot
// find returned for it.
func (t *flatTable[K]) insert(slot int, s K, h uint32, k int32) {
	e := uint64(h)<<32 | uint64(k+1)
	if 4*(t.n+1) > 3*len(t.slots) {
		old := t.slots
		t.slots = make([]uint64, max(8, 2*len(old)))
		for _, o := range old {
			if o != 0 {
				t.place(o)
			}
		}
		t.place(e)
	} else {
		t.slots[slot] = e
	}
	t.n++
	var zero K
	for len(t.keys) < int(k) {
		t.keys = append(t.keys, zero) // the keys of other classes before this one
	}
	t.keys = append(t.keys, s)
}

// place puts slot entry e at the first free slot from its hash's home.
func (t *flatTable[K]) place(e uint64) {
	i := t.home(uint32(e >> 32))
	for t.slots[i] != 0 {
		if i++; i == len(t.slots) {
			i = 0
		}
	}
	t.slots[i] = e
}

// home is hash h's first slot: h scaled to the table's length.
func (t *flatTable[K]) home(h uint32) int { return int(uint64(h) * uint64(len(t.slots)) >> 32) }

// AppendCellKey appends one cell's key by Vector.Key's classes: a tag, then
// a number's bits or a text's length and bytes; NULL (ok false) is the tag
// alone. The fixed width and the length prefix keep one tuple's cells from
// passing for another's.
func AppendCellKey(key []byte, num bool, bits uint64, text string, ok bool) []byte {
	switch {
	case !ok:
		return append(key, 0)
	case num:
		return binary.LittleEndian.AppendUint64(append(key, 1), bits)
	}
	return append(binary.AppendUvarint(append(key, 2), uint64(len(text))), text...)
}

// Key classifies row r as KeyIndex groups it: a number and its CanonBits,
// or a text — a string as the vector holds it, a blob its %v form. ok is
// false for NULL.
func (v *Vector) Key(r int) (num bool, bits uint64, text string, ok bool) {
	switch {
	case v.IsNull(r):
		return false, 0, "", false
	case v.Type == metadata.TypeString:
		return false, 0, v.Strs[r], true
	case v.Type == metadata.TypeDouble:
		return true, CanonBits(v.Floats[r]), "", true
	case v.Type == metadata.TypeBytes:
		return false, 0, fmt.Sprintf("%v", v.Box(r)), true
	}
	return true, CanonBits(float64(v.Ints[r])), "", true
}

// KeyCompare orders row r of v against row s of o by Key's classes, whatever
// the two vectors' types: NULL first, then numbers by value — every NaN
// before every other number, -0 as 0, a long as its float64 — then texts by
// their bytes. It is the one total order of group keys, and it is 0 exactly
// when KeyIndex takes the two for one key.
func (v *Vector) KeyCompare(r int, o *Vector, s int) int {
	an, bn := v.IsNull(r), o.IsNull(s)
	switch {
	case an || bn:
		if an == bn {
			return 0
		}
		if an {
			return -1
		}
		return 1
	case v.Type == metadata.TypeString && o.Type == metadata.TypeString:
		return strings.Compare(v.Strs[r], o.Strs[s])
	}
	x, xNum := v.keyNum(r)
	y, yNum := o.keyNum(s)
	switch {
	case xNum && yNum:
		return cmp.Compare(x, y)
	case xNum:
		return -1
	case yNum:
		return 1
	}
	_, _, tx, _ := v.Key(r)
	_, _, ty, _ := o.Key(s)
	return strings.Compare(tx, ty)
}

// keyNum is a non-NULL row as the number Key classes it by, or false for a
// text.
func (v *Vector) keyNum(r int) (float64, bool) {
	switch v.Type {
	case metadata.TypeString, metadata.TypeBytes:
		return 0, false
	case metadata.TypeDouble:
		return v.Floats[r], true
	}
	return float64(v.Ints[r]), true
}

// CanonBits is a number's key: its float64 bits, with every NaN as one and
// -0 as 0, so two numbers get the same bits exactly when they are one group
// value. It is the one place that canonicalization is decided.
func CanonBits(f float64) uint64 {
	switch {
	case f != f:
		f = math.NaN()
	case f == 0:
		f = 0
	}
	return math.Float64bits(f)
}
