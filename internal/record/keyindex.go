package record

import (
	"encoding/binary"
	"unsafe"

	"repro/internal/metadata"
)

// KeyIndex numbers the distinct keys it is shown — 0, 1, 2, … in order of
// first sight — so a table of groups, or a join's build side, is typed
// vectors and slices indexed by that number, with no heap object per key.
// A key is one row of a tuple of vectors, and two keys are one exactly when
// AppendValueKey spells them the same, whichever vector types hold them: a
// single column is indexed by Vector.Key's classes — a number by its
// CanonBits, a text by itself, NULL a key of its own — and a tuple by
// appendCellKey's bytes carved from an arena, so neither formats a number
// nor quotes a string per row. The zero value is an empty index.
type KeyIndex struct {
	n     int32
	nums  map[uint64]int32 // a single column's numbers → key
	strs  map[string]int32 // its texts, or a tuple's key bytes → key
	null  int32            // key+1 of a single column's NULL; 0: none
	buf   []byte           // scratch: a tuple's key bytes
	arena []byte           // backing of the tuple keys in strs
}

// Reserve makes the index's maps, empty, sized for n keys of the shape of
// key: numbers for a single column that is not a string column, texts for a
// string column or a tuple.
func (x *KeyIndex) Reserve(key []Vector, n int) {
	nums, strs := 0, n
	if len(key) == 1 && key[0].Type != metadata.TypeString {
		nums, strs = n, 0
	}
	x.nums, x.strs = make(map[uint64]int32, nums), make(map[string]int32, strs)
}

// ArenaBytes is the capacity of the arena the tuple keys are carved from,
// for a table's footprint.
func (x *KeyIndex) ArenaBytes() int { return cap(x.arena) }

// Add returns the number of the key at row r of key and true when it is
// indexed; otherwise it indexes the key under the next number — the count
// of keys indexed before it — and returns that and false.
func (x *KeyIndex) Add(key []Vector, r int) (int, bool) { return x.lookup(key, r, true) }

// Find returns the number of the key at row r of key and true, or -1 and
// false when it is not indexed.
func (x *KeyIndex) Find(key []Vector, r int) (int, bool) { return x.lookup(key, r, false) }

func (x *KeyIndex) lookup(key []Vector, r int, add bool) (int, bool) {
	if add && x.nums == nil {
		x.Reserve(key, 0)
	}
	k := x.n
	switch {
	case len(key) == 0: // one key, the empty tuple
		if x.n > 0 {
			return 0, true
		}
	case len(key) > 1:
		x.buf = x.buf[:0]
		for c := range key {
			x.buf = key[c].appendCellKey(x.buf, r)
		}
		if at, ok := x.strs[string(x.buf)]; ok {
			return int(at), true
		}
		if add {
			x.strs[Intern(&x.arena, x.buf)] = k
		}
	default:
		switch num, bits, text, ok := key[0].Key(r); {
		case !ok:
			if x.null > 0 {
				return int(x.null - 1), true
			}
			if add {
				x.null = k + 1
			}
		case num:
			if at, ok := x.nums[bits]; ok {
				return int(at), true
			}
			if add {
				x.nums[bits] = k
			}
		default:
			if at, ok := x.strs[text]; ok {
				return int(at), true
			}
			if add {
				x.strs[text] = k
			}
		}
	}
	if !add {
		return -1, false
	}
	x.n++
	return int(k), false
}

// appendCellKey appends row r's key encoding by Key's classes: a tag, then a
// number's CanonBits or a text's length and bytes; NULL is the tag alone.
// The length prefix keeps a tuple's keys from aliasing.
func (v *Vector) appendCellKey(key []byte, r int) []byte {
	switch num, bits, text, ok := v.Key(r); {
	case !ok:
		return append(key, 0)
	case num:
		return binary.LittleEndian.AppendUint64(append(key, 1), bits)
	default:
		return append(binary.AppendUvarint(append(key, 2), uint64(len(text))), text...)
	}
}

// Intern returns a string of key's bytes carved from the arena: a table of
// byte keys allocates a chunk, each twice the last, not a string per key.
// Bytes once carved are never written again.
func Intern(arena *[]byte, key []byte) string {
	if len(*arena)+len(key) > cap(*arena) {
		*arena = make([]byte, 0, max(256, 2*cap(*arena), len(key)))
	}
	at := len(*arena)
	*arena = append(*arena, key...)
	return unsafe.String(&(*arena)[at], len(key))
}
