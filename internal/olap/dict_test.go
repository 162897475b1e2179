package olap

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/metadata"
	"repro/internal/record"
)

// dictSchema is one string column beside the time column: a consuming
// store's dictionary and nothing else to keep.
func dictSchema() *metadata.Schema {
	return &metadata.Schema{Name: "d", Version: 1, TimeField: "ts", Fields: []metadata.Field{
		{Name: "order_id", Type: metadata.TypeString, Nullable: true},
		{Name: "ts", Type: metadata.TypeTimestamp},
	}}
}

// dictValue is row i's order_id: new values, among them the empty string,
// long ones and ones that share a long prefix, with every seventh row a
// repeat of an earlier value and every thirteenth a NULL (nil).
func dictValue(i int) []byte {
	switch {
	case i%13 == 12:
		return nil
	case i%7 == 6:
		return dictValue(i / 2)
	case i == 0:
		return []byte{}
	case i%5 == 1:
		return []byte(strings.Repeat("restaurant/", 12) + fmt.Sprint(i))
	}
	return []byte(fmt.Sprintf("o-%08d", i))
}

// dictRow is row i of dictSchema as the cells appendRow takes.
func dictRow(i int) []record.Value {
	v := dictValue(i)
	return []record.Value{{Null: v == nil, B: v}, {I: 1_700_000_000_000 + int64(i)}}
}

// A consuming dictionary numbers its values as a Go map does, code for code
// — a new value the next code, a repeat its first one, NULL code 0 — over
// 25 000 rows, unsized and sized from a previous store, and each code reads
// back its value.
func TestConsumingDictionaryMatchesAMap(t *testing.T) {
	const rows = 25_000
	var last []dictSize
	for _, sized := range []string{"unsized", "sized from the last store"} {
		m := newMutableSegment("m", dictSchema(), rows, last)
		oracle := map[string]uint32{}
		for i := range rows {
			m.appendRow(dictRow(i))
			want := uint32(0)
			if v := dictValue(i); v != nil {
				code, seen := oracle[string(v)]
				if !seen {
					code = uint32(len(oracle) + 1)
					oracle[string(v)] = code
				}
				want = code
			}
			c := &m.cols[0]
			if got := c.codes[i]; got != want {
				t.Fatalf("%s: row %d (%q) has code %d, the map says %d", sized, i, dictValue(i), got, want)
			}
			if got := m.str(0, i); got != string(dictValue(i)) {
				t.Fatalf("%s: row %d reads %q, want %q", sized, i, got, dictValue(i))
			}
		}
		if n := len(m.cols[0].dict.Texts()); n != len(oracle)+1 {
			t.Fatalf("%s: %d dictionary entries, want %d and the NULL slot", sized, n, len(oracle))
		}
		last = m.dictSizes()
	}
}

// Once a store is sized from the last one's dictionaries, a new value costs
// no allocation: it is carved from the arena, its slot and entry are in the
// table and dictionary already reserved.
func TestConsumingDictionaryAllocatesNothingPerValue(t *testing.T) {
	const rows = 25_000
	first := newMutableSegment("m", dictSchema(), rows, nil)
	for i := range rows {
		first.appendRow(dictRow(i))
	}
	// The next store sees the same rows: every value is new to its own
	// dictionary, and the values come to what the last store's did.
	next := make([][]record.Value, rows)
	for i := range next {
		next[i] = dictRow(i)
	}
	// AllocsPerRun runs its function once before it counts: two stores,
	// each filled whole by one run, so what is counted is every allocation
	// of 25 000 rows, not an average rounded down.
	stores := []*mutableSegment{
		newMutableSegment("m", dictSchema(), rows, first.dictSizes()),
		newMutableSegment("m", dictSchema(), rows, first.dictSizes()),
	}
	run := 0
	if n := testing.AllocsPerRun(1, func() {
		for _, row := range next {
			stores[run].appendRow(row)
		}
		run++
	}); n != 0 {
		t.Errorf("appending %d rows of new values allocates %v times, want 0", rows, n)
	}
	if m := stores[1]; m.n != rows || m.str(0, rows-1) != string(next[rows-1][0].B) {
		t.Fatalf("the store holds %d rows, the last reading %q", m.n, m.str(0, rows-1))
	}
}

// A scan needs no lock on a consuming store: while ingest grows the
// dictionary's table, its arena and its entries past several reallocations
// (the store is unsized), readers snapshot the store and check each row's
// string and an equality filter, which compiles against the snapshot's
// dictionary, over what they took. The writer waits for a reader's round
// every 500 rows, so reads overlap the growth throughout. Run it under
// -race.
func TestConsumingDictionaryReadsUnderIngest(t *testing.T) {
	const rows = 20_000
	want, null := make([]string, rows), make([]bool, rows)
	for i := range want {
		want[i], null[i] = string(dictValue(i)), dictValue(i) == nil
	}
	m := newMutableSegment("m", dictSchema(), 0, nil)
	var (
		mu             sync.Mutex
		rounds, failed atomic.Int64
		wg             sync.WaitGroup
	)
	done := make(chan struct{})
	read := func(r, round int) bool {
		mu.Lock()
		sc := m.snapshot()
		mu.Unlock()
		if sc.n == 0 {
			return true
		}
		c := &sc.cols[0]
		for i := range sc.n {
			if got := c.strs[c.dense[i]]; got != want[i] {
				t.Errorf("reader %d: row %d reads %q, want %q", r, i, got, want[i])
				return false
			}
		}
		k := (round*7919 + r) % sc.n
		if null[k] {
			return true
		}
		n := 0
		for i := range sc.n {
			if !null[i] && want[i] == want[k] {
				n++
			}
		}
		q := &Query{Filters: []Filter{{Column: "order_id", Op: OpEq, Value: want[k]}},
			Aggs: []AggSpec{{Kind: AggCount, As: "n"}}}
		p, err := sc.executePartial(q, nil, nil)
		if err != nil {
			t.Errorf("reader %d: %v", r, err)
			return false
		}
		res, err := p.Finalize(q)
		if err != nil || res.Batch.Len != 1 || rowsOf(res)[0][0] != int64(n) {
			t.Errorf("reader %d: COUNT(*) of order_id = %q over %d rows = %v, %v; want %d", r, want[k], sc.n, res, err, n)
			return false
		}
		return true
	}
	for r := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; ; round++ {
				select {
				case <-done:
					return
				default:
				}
				if !read(r, round) {
					failed.Add(1)
					return
				}
				rounds.Add(1)
			}
		}()
	}
	for i := range rows {
		if i%500 == 0 {
			for seen := rounds.Load(); rounds.Load() == seen && failed.Load() == 0; {
				runtime.Gosched()
			}
		}
		mu.Lock()
		m.appendRow(dictRow(i))
		mu.Unlock()
	}
	close(done)
	wg.Wait()
	if c := &m.cols[0]; len(c.dict.Texts()) < rows/2 {
		t.Fatalf("the dictionary holds %d values", len(c.dict.Texts()))
	}
}
