package olap

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/metadata"
	"repro/internal/record"
)

// value returns the decoded value of a column at a row (nil when absent).
func (s *Segment) value(col string, row int) any {
	c := s.scan().col(col)
	if c == nil {
		return nil
	}
	var v record.Vector
	c.gather(&v, []int32{int32(row)}, make([]uint32, 1))
	return v.Box(0)
}

func ordersSchema() *metadata.Schema {
	return &metadata.Schema{
		Name:    "orders",
		Version: 1,
		Fields: []metadata.Field{
			{Name: "order_id", Type: metadata.TypeString},
			{Name: "city", Type: metadata.TypeString, Dimension: true},
			{Name: "status", Type: metadata.TypeString, Dimension: true},
			{Name: "amount", Type: metadata.TypeDouble},
			{Name: "items", Type: metadata.TypeLong},
			{Name: "rush", Type: metadata.TypeBool, Nullable: true},
			{Name: "ts", Type: metadata.TypeTimestamp},
		},
		TimeField:  "ts",
		PrimaryKey: "order_id",
	}
}

func orderRows(n int) []record.Record {
	cities := []string{"sf", "nyc", "la", "chi"}
	statuses := []string{"placed", "cooking", "delivered"}
	rows := make([]record.Record, n)
	for i := range rows {
		rows[i] = record.Record{
			"order_id": fmt.Sprintf("o-%05d", i),
			"city":     cities[i%len(cities)],
			"status":   statuses[i%len(statuses)],
			"amount":   float64(i%50) + 0.5,
			"items":    int64(i%7 + 1),
			"ts":       int64(1700000000000 + i*1000),
		}
		if i%2 == 0 {
			rows[i]["rush"] = i%4 == 0
		}
	}
	return rows
}

func buildTestSegment(t *testing.T, rows []record.Record, cfg IndexConfig) *Segment {
	t.Helper()
	seg, err := BuildSegment("seg0", ordersSchema(), rows, cfg, -1)
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

func TestPackedInts(t *testing.T) {
	values := []int{0, 1, 5, 1023, 7, 512, 0, 1023}
	p := newPackedInts(values, 1023)
	if p.Bits != 10 {
		t.Errorf("bits = %d, want 10", p.Bits)
	}
	for i, v := range values {
		if got := p.Get(i); got != v {
			t.Errorf("Get(%d) = %d, want %d", i, got, v)
		}
	}
}

func TestPackedIntsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		values := make([]int, len(raw))
		max := 0
		for i, v := range raw {
			values[i] = int(v)
			if int(v) > max {
				max = int(v)
			}
		}
		p := newPackedInts(values, max)
		for i, v := range values {
			if p.Get(i) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSegmentBuildAndValues(t *testing.T) {
	rows := orderRows(100)
	seg := buildTestSegment(t, rows, IndexConfig{})
	if seg.NumRows != 100 {
		t.Fatalf("NumRows = %d", seg.NumRows)
	}
	if seg.MinTime != 1700000000000 || seg.MaxTime != 1700000000000+99*1000 {
		t.Errorf("time bounds = [%d, %d]", seg.MinTime, seg.MaxTime)
	}
	// Spot-check decoded values.
	if got := seg.value("city", 5); got != "nyc" {
		t.Errorf("value(city,5) = %v", got)
	}
	if got := seg.value("items", 6); got != int64(7) {
		t.Errorf("value(items,6) = %v (%T)", got, got)
	}
	if got := seg.value("rush", 1); got != nil {
		t.Errorf("absent nullable = %v, want nil", got)
	}
	if got := seg.value("rush", 4); got != true {
		t.Errorf("value(rush,4) = %v", got)
	}
}

// The round trip must preserve every column type (string, double, long,
// nullable bool, timestamp), null presence, the time bounds the lifecycle
// layer prunes and expires by, and the secondary indexes — the deep-store
// offload/reload path (internal/olap/lifecycle) serves queries from
// decoded segments, so anything lost here would silently corrupt cold
// reads.
//
// A decoded segment is deep-equal to the sealed one, its star-tree rebuilt
// from the decoded columns and answering E4's star-tree query as the
// original's did. One segment always encodes to the same bytes. Bytes cut
// short, or whose count claims more than they hold, are an error found
// before the claimed count is allocated.
func TestSegmentEncodeDecodeRoundTrip(t *testing.T) {
	seg := buildTestSegment(t, orderRows(50), IndexConfig{InvertedColumns: []string{"city", "items"}})
	data := encodeSegment(t, seg)
	checkRoundTrip(t, seg, data)
	for range 3 { // the column map's order differs from walk to walk
		if again := encodeSegment(t, seg); !bytes.Equal(again, data) {
			t.Fatal("two encodes of one segment differ")
		}
	}

	starred := buildTestSegment(t, orderRows(200), IndexConfig{InvertedColumns: []string{"city"},
		StarTree: &StarTreeConfig{Dimensions: []string{"city", "status"}, Metrics: []string{"amount"}, MaxLeafRecords: 10}})
	got := checkRoundTrip(t, starred, encodeSegment(t, starred))
	q := &Query{GroupBy: []string{"city"}, Aggs: []AggSpec{{Kind: AggSum, Column: "amount"}}}
	want, err := starred.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := got.Execute(q, nil)
	if err != nil || r.Stats.StarTreeServed != 1 || !reflect.DeepEqual(rowsOf(r), rowsOf(want)) {
		t.Fatalf("rebuilt star-tree answers %v (served %d, %v), want %v", rowsOf(r), r.Stats.StarTreeServed, err, rowsOf(want))
	}

	// Sorted-column segments round-trip the Sorted flag the binary-search
	// path depends on.
	sorted := buildTestSegment(t, orderRows(50), IndexConfig{SortedColumn: "city"})
	if got := checkRoundTrip(t, sorted, encodeSegment(t, sorted)); !got.Columns["city"].Sorted {
		t.Error("Sorted flag lost in round trip")
	}
	// A Sorted flag on codes out of order would answer ranges wrongly by
	// binary search: such bytes do not decode.
	sorted.Columns["city"].Sorted, sorted.Columns["order_id"].Sorted = false, true
	if _, err := DecodeSegment(encodeSegment(t, sorted)); err == nil || !strings.Contains(err.Error(), "sorted order") {
		t.Errorf("a Sorted flag on unsorted codes decoded: err = %v", err)
	}

	for n := range len(data) {
		if _, err := DecodeSegment(data[:n]); err == nil {
			t.Fatalf("the first %d of %d bytes decoded", n, len(data))
		}
	}
	// The field count sits after the magic, the version, the name, the
	// partition, the row count, the time bounds, the schema's name and its
	// version.
	at := len(segmentMagic) + 1 + 4 + len(seg.Name) + 8 + 4 + 8 + 8 + 4 + len(seg.Schema.Name) + 8
	if le.Uint32(data[at:]) != uint32(len(seg.Schema.Fields)) {
		t.Fatalf("no field count at byte %d", at)
	}
	overrun := bytes.Clone(data)
	le.PutUint32(overrun[at:], 1<<31)
	if b := heapBytes(func() {
		if _, err := DecodeSegment(overrun); !errors.Is(err, errSegmentShort) {
			t.Fatalf("a count past the bytes: err = %v", err)
		}
	}); b > 1<<10 {
		t.Errorf("decoding a count of 2^31 fields allocated %d bytes", b)
	}
}

// TestSegmentStringDictionaryLengths: a string dictionary is its size, each
// value's length as a shortest-form uvarint, then the values' bytes. The
// lengths are summed against the bytes left before the values are cut, so
// lengths past the end, a size past the bytes and a longer spelling of a
// length (which would not re-encode to its bytes) are errors, found before
// anything is sized by them.
func TestSegmentStringDictionaryLengths(t *testing.T) {
	field := metadata.Field{Name: "s", Type: metadata.TypeString}
	stored := func(size uint32, lens []byte, values string) []byte {
		b := []byte{0} // flags
		b = le.AppendUint32(b, size)
		b = append(append(b, lens...), values...)
		b = append(b, 2)                  // packed width
		b = le.AppendUint32(b, 1)         // one word
		return le.AppendUint64(b, 0b0100) // codes 0, 1
	}
	decode := func(data []byte) (*column, error) {
		var c column
		r := segmentReader{data: data}
		err := c.decode(&r, field, 2)
		return &c, err
	}
	c, err := decode(stored(2, []byte{1, 2}, "abc"))
	if err != nil || !reflect.DeepEqual(c.Dict.Strs, []string{"a", "bc"}) {
		t.Fatalf("decode = %q, %v; want [a bc]", c.Dict.Strs, err)
	}
	for name, data := range map[string][]byte{
		"lengths past the bytes": stored(2, []byte{1, 200}, "abc"),
		"a size past the bytes":  stored(1<<31, []byte{1, 2}, "abc"),
		"a longer spelling":      stored(2, []byte{0x81, 0x00, 2}, "abc"),
		"a length past 2^63":     stored(1, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, "abc"),
	} {
		if b := heapBytes(func() {
			if _, err := decode(data); !errors.Is(err, errSegmentShort) {
				t.Errorf("%s: err = %v, want errSegmentShort", name, err)
			}
		}); b > 1<<10 {
			t.Errorf("%s: decoding allocated %d bytes", name, b)
		}
	}
}

// heapBytes returns the bytes fn allocates on the heap.
func heapBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// encodeSegment is seg.Encode, which must not fail.
func encodeSegment(t *testing.T, seg *Segment) []byte {
	t.Helper()
	data, err := seg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkRoundTrip decodes data into a segment deep-equal to seg that reads
// seg's values and answers as it does and re-encodes to data, and returns it.
func checkRoundTrip(t *testing.T, seg *Segment, data []byte) *Segment {
	t.Helper()
	got, err := DecodeSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, seg) {
		t.Fatalf("decoded segment differs from the sealed one")
	}
	// Every column type decodes identically, including absent (null)
	// values of the nullable bool column.
	for i := 0; i < seg.NumRows; i++ {
		for _, col := range []string{"order_id", "city", "status", "amount", "items", "rush", "ts"} {
			if !reflect.DeepEqual(got.value(col, i), seg.value(col, i)) {
				t.Fatalf("row %d col %s: %v != %v", i, col, got.value(col, i), seg.value(col, i))
			}
		}
	}
	// The inverted indexes survive and answer identically, on both the
	// string and the numeric indexed column; a != keeps no NULL.
	for _, q := range []*Query{
		{Filters: []Filter{{Column: "city", Op: OpEq, Value: "sf"}}, Aggs: []AggSpec{{Kind: AggCount}}},
		{Filters: []Filter{{Column: "rush", Op: OpNe, Value: true}, {Column: "items", Op: OpNe, Value: int64(3)}},
			GroupBy: []string{"rush"}, Aggs: []AggSpec{{Kind: AggCount}, {Kind: AggMax, Column: "items"}}},
		{Filters: []Filter{{Column: "items", Op: OpBetween, Value: int64(2), Value2: int64(5)}},
			GroupBy: []string{"status"}, Aggs: []AggSpec{{Kind: AggSum, Column: "amount"}}},
	} {
		r1, err := seg.Execute(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := got.Execute(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rowsOf(r1), rowsOf(r2)) {
			t.Fatalf("decoded segment answers differently: %v vs %v", rowsOf(r1), rowsOf(r2))
		}
	}
	// Re-archiving a reloaded segment writes the bytes it was read from.
	if again := encodeSegment(t, got); !bytes.Equal(again, data) {
		t.Fatal("a decoded segment re-encodes to other bytes")
	}
	return got
}

// TestSegmentEncodeAllocatesOnce: Encode sizes its output first and then
// writes it into one buffer of exactly that size, so an encode is one
// allocation of len(out) bytes.
func TestSegmentEncodeAllocatesOnce(t *testing.T) {
	seg := buildTestSegment(t, orderRows(5000), IndexConfig{InvertedColumns: []string{"city", "status"},
		StarTree: &StarTreeConfig{Dimensions: []string{"city", "status"}, Metrics: []string{"amount"}}})
	out := encodeSegment(t, seg)
	if cap(out) != len(out) {
		t.Errorf("Encode returned %d bytes in a buffer of %d", len(out), cap(out))
	}
	if allocs := testing.AllocsPerRun(20, func() { encodeSegment(t, seg) }); allocs != 1 {
		t.Errorf("Encode made %.1f allocations, want 1", allocs)
	}
	// The one buffer is len(out) bytes, up to the allocator's rounding of a
	// large object to its 8 KB pages.
	const runs = 20
	per := heapBytes(func() {
		for range runs {
			encodeSegment(t, seg)
		}
	}) / runs
	if per < uint64(len(out)) || per > uint64(len(out))+8<<10 {
		t.Errorf("Encode allocated %d bytes for %d bytes of output", per, len(out))
	}
}

// TestFilterOps counts each filter over one sealed segment per index
// configuration and holds every count to the consuming store's of the same
// rows.
func TestFilterOps(t *testing.T) {
	rows := orderRows(120)
	consuming := storeOf(t, ordersSchema(), rows).snapshot()
	for _, cfg := range []IndexConfig{
		{},
		{InvertedColumns: []string{"city", "status", "amount", "items", "rush"}},
		{SortedColumn: "city"},
	} {
		seg := buildTestSegment(t, rows, cfg)
		count := func(f ...Filter) int64 {
			q := &Query{Filters: f, Aggs: []AggSpec{{Kind: AggCount}}}
			r, err := seg.Execute(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			p, err := consuming.executePartial(q, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			c, err := p.Finalize(q)
			if err != nil {
				t.Fatal(err)
			}
			if rowsOf(r)[0][0] != rowsOf(c)[0][0] {
				t.Errorf("cfg %+v %v: sealed count %v, consuming %v", cfg, f, rowsOf(r)[0][0], rowsOf(c)[0][0])
			}
			return rowsOf(r)[0][0].(int64)
		}
		// != never keeps a NULL: rush is NULL on odd rows, true on rows
		// 0 mod 4 and false on rows 2 mod 4 — also beside a != on the
		// indexed (or sorted) city.
		notRush := func(v bool, city string) (n int64) {
			for _, r := range rows {
				if rush, ok := r["rush"].(bool); ok && rush != v && r["city"] != city {
					n++
				}
			}
			return n
		}
		for _, v := range []bool{true, false} {
			if got, want := count(Filter{Column: "rush", Op: OpNe, Value: v}), notRush(v, ""); got != want || want == 0 {
				t.Errorf("cfg %+v: rush != %v = %d, want %d", cfg, v, got, want)
			}
			if got, want := count(Filter{Column: "rush", Op: OpNe, Value: v}, Filter{Column: "city", Op: OpNe, Value: "la"}), notRush(v, "la"); got != want {
				t.Errorf("cfg %+v: rush != %v and city != la = %d, want %d", cfg, v, got, want)
			}
		}
		if got := count(Filter{Column: "city", Op: OpEq, Value: "sf"}); got != 30 {
			t.Errorf("cfg %+v: eq = %d, want 30", cfg, got)
		}
		if got := count(Filter{Column: "city", Op: OpNe, Value: "sf"}); got != 90 {
			t.Errorf("cfg %+v: ne = %d, want 90", cfg, got)
		}
		if got := count(Filter{Column: "city", Op: OpIn, Values: []any{"sf", "la"}}); got != 60 {
			t.Errorf("cfg %+v: in = %d, want 60", cfg, got)
		}
		if got := count(Filter{Column: "items", Op: OpLt, Value: int64(3)}); got != 120/7*2+2 {
			// items cycles 1..7 over 120 rows: 17 full cycles (119 rows) + 1.
			// items<3 => items in {1,2}: 17*2 + 1 (row 119 has items=1) + ...
			// compute directly instead:
			want := int64(0)
			for i := 0; i < 120; i++ {
				if i%7+1 < 3 {
					want++
				}
			}
			if got != want {
				t.Errorf("cfg %+v: lt = %d, want %d", cfg, got, want)
			}
		}
		if got := count(Filter{Column: "items", Op: OpBetween, Value: int64(2), Value2: int64(4)}); got > 0 {
			want := int64(0)
			for i := 0; i < 120; i++ {
				if v := i%7 + 1; v >= 2 && v <= 4 {
					want++
				}
			}
			if got != want {
				t.Errorf("cfg %+v: between = %d, want %d", cfg, got, want)
			}
		}
		// Compound filter.
		if got := count(
			Filter{Column: "city", Op: OpEq, Value: "sf"},
			Filter{Column: "status", Op: OpEq, Value: "placed"},
		); got <= 0 || got >= 30 {
			t.Errorf("cfg %+v: compound = %d, want in (0,30)", cfg, got)
		}
		// Missing value.
		if got := count(Filter{Column: "city", Op: OpEq, Value: "tokyo"}); got != 0 {
			t.Errorf("cfg %+v: missing value = %d", cfg, got)
		}
	}
}

func TestFilterComparisonOps(t *testing.T) {
	rows := orderRows(50)
	seg := buildTestSegment(t, rows, IndexConfig{})
	count := func(op FilterOp, v int64) int64 {
		q := &Query{Filters: []Filter{{Column: "items", Op: op, Value: v}}, Aggs: []AggSpec{{Kind: AggCount}}}
		r, err := seg.Execute(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rowsOf(r)[0][0].(int64)
	}
	brute := func(pred func(int64) bool) int64 {
		var n int64
		for i := 0; i < 50; i++ {
			if pred(int64(i%7 + 1)) {
				n++
			}
		}
		return n
	}
	if got, want := count(OpLe, 3), brute(func(v int64) bool { return v <= 3 }); got != want {
		t.Errorf("le = %d, want %d", got, want)
	}
	if got, want := count(OpGt, 5), brute(func(v int64) bool { return v > 5 }); got != want {
		t.Errorf("gt = %d, want %d", got, want)
	}
	if got, want := count(OpGe, 5), brute(func(v int64) bool { return v >= 5 }); got != want {
		t.Errorf("ge = %d, want %d", got, want)
	}
	if got, want := count(OpLt, 1), brute(func(v int64) bool { return v < 1 }); got != want {
		t.Errorf("lt-min = %d, want %d", got, want)
	}
}

// TestStrictBoundsAbsentAndExtremeLiterals pins codeRangeBitmap's
// exclusive-bound adjustment against brute force: the boundary code is only
// dropped when the literal is exactly present in the dictionary, so `<` and
// `>` with absent literals, literals at the dictionary extremes, and
// literals entirely outside the domain must all stay exact. Regression
// guard for the top-K rewrite of the execution path.
func TestStrictBoundsAbsentAndExtremeLiterals(t *testing.T) {
	rows := orderRows(120) // amount ∈ {0.5 .. 49.5}, items ∈ {1 .. 7}
	brute := func(col string, pred func(float64) bool) int64 {
		var n int64
		for _, r := range rows {
			if pred(r.Double(col)) {
				n++
			}
		}
		return n
	}
	cases := []struct {
		name string
		f    Filter
		want int64
	}{
		{"lt-absent-mid", Filter{Column: "amount", Op: OpLt, Value: 10.25},
			brute("amount", func(v float64) bool { return v < 10.25 })},
		{"gt-absent-mid", Filter{Column: "amount", Op: OpGt, Value: 10.25},
			brute("amount", func(v float64) bool { return v > 10.25 })},
		{"lt-present-mid", Filter{Column: "amount", Op: OpLt, Value: 10.5},
			brute("amount", func(v float64) bool { return v < 10.5 })},
		{"gt-present-mid", Filter{Column: "amount", Op: OpGt, Value: 10.5},
			brute("amount", func(v float64) bool { return v > 10.5 })},
		{"lt-dict-min", Filter{Column: "amount", Op: OpLt, Value: 0.5}, 0},
		{"gt-dict-max", Filter{Column: "amount", Op: OpGt, Value: 49.5}, 0},
		{"lt-below-domain", Filter{Column: "amount", Op: OpLt, Value: 0.1}, 0},
		{"gt-above-domain", Filter{Column: "amount", Op: OpGt, Value: 100.0}, 0},
		{"lt-above-domain", Filter{Column: "amount", Op: OpLt, Value: 100.0}, 120},
		{"gt-below-domain", Filter{Column: "amount", Op: OpGt, Value: 0.1}, 120},
		{"lt-long-absent", Filter{Column: "items", Op: OpLt, Value: int64(0)}, 0},
		{"gt-long-dict-min", Filter{Column: "items", Op: OpGt, Value: int64(1)},
			brute("items", func(v float64) bool { return v > 1 })},
		{"lt-long-dict-max", Filter{Column: "items", Op: OpLt, Value: int64(7)},
			brute("items", func(v float64) bool { return v < 7 })},
	}
	for _, cfg := range []IndexConfig{
		{},
		{InvertedColumns: []string{"amount", "items"}},
		{SortedColumn: "amount"},
	} {
		seg := buildTestSegment(t, rows, cfg)
		for _, tc := range cases {
			q := &Query{Filters: []Filter{tc.f}, Aggs: []AggSpec{{Kind: AggCount}}}
			r, err := seg.Execute(q, nil)
			if err != nil {
				t.Fatalf("cfg %+v case %s: %v", cfg, tc.name, err)
			}
			if got := rowsOf(r)[0][0].(int64); got != tc.want {
				t.Errorf("cfg %+v case %s: count = %d, want %d", cfg, tc.name, got, tc.want)
			}
		}
	}
}

func TestGroupByAggregation(t *testing.T) {
	rows := orderRows(120)
	seg := buildTestSegment(t, rows, IndexConfig{})
	q := &Query{
		GroupBy: []string{"city"},
		Aggs: []AggSpec{
			{Kind: AggCount},
			{Kind: AggSum, Column: "amount"},
			{Kind: AggMin, Column: "amount"},
			{Kind: AggMax, Column: "amount"},
		},
	}
	r, err := seg.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Batch.Len != 4 {
		t.Fatalf("groups = %d, want 4 cities", r.Batch.Len)
	}
	var totalCount int64
	var totalSum float64
	for _, row := range rowsOf(r) {
		totalCount += row[1].(int64)
		totalSum += row[2].(float64)
		if row[3].(float64) > row[4].(float64) {
			t.Errorf("min > max in %v", row)
		}
	}
	if totalCount != 120 {
		t.Errorf("total count = %d", totalCount)
	}
	var wantSum float64
	for i := 0; i < 120; i++ {
		wantSum += float64(i%50) + 0.5
	}
	if totalSum != wantSum {
		t.Errorf("total sum = %v, want %v", totalSum, wantSum)
	}
}

func TestSelectionQueryWithOrderAndLimit(t *testing.T) {
	seg := buildTestSegment(t, orderRows(50), IndexConfig{})
	q := &Query{
		Select:  []string{"order_id", "amount"},
		Filters: []Filter{{Column: "city", Op: OpEq, Value: "sf"}},
		OrderBy: []OrderSpec{{Column: "amount", Desc: true}},
		Limit:   5,
	}
	r, err := seg.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Batch.Len != 5 {
		t.Fatalf("rows = %d", r.Batch.Len)
	}
	rows := rowsOf(r)
	for i := 1; i < len(rows); i++ {
		if rows[i][1].(float64) > rows[i-1][1].(float64) {
			t.Fatalf("not descending at %d", i)
		}
	}
}

func TestCountNonNullColumn(t *testing.T) {
	seg := buildTestSegment(t, orderRows(20), IndexConfig{})
	q := &Query{Aggs: []AggSpec{{Kind: AggCount, Column: "rush", As: "rush_count"}}}
	r, err := seg.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsOf(r)[0][0].(int64); got != 10 {
		t.Errorf("count(rush) = %d, want 10 non-null", got)
	}
}

func TestUnknownColumnsError(t *testing.T) {
	seg := buildTestSegment(t, orderRows(10), IndexConfig{})
	if _, err := seg.Execute(&Query{Filters: []Filter{{Column: "ghost", Op: OpEq, Value: 1}}, Aggs: []AggSpec{{Kind: AggCount}}}, nil); err == nil {
		t.Error("unknown filter column should error")
	}
	if _, err := seg.Execute(&Query{GroupBy: []string{"ghost"}, Aggs: []AggSpec{{Kind: AggCount}}}, nil); err == nil {
		t.Error("unknown group-by column should error")
	}
	if _, err := seg.Execute(&Query{Select: []string{"ghost"}}, nil); err == nil {
		t.Error("unknown select column should error")
	}
	if _, err := seg.Execute(&Query{Aggs: []AggSpec{{Kind: AggSum, Column: "ghost"}}}, nil); err == nil {
		t.Error("unknown agg column should error")
	}
}

func TestEmptySegmentRejected(t *testing.T) {
	if _, err := BuildSegment("x", ordersSchema(), nil, IndexConfig{}, -1); err == nil {
		t.Error("empty segment should be rejected")
	}
}

// TestBuildSegmentValidatesSchema: BuildSegment holds its schema and rows
// to what a deployment does — a double time field fails Schema.Validate,
// and a row without its required time has no place in the time bounds.
func TestBuildSegmentValidatesSchema(t *testing.T) {
	doubleTime := ordersSchema()
	for i := range doubleTime.Fields {
		if doubleTime.Fields[i].Name == "ts" {
			doubleTime.Fields[i].Type = metadata.TypeDouble
		}
	}
	rows := orderRows(3)
	if _, err := BuildSegment("x", doubleTime, rows, IndexConfig{}, -1); err == nil || !strings.Contains(err.Error(), "must be timestamp or long") {
		t.Errorf("double time field: err = %v, want Schema.Validate's", err)
	}
	if _, err := NewDeployment(DeploymentConfig{Table: TableConfig{Name: "x", Schema: doubleTime}, Servers: []*Server{NewServer("s0")}}); err == nil {
		t.Error("a deployment accepted a double time field")
	}
	delete(rows[1], "ts")
	if _, err := BuildSegment("x", ordersSchema(), rows, IndexConfig{}, -1); err == nil || !strings.Contains(err.Error(), `required field "ts"`) {
		t.Errorf("row without its required time: err = %v", err)
	}
}

func TestSortedColumnBinarySearchMatchesScan(t *testing.T) {
	rows := orderRows(200)
	plain := buildTestSegment(t, rows, IndexConfig{})
	sorted := buildTestSegment(t, rows, IndexConfig{SortedColumn: "amount"})
	q := &Query{
		Filters: []Filter{{Column: "amount", Op: OpBetween, Value: 10.5, Value2: 20.5}},
		Aggs:    []AggSpec{{Kind: AggCount}, {Kind: AggSum, Column: "amount"}},
	}
	r1, err := plain.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sorted.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rowsOf(r1), rowsOf(r2)) {
		t.Errorf("sorted path disagrees: %v vs %v", rowsOf(r1), rowsOf(r2))
	}
}

// TestSortedColumnRejectsUnorderableFields: a nullable or bool sorted column
// cannot keep column.Sorted's non-decreasing-codes promise, so both places a
// sorted column is configured — the table and the seal — refuse it by name.
func TestSortedColumnRejectsUnorderableFields(t *testing.T) {
	schema := &metadata.Schema{Name: "t", Version: 1, Fields: []metadata.Field{
		{Name: "id", Type: metadata.TypeString},
		{Name: "note", Type: metadata.TypeString, Nullable: true},
		{Name: "qty", Type: metadata.TypeLong, Nullable: true},
		{Name: "rush", Type: metadata.TypeBool},
	}}
	rows := []record.Record{{"id": "a", "note": "x", "qty": int64(1), "rush": true}, {"id": "b", "rush": false}}
	for _, tc := range []struct{ column, reason string }{
		{"note", "nullable"},
		{"qty", "nullable"},
		{"rush", "bool"},
		{"gone", "not in schema"},
	} {
		cfg := IndexConfig{SortedColumn: tc.column}
		_, tableErr := TableConfig{Name: "t", Schema: schema, Indexes: cfg}.withDefaults()
		_, sealErr := BuildSegment("s", schema, rows, cfg, -1)
		for _, err := range []error{tableErr, sealErr} {
			if err == nil || !strings.Contains(err.Error(), `"`+tc.column+`"`) || !strings.Contains(err.Error(), tc.reason) {
				t.Errorf("sorted column %s: err = %v, want one naming the column and %q", tc.column, err, tc.reason)
			}
		}
	}
	if _, err := BuildSegment("s", schema, rows, IndexConfig{SortedColumn: "id"}, -1); err != nil {
		t.Errorf("non-nullable string sorted column rejected: %v", err)
	}
}

func TestInvertedIndexMatchesScanProperty(t *testing.T) {
	// Property: for random filters, inverted-index execution equals scan.
	rows := orderRows(150)
	plain := buildTestSegment(t, rows, IndexConfig{})
	indexed := buildTestSegment(t, rows, IndexConfig{InvertedColumns: []string{"city", "items"}})
	cities := []string{"sf", "nyc", "la", "chi", "tokyo"}
	f := func(cityIdx uint8, itemCut uint8) bool {
		q := &Query{
			Filters: []Filter{
				{Column: "city", Op: OpEq, Value: cities[int(cityIdx)%len(cities)]},
				{Column: "items", Op: OpLe, Value: int64(itemCut % 9)},
			},
			Aggs: []AggSpec{{Kind: AggCount}, {Kind: AggSum, Column: "amount"}},
		}
		r1, err1 := plain.Execute(q, nil)
		r2, err2 := indexed.Execute(q, nil)
		if err1 != nil || err2 != nil {
			return false
		}
		return reflect.DeepEqual(rowsOf(r1), rowsOf(r2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBitmapOps(t *testing.T) {
	a := NewBitmap(130)
	b := NewBitmap(130)
	for i := 0; i < 130; i += 2 {
		a.Set(i)
	}
	for i := 0; i < 130; i += 3 {
		b.Set(i)
	}
	union := a.Clone()
	union.Or(b)
	inter := a.Clone()
	inter.And(b)
	diff := a.Clone()
	diff.AndNot(b)
	wantU, wantI, wantD := 0, 0, 0
	for i := 0; i < 130; i++ {
		ia, ib := i%2 == 0, i%3 == 0
		if ia || ib {
			wantU++
		}
		if ia && ib {
			wantI++
		}
		if ia && !ib {
			wantD++
		}
	}
	if union.Count() != wantU || inter.Count() != wantI || diff.Count() != wantD {
		t.Errorf("or/and/andnot = %d/%d/%d, want %d/%d/%d",
			union.Count(), inter.Count(), diff.Count(), wantU, wantI, wantD)
	}
	full := NewBitmap(130)
	full.Fill()
	if full.Count() != 130 {
		t.Errorf("Fill count = %d", full.Count())
	}
	full.Clear(0)
	if full.Get(0) || full.Count() != 129 {
		t.Error("Clear failed")
	}
	// Early-exit iteration.
	n := 0
	a.ForEach(func(i int) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Errorf("ForEach early exit visited %d", n)
	}
}

// TestPackedUnpackMatchesGet: at every width from 1 to 32 bits, unpack and
// getEach answer what Get does — from aligned and unaligned starts, for
// every length up to the end of the column, the final word included.
func TestPackedUnpackMatchesGet(t *testing.T) {
	const n = 200 // more than three words at every width but 1
	for bits := uint(1); bits <= 32; bits++ {
		p := randomPacked(bits, n, int64(bits))
		if p.Bits != bits {
			t.Fatalf("width %d packed at %d bits", bits, p.Bits)
		}
		dst := make([]uint32, n)
		for _, start := range []int{0, 1, 3, 63, 64, 65, 127, n - 2, n - 1, n} {
			for length := 0; start+length <= n; length++ {
				p.unpack(dst[:length], start)
				for k := range length {
					if want := p.Get(start + k); int(dst[k]) != want {
						t.Fatalf("width %d: unpack(start %d, len %d)[%d] = %d, Get = %d", bits, start, length, k, dst[k], want)
					}
				}
			}
		}
		sel := []int32{0, 2, 3, 64, 65, 130, n - 41}
		p.getEach(dst, 40, sel)
		for j, i := range sel {
			if want := p.Get(40 + int(i)); int(dst[j]) != want {
				t.Fatalf("width %d: getEach row %d = %d, Get = %d", bits, 40+i, dst[j], want)
			}
		}
	}
}

// TestColViewCodes: colView.codes gives row off+sel[j]'s code at j for
// contiguous and sparse selections, in both code layouts and at an offset;
// a contiguous selection of a dense column is the column's own slice and
// anything else lands in the caller's block.
func TestColViewCodes(t *testing.T) {
	const n = 3 * BatchRows
	p := randomPacked(11, n, 5)
	dense := make([]uint32, n)
	for i := range dense {
		dense[i] = uint32(i*7919) % 1000
	}
	views := map[string]*colView{
		"packed": {layout: layoutPacked, packed: &p},
		"dense":  {layout: layoutDense, dense: dense},
	}
	want := func(v *colView, row int) uint32 {
		if v.layout == layoutPacked {
			return uint32(p.Get(row))
		}
		return dense[row]
	}
	contiguous := func(from, to int) []int32 {
		sel := make([]int32, 0, to-from)
		for i := from; i < to; i++ {
			sel = append(sel, int32(i))
		}
		return sel
	}
	sparse := []int32{0, 1, 5, 63, 64, 200, 1000, BatchRows - 1}
	var block [BatchRows]uint32
	for name, v := range views {
		for _, off := range []int{0, 7, BatchRows, n - BatchRows} {
			for shape, sel := range map[string][]int32{
				"window": contiguous(0, BatchRows), "run": contiguous(13, 77),
				"one": {9}, "empty": nil, "sparse": sparse,
			} {
				got := v.codes(off, sel, block[:])
				if len(got) != len(sel) {
					t.Fatalf("%s %s off %d: %d codes for %d rows", name, shape, off, len(got), len(sel))
				}
				for j, i := range sel {
					if w := want(v, off+int(i)); got[j] != w {
						t.Fatalf("%s %s off %d: code of row %d = %d, want %d", name, shape, off, off+int(i), got[j], w)
					}
				}
				if len(got) == 0 {
					continue
				}
				inBlock := &got[0] == &block[0]
				if own := name == "dense" && shape != "sparse"; own == inBlock || own && &got[0] != &dense[off+int(sel[0])] {
					t.Errorf("%s %s off %d: codes in the block = %v, want %v", name, shape, off, inBlock, !own)
				}
			}
		}
	}
}

// TestIndexedFiltersBorrowPostingLists: filters resolved through inverted
// indexes read the posting lists and write none — two equalities (the D2
// dashboard shape, whose base is the intersection of two posting lists),
// an IN, a !=, a one-code range — run from several goroutines at once, leave
// every posting list word for word as it was and answer as the same
// segment without indexes does.
func TestIndexedFiltersBorrowPostingLists(t *testing.T) {
	rows := benchRows(3 * BatchRows)
	indexed, err := BuildSegment("s", benchSchema(), rows, benchIndexes, -1)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := BuildSegment("s", benchSchema(), rows, IndexConfig{}, -1)
	if err != nil {
		t.Fatal(err)
	}
	before := map[string][][]uint64{}
	for _, name := range benchIndexes.InvertedColumns {
		for _, bm := range indexed.Columns[name].Inverted {
			before[name] = append(before[name], slices.Clone(bm.Words))
		}
	}
	count := []AggSpec{{Kind: AggCount}, {Kind: AggSum, Column: "amount"}}
	queries := []*Query{
		benchShapes()["D2"],
		{Aggs: count, Filters: []Filter{{Column: "city", Op: OpEq, Value: "city_03"}, {Column: "status", Op: OpEq, Value: "placed"}}},
		{Aggs: count, Filters: []Filter{{Column: "status", Op: OpIn, Values: []any{"placed", "delivered"}}, {Column: "city", Op: OpNe, Value: "city_01"}}},
		{Aggs: count, Filters: []Filter{{Column: "status", Op: OpEq, Value: "placed"}, {Column: "city", Op: OpIn, Values: []any{"city_02", "city_09"}}}},
		{Aggs: count, Filters: []Filter{{Column: "city", Op: OpLe, Value: "city_00"}, {Column: "status", Op: OpGe, Value: "preparing"}}},
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 5 {
				for qi, q := range queries {
					got, err := indexed.Execute(q, nil)
					if err != nil {
						t.Error(err)
						return
					}
					want, err := plain.Execute(q, nil)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(rowsOf(got), rowsOf(want)) {
						t.Errorf("query %d: indexed %v, unindexed %v", qi, rowsOf(got), rowsOf(want))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for name, lists := range before {
		for code, words := range lists {
			if !slices.Equal(indexed.Columns[name].Inverted[code].Words, words) {
				t.Errorf("%s: the posting list of code %d changed", name, code)
			}
		}
	}
}
