package olap

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/metadata"
	"repro/internal/objstore"
	"repro/internal/record"
	"repro/internal/stream"
)

// Kernel micro-benchmarks (ROADMAP item 1): one consuming segment's worth of
// the pipeline benchmark's table — 25 000 rows, inverted index on city and
// status — scanned by the dashboard's four shapes in both layouts, plus the
// two ends of a consuming segment's life, the per-row append and the seal.
// Run with -benchmem; the layout gap is ConsumingScan/Dn against
// SealedScan/Dn.
//
// GroupByTwoCoded and TopKTrim are the ad-hoc pass's A4 and A1 on the sealed
// segment: the grouper's composite-code form and its trim; BrokerGroupBy
// runs both through the broker. BrokerDashPage runs D1, D3 and D4 through the
// broker with its cache off and on. BrokerOrderedSelect is an ordered
// selection's top-10 through the broker, trimmed and exact.
//
//	go test -run '^$' -bench 'Scan|Add|Ingest|Seal|GroupBy|TopK|DashPage|OrderedSelect' -benchmem ./internal/olap

const benchSegmentRows = 25_000

func benchSchema() *metadata.Schema {
	return &metadata.Schema{
		Name:    "orders",
		Version: 1,
		Fields: []metadata.Field{
			{Name: "order_id", Type: metadata.TypeString},
			{Name: "restaurant_id", Type: metadata.TypeLong, Dimension: true},
			{Name: "city", Type: metadata.TypeString, Dimension: true},
			{Name: "status", Type: metadata.TypeString, Dimension: true},
			{Name: "amount", Type: metadata.TypeDouble},
			{Name: "ts", Type: metadata.TypeTimestamp},
		},
		TimeField: "ts",
	}
}

var benchIndexes = IndexConfig{InvertedColumns: []string{"city", "status"}}

// benchRows draws rows shaped like the pipeline benchmark's: 5 000
// restaurants under a Zipf law, each in one of 16 cities, four statuses
// with the benchmark's shares, amounts in steps of 0.25, ten rows per
// millisecond of event time.
func benchRows(n int) []record.Record {
	rng := rand.New(rand.NewSource(14))
	zipf := rand.NewZipf(rng, 1.1, 1, 4999)
	statuses := []string{"delivered", "preparing", "placed", "picked_up"}
	shares := []float64{0.647, 0.788, 0.906, 1}
	rows := make([]record.Record, n)
	for i := range rows {
		restaurant := int64(zipf.Uint64())
		u, status := rng.Float64(), ""
		for si, s := range shares {
			if u < s {
				status = statuses[si]
				break
			}
		}
		rows[i] = record.Record{
			"order_id":      fmt.Sprintf("o%d", i),
			"restaurant_id": restaurant,
			"city":          fmt.Sprintf("city_%02d", restaurant%16),
			"status":        status,
			"amount":        5 + float64(rng.Intn(400))/4,
			"ts":            int64(1_700_000_000_000 + i/10),
		}
	}
	return rows
}

// benchShapes are the dashboard panels D1–D4 as the OLAP layer sees them.
func benchShapes() map[string]*Query {
	countSum := []AggSpec{{Kind: AggCount, As: "n"}, {Kind: AggSum, Column: "amount", As: "total"}}
	return map[string]*Query{
		"D1": {GroupBy: []string{"city"}, Aggs: countSum,
			Filters: []Filter{{Column: "status", Op: OpEq, Value: "delivered"}}},
		"D2": {Select: []string{"order_id", "restaurant_id", "amount", "ts"}, Limit: 100,
			Filters: []Filter{{Column: "city", Op: OpEq, Value: "city_03"},
				{Column: "status", Op: OpEq, Value: "placed"}, {Column: "amount", Op: OpGe, Value: 100.0}}},
		"D3": {GroupBy: []string{"restaurant_id"}, Aggs: []AggSpec{{Kind: AggSum, Column: "amount", As: "total"}},
			Filters: []Filter{{Column: "city", Op: OpEq, Value: "city_03"}},
			OrderBy: []OrderSpec{{Column: "total", Desc: true}}, Limit: 10},
		"D4": {GroupBy: []string{"city"}, Aggs: countSum,
			Filters: []Filter{{Column: "ts", Op: OpGe, Value: float64(1_700_000_000_000 + benchSegmentRows*3/40)}}},
	}
}

func benchStore(b *testing.B) *mutableSegment {
	b.Helper()
	m := newMutableSegment("bench", benchSchema(), benchSegmentRows, nil)
	for _, r := range benchRows(benchSegmentRows) {
		if _, err := m.add(r); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

var benchSink *Partial

// BenchmarkConsumingScan is what a query pays per consuming partition:
// snapshot the store, scan it with the kernels, bound the partial.
func BenchmarkConsumingScan(b *testing.B) {
	m := benchStore(b)
	for _, name := range []string{"D1", "D2", "D3", "D4"} {
		q := benchShapes()[name]
		tp := planTopK(q, 0)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cs := consumingScan{units: []scanUnit{{rows: m.snapshot(), valid: m.validSnapshot()}}}
				sk := &foldSink{q: q, tp: tp, results: make(chan *Partial, 1)}
				out := sk.producer(true)
				if err := out.finish(cs.scanUnits(context.Background(), out)); err != nil {
					b.Fatal(err)
				}
				benchSink = <-sk.results
			}
		})
	}
}

// BenchmarkSealedScan is the same rows after the seal, indexes included.
func BenchmarkSealedScan(b *testing.B) {
	seg, err := benchStore(b).seal(benchIndexes, -1)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"D1", "D2", "D3", "D4"} {
		q := benchShapes()[name]
		tp := planTopK(q, 0)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := seg.executePartialTrim(q, nil, tp)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = p
			}
		})
	}
}

// benchSealedShape scans the sealed bench segment with one ad-hoc shape,
// trim plan included, and reports the cost per row and per group.
func benchSealedShape(b *testing.B, q *Query) {
	seg, err := benchStore(b).seal(benchIndexes, -1)
	if err != nil {
		b.Fatal(err)
	}
	tp := planTopK(q, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := seg.executePartialTrim(q, nil, tp)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = p
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchSegmentRows, "ns/row")
	b.ReportMetric(float64(benchSink.n), "groups")
}

// BenchmarkGroupByTwoCoded is the ad-hoc pass's A4 on one segment: a full
// scan grouped by two dictionary-coded columns, which the grouper indexes
// by the composite of their codes (no key per row).
func BenchmarkGroupByTwoCoded(b *testing.B) {
	benchSealedShape(b, &Query{GroupBy: []string{"city", "status"},
		Aggs: []AggSpec{{Kind: AggCount, As: "n"}, {Kind: AggAvg, Column: "amount", As: "mean"}, {Kind: AggMax, Column: "amount", As: "top"}}})
}

// BenchmarkTopKTrim is A1 on one segment: a top-10 over some 4 000
// restaurants, trimmed to DefaultGroupTrimSize groups before any group is
// indexed.
func BenchmarkTopKTrim(b *testing.B) {
	benchSealedShape(b, &Query{GroupBy: []string{"restaurant_id"}, Aggs: []AggSpec{{Kind: AggSum, Column: "amount", As: "total"}},
		OrderBy: []OrderSpec{{Column: "total", Desc: true}}, Limit: 10})
}

// BenchmarkBrokerGroupBy is the broker hop of the ad-hoc pass's A1 and A4:
// Broker.ExecuteBatch, the SQL engine's path, over two servers, each owning a
// partition of the bench rows held as one sealed 10 000-row segment and a
// 2 500-row consuming tail —
// scatter, segment and consuming scans, the server trim, the broker's merge
// and Finalize.
func BenchmarkBrokerGroupBy(b *testing.B) {
	d, err := NewDeployment(DeploymentConfig{
		Table:        TableConfig{Name: "orders", Schema: benchSchema(), SegmentRows: 10_000, Indexes: benchIndexes},
		Servers:      []*Server{NewServer("s0"), NewServer("s1")},
		SegmentStore: objstore.NewMemStore(),
		Backup:       BackupP2P,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i, r := range benchRows(benchSegmentRows) {
		if err := d.Ingest(i%2, r); err != nil {
			b.Fatal(err)
		}
	}
	d.WaitUploads()
	broker := NewBrokerWithOptions(d, BrokerOptions{Workers: 2})
	for _, c := range []struct {
		name   string
		q      *Query
		groups int
	}{
		{"A1", &Query{GroupBy: []string{"restaurant_id"}, Aggs: []AggSpec{{Kind: AggSum, Column: "amount", As: "total"}},
			OrderBy: []OrderSpec{{Column: "total", Desc: true}}, Limit: 10}, 10},
		{"A4", &Query{GroupBy: []string{"city", "status"},
			Aggs: []AggSpec{{Kind: AggCount, As: "n"}, {Kind: AggAvg, Column: "amount", As: "mean"}, {Kind: AggMax, Column: "amount", As: "top"}}}, 64},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := broker.ExecuteBatch(context.Background(), &QueryRequest{Query: c.q})
				if err != nil || res.Batch.Len != c.groups {
					b.Fatalf("%s: %v rows, %v; want %d", c.name, res.Batch.Len, err, c.groups)
				}
			}
		})
	}
}

// BenchmarkViewMerge folds 100-row delta partials into a standing view's
// state of 2 000 restaurants with a DISTINCTCOUNT, as matview's drain does:
// old-groups deltas hold only groups the view has, one-new-group deltas add
// one each. Order ids repeat every 50 000 rows, so the sets stop growing.
func BenchmarkViewMerge(b *testing.B) {
	schema := &metadata.Schema{Name: "orders", Fields: []metadata.Field{
		{Name: "restaurant_id", Type: metadata.TypeLong, Dimension: true},
		{Name: "order_id", Type: metadata.TypeString, Dimension: true},
		{Name: "amount", Type: metadata.TypeDouble},
	}}
	q := &Query{GroupBy: []string{"restaurant_id"}, Aggs: []AggSpec{
		{Kind: AggSum, Column: "amount"}, {Kind: AggCount}, {Kind: AggDistinctCount, Column: "order_id"}}}
	next := 0
	rows := func(n int) []record.Row {
		out := make([]record.Row, n)
		for i := range out {
			next++
			out[i] = record.Row{Schema: schema, Vals: []record.Value{
				record.ValueOf(int64(next * 7919 % 2000)), record.ValueOf(fmt.Sprintf("o%08d", next%50_000)), record.ValueOf(float64(next % 97)),
			}}
		}
		return out
	}
	for _, fresh := range []bool{false, true} {
		name := map[bool]string{false: "old-groups", true: "one-new-group"}[fresh]
		b.Run(name, func(b *testing.B) {
			state, err := PartialOfRows(schema, rows(20_000), q)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := range b.N {
				b.StopTimer()
				batch := rows(100)
				if fresh {
					batch[0].Vals[0] = record.ValueOf(int64(1_000_000 + i))
				}
				delta, err := PartialOfRows(schema, batch, q)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				state.Merge(delta)
			}
		})
	}
}

// BenchmarkBrokerOrderedSelect is ORDER BY amount DESC LIMIT 10 over the
// selected rows through Broker.ExecuteBatch: two servers, eight sealed 500-row
// segments, amounts tied about ten rows apiece. trim cuts each segment and
// each server to its best ten rows; exact (TrimExact) ships every row and
// ranks them all in Finalize.
func BenchmarkBrokerOrderedSelect(b *testing.B) {
	d, err := NewDeployment(DeploymentConfig{
		Table:        TableConfig{Name: "orders", Schema: benchSchema(), SegmentRows: 500, Indexes: benchIndexes},
		Servers:      []*Server{NewServer("s0"), NewServer("s1")},
		SegmentStore: objstore.NewMemStore(),
		Backup:       BackupP2P,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i, r := range benchRows(4_000) {
		if err := d.Ingest(i%2, r); err != nil {
			b.Fatal(err)
		}
	}
	d.WaitUploads()
	broker := NewBrokerWithOptions(d, BrokerOptions{Workers: 2})
	q := &Query{Select: []string{"order_id", "amount", "ts"},
		OrderBy: []OrderSpec{{Column: "amount", Desc: true}}, Limit: 10}
	for _, exact := range []bool{false, true} {
		b.Run(map[bool]string{false: "trim", true: "exact"}[exact], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := broker.ExecuteBatch(context.Background(), &QueryRequest{Query: q, TrimExact: exact})
				if err != nil || res.Batch.Len != 10 || res.Stats.SegmentsScanned != 8 {
					b.Fatalf("%v rows over %d segments, %v; want 10 over 8", res.Batch.Len, res.Stats.SegmentsScanned, err)
				}
			}
		})
	}
}

// BenchmarkBrokerDashPage is the dashboard's aggregate panels D1, D3 and D4
// through Broker.ExecuteBatch over one partition held as three sealed
// 10 000-row segments and a 5 000-row consuming store, with the broker cache off and
// on. Every request has its own segment budget, so none is a whole-result
// hit — as on a dashboard under ingest, where every page misses. With the
// cache on, a page scans the consuming store and, on D4, the one segment
// the window cuts; the other segments' partials come from the cache.
func BenchmarkBrokerDashPage(b *testing.B) {
	d, err := NewDeployment(DeploymentConfig{
		Table:        TableConfig{Name: "orders", Schema: benchSchema(), SegmentRows: 10_000, Indexes: benchIndexes},
		Servers:      []*Server{NewServer("s0"), NewServer("s1")},
		SegmentStore: objstore.NewMemStore(),
		Backup:       BackupP2P,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range benchRows(35_000) {
		if err := d.Ingest(0, r); err != nil {
			b.Fatal(err)
		}
	}
	d.WaitUploads()
	shapes := benchShapes()
	budget := 1 << 20 // counts up across runs: no request repeats
	for _, cache := range []int64{0, 64 << 20} {
		broker := NewBrokerWithOptions(d, BrokerOptions{Workers: 2, CacheMaxBytes: cache})
		for _, name := range []string{"D1", "D3", "D4"} {
			b.Run(fmt.Sprintf("cache=%t/%s", cache > 0, name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					budget++
					res, err := broker.ExecuteBatch(context.Background(), &QueryRequest{Query: shapes[name], MaxSegments: budget})
					if err != nil || res.Batch.Len == 0 {
						b.Fatalf("%s: %d rows, %v", name, res.Batch.Len, err)
					}
				}
			})
		}
	}
}

// BenchmarkMutableAdd is the per-row cost of an append: ns/op is ns/row.
func BenchmarkMutableAdd(b *testing.B) {
	rows := benchRows(benchSegmentRows)
	b.ReportAllocs()
	b.ResetTimer()
	var m *mutableSegment
	for i := 0; i < b.N; i++ {
		if i%benchSegmentRows == 0 {
			m = newMutableSegment("bench", benchSchema(), benchSegmentRows, nil)
		}
		if _, err := m.add(rows[i%benchSegmentRows]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeploymentIngest is the map API's append path one row per call,
// as Deployment.Ingest drives it: conform into cells, lock, append, bump the
// generation. It stops one row short of the seal threshold, so no seal is in
// it.
func BenchmarkDeploymentIngest(b *testing.B) {
	rows := benchRows(benchSegmentRows - 1)
	benchIngest(b, len(rows), 1, func(d *Deployment) func(from, to int) (int, error) {
		return func(from, to int) (int, error) { return d.IngestBatch(0, rows[from:to]) }
	})
}

// BenchmarkDeploymentIngestBatch is the path the realtime ingester drives:
// encoded 128-message fetches decoded into a reused cell block and appended
// (binding.ingest); ns/op is still ns/row.
func BenchmarkDeploymentIngestBatch(b *testing.B) {
	codec, msgs := benchMessages(b, benchSegmentRows-1)
	benchIngest(b, len(msgs), 128, func(d *Deployment) func(from, to int) (int, error) {
		bound := bind(codec, d)
		block, vals := bound.scratch(128)
		return func(from, to int) (int, error) {
			n, bad, err := bound.ingest(0, msgs[from:to], &block, vals)
			if bad != nil {
				return n, bad
			}
			return n, err
		}
	})
}

// benchIngest appends n rows at most batch at a time, into a fresh
// deployment whenever all n are in; start binds the append to each.
func benchIngest(b *testing.B, n, batch int, start func(*Deployment) func(from, to int) (int, error)) {
	b.ReportAllocs()
	b.ResetTimer()
	var ingest func(from, to int) (int, error)
	for i := 0; i < b.N; {
		at := i % n
		if at == 0 {
			b.StopTimer()
			ingest = start(benchDeployment(b))
			b.StartTimer()
		}
		k, err := ingest(at, min(at+batch, n, at+b.N-i))
		if err != nil {
			b.Fatal(err)
		}
		i += k
	}
}

func benchDeployment(tb testing.TB) *Deployment {
	tb.Helper()
	d, err := NewDeployment(DeploymentConfig{
		Table:        TableConfig{Name: "orders", Schema: benchSchema(), SegmentRows: benchSegmentRows, Indexes: benchIndexes},
		Servers:      []*Server{NewServer("s0")},
		SegmentStore: objstore.NewMemStore(),
		Backup:       BackupP2P,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// benchMessages encodes n benchRows as a topic of the bench schema holds
// them.
func benchMessages(tb testing.TB, n int) (*record.Codec, []stream.Message) {
	tb.Helper()
	codec, err := record.NewCodec(benchSchema())
	if err != nil {
		tb.Fatal(err)
	}
	msgs := make([]stream.Message, n)
	for i, r := range benchRows(n) {
		if msgs[i].Value, err = codec.Encode(r); err != nil {
			tb.Fatal(err)
		}
	}
	return codec, msgs
}

// The payload path allocates only what the store keeps, and not per row:
// the unique order_id of each row of a 128-message fetch is carved from the
// dictionary's arena, so what is left is the store's amortized growth (the
// partition's first store is not sized from a last one), nothing per column
// and no record.
func TestPayloadIngestAllocations(t *testing.T) {
	const fetch, runs = 128, 60
	codec, msgs := benchMessages(t, fetch*(runs+1))
	bound := bind(codec, benchDeployment(t))
	block, vals := bound.scratch(fetch)
	at := 0
	perFetch := testing.AllocsPerRun(runs, func() {
		n, bad, err := bound.ingest(0, msgs[at:at+fetch], &block, vals)
		if n != fetch || bad != nil || err != nil {
			t.Fatalf("ingest = %d, %v, %v", n, bad, err)
		}
		at += fetch
	})
	if perRow := perFetch / fetch; perRow > 0.1 {
		t.Errorf("payload ingest allocates %.2f times per row, want at most 0.1", perRow)
	}
}

var benchSegSink *Segment

// BenchmarkSeal freezes a full consuming segment and reports the sealed
// format's size: its in-memory footprint (mem_bytes/seg) and its deep-store
// encoding (encoded_bytes/seg).
func BenchmarkSeal(b *testing.B) {
	m := benchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg, err := m.seal(benchIndexes, -1)
		if err != nil {
			b.Fatal(err)
		}
		benchSegSink = seg
	}
	b.StopTimer()
	data, err := benchSegSink.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(benchSegSink.MemBytes()), "mem_bytes/seg")
	b.ReportMetric(float64(len(data)), "encoded_bytes/seg")
}

// randomPacked returns n random values packed at width bits, seeded by seed.
func randomPacked(bits uint, n int, seed int64) packedInts {
	rng := rand.New(rand.NewSource(seed))
	max := uint64(1)<<bits - 1
	p := makePackedInts(n, int(max))
	for i := range n {
		p.set(i, rng.Uint64()&max)
	}
	return p
}

var benchCodeSink uint32

// BenchmarkPackedUnpack reads a window of BatchRows codes at three widths,
// one Get per row against one unpack of the window; ns/row is the cost of
// a code.
func BenchmarkPackedUnpack(b *testing.B) {
	for _, bits := range []uint{3, 13, 32} {
		p := randomPacked(bits, 4*BatchRows, 3)
		var block [BatchRows]uint32
		b.Run(fmt.Sprintf("bits=%d/Get", bits), func(b *testing.B) {
			var sum uint32
			for i := 0; i < b.N; i++ {
				start := (i % 3) * BatchRows
				for j := range block {
					sum += uint32(p.Get(start + j))
				}
			}
			benchCodeSink = sum
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/BatchRows, "ns/row")
		})
		b.Run(fmt.Sprintf("bits=%d/unpack", bits), func(b *testing.B) {
			var sum uint32
			for i := 0; i < b.N; i++ {
				p.unpack(block[:], (i%3)*BatchRows)
				for _, c := range block {
					sum += c
				}
			}
			benchCodeSink = sum
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/BatchRows, "ns/row")
		})
	}
}
