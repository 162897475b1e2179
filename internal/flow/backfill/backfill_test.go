package backfill

import (
	"slices"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/metadata"
	"repro/internal/objstore"
	"repro/internal/record"
)

const base = int64(1700000000000)

func schema() *metadata.Schema {
	return &metadata.Schema{
		Name:    "trips",
		Version: 1,
		Fields: []metadata.Field{
			{Name: "city", Type: metadata.TypeString, Dimension: true},
			{Name: "v", Type: metadata.TypeDouble},
			{Name: "ts", Type: metadata.TypeTimestamp},
		},
		TimeField: "ts",
	}
}

// archive writes n rows (1s apart, 2 cities) into the store's archive via
// the raw-log + compaction path, exactly as production archival would.
func archive(t *testing.T, store objstore.Store, n int) {
	t.Helper()
	codec, err := record.NewCodec(schema())
	if err != nil {
		t.Fatal(err)
	}
	w := objstore.NewRawLogWriter(store, "trips", codec)
	var rows []record.Record
	for i := 0; i < n; i++ {
		rows = append(rows, record.Record{
			"city": []string{"sf", "nyc"}[i%2],
			"v":    float64(i),
			"ts":   base + int64(i)*1000,
		})
		if len(rows) == 50 {
			if err := w.Append(rows); err != nil {
				t.Fatal(err)
			}
			rows = nil
		}
	}
	if len(rows) > 0 {
		if err := w.Append(rows); err != nil {
			t.Fatal(err)
		}
	}
	c := objstore.NewCompactor(store, "trips", codec)
	if _, err := c.Compact(); err != nil {
		t.Fatal(err)
	}
}

// aggStages is the streaming logic reused verbatim for backfill.
func aggStages() []flow.StageSpec {
	return []flow.StageSpec{
		{
			Name: "agg", KeyBy: "city", Parallelism: 2,
			New: func() flow.Operator {
				return flow.NewWindowAggOp(60_000, 0, "city",
					flow.Aggregation{Kind: record.AggCount},
					flow.Aggregation{Kind: record.AggSum, Field: "v"},
				)
			},
		},
	}
}

func TestBackfillReprocessesArchive(t *testing.T) {
	store := objstore.NewMemStore()
	archive(t, store, 200)
	sink := flow.NewCollectSink()
	res, err := Run("trips-agg", store, "trips", schema(), aggStages(), sink, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsRead != 200 || res.RowsSkipped != 0 {
		t.Errorf("rows read/skipped = %d/%d", res.RowsRead, res.RowsSkipped)
	}
	var total int64
	for _, r := range sink.Records() {
		total += r.Long("count")
	}
	if total != 200 {
		t.Errorf("windowed count = %d, want 200", total)
	}
}

func TestBackfillBoundaries(t *testing.T) {
	store := objstore.NewMemStore()
	archive(t, store, 300)
	sink := flow.NewCollectSink()
	// Reprocess only the middle 100 seconds.
	res, err := Run("trips-agg", store, "trips", schema(), aggStages(), sink, Config{
		StartMs: base + 100_000,
		EndMs:   base + 200_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsRead != 100 || res.RowsSkipped != 200 {
		t.Errorf("boundary filter read %d skipped %d, want 100/200", res.RowsRead, res.RowsSkipped)
	}
	var total int64
	for _, r := range sink.Records() {
		total += r.Long("count")
		if r.Long("window_start") < base+100_000-60_000 || r.Long("window_start") >= base+200_000 {
			t.Errorf("window outside boundary: %v", r)
		}
	}
	if total != 100 {
		t.Errorf("count = %d, want 100", total)
	}
}

func TestBackfillThrottling(t *testing.T) {
	store := objstore.NewMemStore()
	archive(t, store, 400)
	sink := flow.NewCollectSink()
	start := time.Now()
	_, err := Run("slow", store, "trips", schema(), aggStages(), sink, Config{RatePerSec: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Errorf("throttled backfill finished in %v, want >= ~200ms at 2000/s", elapsed)
	}
}

func TestBackfillOutOfOrderData(t *testing.T) {
	// Archive rows in scrambled time order; the widened lateness window
	// must still aggregate every event (no late drops).
	store := objstore.NewMemStore()
	codec, _ := record.NewCodec(schema())
	w := objstore.NewRawLogWriter(store, "trips", codec)
	var rows []record.Record
	for i := 0; i < 100; i++ {
		// Scramble within ±30 s by interleaving two halves.
		j := (i*37 + 11) % 100
		rows = append(rows, record.Record{
			"city": "sf",
			"v":    float64(j),
			"ts":   base + int64(j)*500,
		})
	}
	if err := w.Append(rows); err != nil {
		t.Fatal(err)
	}
	if _, err := objstore.NewCompactor(store, "trips", codec).Compact(); err != nil {
		t.Fatal(err)
	}
	sink := flow.NewCollectSink()
	res, err := Run("ooo", store, "trips", schema(), aggStages(), sink, Config{LatenessMs: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range sink.Records() {
		total += r.Long("count")
	}
	if total != int64(res.RowsRead) {
		t.Errorf("aggregated %d of %d out-of-order rows; lateness window too small", total, res.RowsRead)
	}
}

func TestBackfillMissingArchive(t *testing.T) {
	store := objstore.NewMemStore()
	sink := flow.NewCollectSink()
	res, err := Run("empty", store, "ghost", schema(), aggStages(), sink, Config{})
	// An empty archive is not an error; it just processes nothing.
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsRead != 0 || sink.Len() != 0 {
		t.Errorf("empty archive produced %d rows", res.RowsRead)
	}
}

// schemaSink records the schema of every row it is written.
type schemaSink struct{ schemas map[*metadata.Schema]int }

func (s *schemaSink) Write(events []flow.Event) error {
	for _, e := range events {
		s.schemas[e.Row.Schema]++
	}
	return nil
}

func (s *schemaSink) Flush() error { return nil }

// Backfilled rows reach the stages under the archive's own schema, the one a
// StreamSource over the topic binds them to: not one worked out from values.
func TestBackfillRowsCarryArchiveSchema(t *testing.T) {
	store := objstore.NewMemStore()
	archive(t, store, 120)
	s := schema()
	sink := &schemaSink{schemas: map[*metadata.Schema]int{}}
	pass := []flow.StageSpec{{Name: "pass", New: func() flow.Operator { return flow.PassOp{} }}}
	res, err := Run("pass", store, "trips", s, pass, sink, Config{StartMs: base + 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsRead != 100 || res.RowsSkipped != 20 || sink.schemas[s] != 100 || len(sink.schemas) != 1 {
		t.Errorf("read %d, skipped %d; rows by schema %v, want 100 under %p", res.RowsRead, res.RowsSkipped, sink.schemas, s)
	}
}

// archiveParts writes parts parts of 50 rows each (1 s apart), compacting
// after each.
func archiveParts(t *testing.T, store objstore.Store, parts int) {
	t.Helper()
	codec, err := record.NewCodec(schema())
	if err != nil {
		t.Fatal(err)
	}
	w := objstore.NewRawLogWriter(store, "trips", codec)
	c := objstore.NewCompactor(store, "trips", codec)
	for p := range parts {
		var rows []record.Record
		for i := p * 50; i < (p+1)*50; i++ {
			rows = append(rows, record.Record{"city": "sf", "v": float64(i), "ts": base + int64(i)*1000})
		}
		if err := w.Append(rows); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Compact(); err != nil {
			t.Fatal(err)
		}
	}
}

// The backfill source replays the parts in order, and decodes a part only
// once every row of the one before it was taken.
func TestBackfillDecodesOnePartAtATime(t *testing.T) {
	store := objstore.NewMemStore()
	archiveParts(t, store, 4)
	src, err := newArchiveSource(store, "trips", schema(), Config{Batch: 30, StartMs: base + 10_000}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(src.parts) != 4 {
		t.Fatalf("%d parts archived, want 4", len(src.parts))
	}
	var vs []float64
	for taken, end := 10, false; !end; { // taken is the next row's position in the archive
		var events []flow.Event
		if events, end, err = src.Next(time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if len(events) > 0 && src.part != taken/50+1 {
			t.Fatalf("with %d rows taken the source has decoded %d parts, want %d", taken, src.part, taken/50+1)
		}
		for _, e := range events {
			vs = append(vs, e.Row.Double(1))
		}
		taken += len(events)
	}
	want := make([]float64, 0, 190)
	for v := 10; v < 200; v++ {
		want = append(want, float64(v))
	}
	if !slices.Equal(vs, want) {
		t.Errorf("the source replays %v, want the rows 10 to 199 in order", vs)
	}
	if src.read != 190 || src.skipped != 10 {
		t.Errorf("read/skipped %d/%d, want 190/10", src.read, src.skipped)
	}
}
