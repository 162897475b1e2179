package objstore_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
	"testing"

	"repro/internal/flow"
	"repro/internal/flow/backfill"
	"repro/internal/metadata"
	"repro/internal/objstore"
	"repro/internal/olap"
	"repro/internal/record"
)

// lendingStore is a MemStore that keeps every object Get lent, beside a copy
// of its bytes taken before the caller saw them.
type lendingStore struct {
	*objstore.MemStore
	mu   sync.Mutex
	lent []lentObject
}

type lentObject struct {
	key       string
	lent, was []byte
}

func (s *lendingStore) Get(key string) ([]byte, error) {
	v, err := s.MemStore.Get(key)
	if err == nil {
		s.mu.Lock()
		s.lent = append(s.lent, lentObject{key, v, bytes.Clone(v)})
		s.mu.Unlock()
	}
	return v, err
}

// unchanged fails unless what read at least one object since the last call
// and every object lent still holds the bytes it was lent with.
func (s *lendingStore) unchanged(t *testing.T, what string) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.lent) == 0 {
		t.Fatalf("%s read nothing from the store", what)
	}
	for _, o := range s.lent {
		if !bytes.Equal(o.lent, o.was) {
			t.Errorf("%s wrote into the lent bytes of %s", what, o.key)
		}
	}
	s.lent = nil
}

func tripsSchema() *metadata.Schema {
	return &metadata.Schema{Name: "trips", Version: 1, TimeField: "ts", Fields: []metadata.Field{
		{Name: "id", Type: metadata.TypeLong},
		{Name: "city", Type: metadata.TypeString, Dimension: true, Nullable: true},
		{Name: "fare", Type: metadata.TypeDouble},
		{Name: "payload", Type: metadata.TypeBytes, Nullable: true},
		{Name: "ts", Type: metadata.TypeTimestamp},
	}}
}

func tripRows(from, n int) []record.Record {
	rows := make([]record.Record, n)
	for i := range rows {
		id := from + i
		rows[i] = record.Record{"id": int64(id), "fare": float64(id) / 4, "ts": int64(1_700_000_000_000 + id*1000)}
		if id%5 != 0 {
			rows[i]["city"] = fmt.Sprintf("c%d", id%3)
			rows[i]["payload"] = []byte{byte(id), byte(id >> 8), 0xff}
		}
	}
	return rows
}

// TestDecodersLeaveLentBytes: Get lends the stored object, so every decoder
// of a deep-store object must only read it — compaction of raw logs, the
// archive part decoder, a backfill over two parts, the segment reload and
// the checkpoint restore. Each object's bytes are snapshot as they are lent
// and must be unchanged after the decode, and a value decoded out of them
// must be a copy: writing it leaves the store as it was.
func TestDecodersLeaveLentBytes(t *testing.T) {
	schema := tripsSchema()
	codec, err := record.NewCodec(schema)
	if err != nil {
		t.Fatal(err)
	}
	store := &lendingStore{MemStore: objstore.NewMemStore()}
	w := objstore.NewRawLogWriter(store, "trips", codec)
	compactor := objstore.NewCompactor(store, "trips", codec)
	for part, n := range []int{40, 25} { // two parts of two raw batches each
		for b := range 2 {
			if err := w.Append(tripRows(part*100+b*n, n)); err != nil {
				t.Fatal(err)
			}
		}
		if rows, err := compactor.Compact(); err != nil || rows != 2*n {
			t.Fatalf("Compact = %d rows, %v; want %d", rows, err, 2*n)
		}
		store.unchanged(t, "Compact")
	}

	reader := objstore.NewArchiveReader(store, "trips", schema)
	parts, err := reader.Parts()
	if err != nil || len(parts) != 2 {
		t.Fatalf("Parts = %v, %v; want two", parts, err)
	}
	names := schema.FieldNames()
	cols := make([]record.Vector, len(names))
	for _, p := range parts {
		n, err := reader.ReadColumns(p, names, cols)
		if err != nil {
			t.Fatal(err)
		}
		for r := range n {
			if b := cols[3].Bytes[r]; len(b) > 0 {
				b[0] ^= 0xff
			}
		}
	}
	store.unchanged(t, "DecodeColumns")

	sink := flow.NewCollectSink()
	stages := []flow.StageSpec{{Name: "count", KeyBy: "city", Parallelism: 1, New: func() flow.Operator {
		return flow.NewWindowAggOp(60_000, 0, "city", flow.Aggregation{Kind: record.AggCount})
	}}}
	res, err := backfill.Run("trips-count", store, "trips", schema, stages, sink, backfill.Config{})
	if err != nil || res.RowsRead != 130 {
		t.Fatalf("backfill = %d rows, %v; want 130", res.RowsRead, err)
	}
	store.unchanged(t, "backfill")

	segSchema := schema.Clone()
	segSchema.Fields = append(segSchema.Fields[:3:3], segSchema.Fields[4])
	seg, err := olap.BuildSegment("trips_0", segSchema, tripRows(0, 60),
		olap.IndexConfig{InvertedColumns: []string{"city"}, SortedColumn: "id"}, -1)
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := seg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("segments/trips_0", encoded); err != nil {
		t.Fatal(err)
	}
	data, err := store.Get("segments/trips_0")
	if err != nil {
		t.Fatal(err)
	}
	back, err := olap.DecodeSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := back.Execute(&olap.Query{GroupBy: []string{"city"}, Aggs: []olap.AggSpec{{Kind: olap.AggCount}},
		Filters: []olap.Filter{{Column: "city", Op: olap.OpEq, Value: "c1"}}}, nil); err != nil || len(r.Rows) != 1 {
		t.Fatalf("reloaded segment answered %v, %v", r, err)
	}
	store.unchanged(t, "DecodeSegment")

	var buf bytes.Buffer
	ckpt := flow.Checkpoint{JobName: "j", ID: 7, SourcePositions: [][]byte{{1, 2, 3}}, OperatorState: map[string][]byte{"op": {4, 5}}}
	if err := gob.NewEncoder(&buf).Encode(&ckpt); err != nil {
		t.Fatal(err)
	}
	if err := store.Put("checkpoints/j/000000000007", buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	got, err := flow.LatestCheckpoint(store, "j")
	if err != nil || got == nil || got.ID != 7 || !bytes.Equal(got.SourcePositions[0], []byte{1, 2, 3}) {
		t.Fatalf("LatestCheckpoint = %+v, %v", got, err)
	}
	got.SourcePositions[0][0], got.OperatorState["op"][0] = 9, 9
	store.unchanged(t, "LatestCheckpoint")
}
