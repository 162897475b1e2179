package flow

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/metadata"
	"repro/internal/record"
)

const two53 = int64(1) << 53

// ordersRow is a row of a schema with a long, a bytes and a double column,
// the kinds a checkpoint written as JSON maps rewrote.
func ordersRow(id int64, blob []byte, v float64) record.Row {
	schema := &metadata.Schema{Name: "orders", Version: 1, Fields: []metadata.Field{
		{Name: "id", Type: metadata.TypeLong}, {Name: "blob", Type: metadata.TypeBytes}, {Name: "v", Type: metadata.TypeDouble},
	}}
	return record.Row{Schema: schema, Vals: []record.Value{{I: id}, {B: blob}, {F: v}}}
}

// A window's carried cells and folds come back from a checkpoint as they
// went in: a long past 2^53 as that long, bytes as those bytes, and a NaN
// sum and an infinite maximum, which JSON has no number for, as themselves.
func TestWindowCheckpointKeepsTypes(t *testing.T) {
	newOp := func() *WindowAggOp {
		w := NewWindowAggOp(60_000, 0, "", Aggregation{Kind: record.AggSum, Field: "v", As: "total"}, Aggregation{Kind: record.AggMax, Field: "v", As: "hi"})
		w.CarryColumns = []string{"id", "blob"}
		return w
	}
	w := newOp()
	blob := []byte{0xff, 0xfe, 0}
	for _, v := range []float64{1, math.Inf(1), math.NaN()} {
		if err := w.ProcessElement(Event{Key: "k", Time: 10, Row: ordersRow(two53+1, blob, v)}, func(Event) {}); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatalf("snapshot of a NaN sum: %v", err)
	}
	restored := newOp()
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if restored.StateBytes() != w.StateBytes() {
		t.Errorf("state bytes %d restored, %d live", restored.StateBytes(), w.StateBytes())
	}
	var got []record.Record
	if err := restored.OnWatermark(60_000, func(e Event) { got = append(got, e.Row.Record()) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("fired %v", got)
	}
	r := got[0]
	if r["id"] != two53+1 || !bytes.Equal(r["blob"].([]byte), blob) || !math.IsNaN(r.Double("total")) || !math.IsInf(r.Double("hi"), 1) {
		t.Errorf("restored window fired %v", r)
	}
}

// A join's buffered rows come back from a checkpoint with their types, and
// StateBytes counts the same state the same way before and after.
func TestJoinCheckpointKeepsTypes(t *testing.T) {
	j := NewIntervalJoinOp(1000)
	blob := []byte{0xff, 1}
	if err := j.ProcessElement(Event{Key: "k", Time: 10, Source: 0, Row: ordersRow(two53+1, blob, 0.5)}, func(Event) {}); err != nil {
		t.Fatal(err)
	}
	snap, err := j.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewIntervalJoinOp(1000)
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if restored.StateBytes() != j.StateBytes() {
		t.Errorf("state bytes %d restored, %d live", restored.StateBytes(), j.StateBytes())
	}
	var out []record.Record
	if err := restored.ProcessElement(Event{Key: "k", Time: 20, Source: 1, Row: rowOf(record.Record{"id": int64(9)})}, func(e Event) { out = append(out, e.Row.Record()) }); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0]["id"] != two53+1 || !bytes.Equal(out[0]["blob"].([]byte), blob) || out[0]["r_id"] != int64(9) {
		t.Errorf("restored join emitted %v", out)
	}
}

// headJoinSnapshot is a join's checkpoint as it was written when the join
// buffered maps: a left event with a long past 2^53 and a bytes value,
// which JSON rewrote as a double and a base64 string, and a right event.
const headJoinSnapshot = `{"Left":{"k":[{"Time":10,"Data":{"blob":"/wE=","city":"sf","id":9007199254740993}}]},` +
	`"Right":{"k":[{"Time":5000,"Data":{"id":7,"label":0.5}}]}}`

// A join checkpoint written when the join buffered maps restores to the
// answers its writer gave after a restore.
func TestJoinRestoresEarlierSnapshot(t *testing.T) {
	j := NewIntervalJoinOp(1000)
	if err := j.Restore([]byte(headJoinSnapshot)); err != nil {
		t.Fatal(err)
	}
	var got []string
	if err := j.ProcessElement(Event{Key: "k", Time: 500, Source: 1, Row: rowOf(record.Record{"id": int64(9), "label": 1.5})}, func(e Event) {
		got = append(got, fmt.Sprint(e.Row.Record()))
	}); err != nil {
		t.Fatal(err)
	}
	if want := "[map[blob:/wE= city:sf id:9.007199254740992e+15 label:1.5 r_id:9]]"; fmt.Sprint(got) != want {
		t.Errorf("restored join emitted %v, want %s", got, want)
	}
	j.OnWatermark(math.MaxInt64, func(Event) {})
	if j.StateBytes() != 0 {
		t.Errorf("state bytes %d after every buffer was evicted", j.StateBytes())
	}
}

// A reducer's accumulators come back from a checkpoint with their types,
// and one written when accumulators were checkpointed as JSON maps
// restores as its writer restored it.
func TestReduceCheckpointKeepsTypes(t *testing.T) {
	blob := []byte{0xff, 0}
	newOp := func() *ReduceOp {
		return NewReduceOp(func(acc record.Record, e Event) record.Record {
			if acc == nil {
				return record.Record{"id": two53 + 1, "blob": blob, "n": int64(1)}
			}
			acc["n"] = acc.Long("n") + 1
			return acc
		})
	}
	r := newOp()
	in := Event{Key: "a", Row: rowOf(record.Record{"v": 1.0})}
	if err := r.ProcessElement(in, func(Event) {}); err != nil {
		t.Fatal(err)
	}
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range []string{string(snap), `{"a":{"n":1}}`} {
		restored := newOp()
		if err := restored.Restore([]byte(data)); err != nil {
			t.Fatal(err)
		}
		var out []record.Record
		if err := restored.ProcessElement(in, func(e Event) { out = append(out, e.Row.Record()) }); err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 || out[0].Long("n") != 2 {
			t.Fatalf("%s: restored reduce emitted %v", data, out)
		}
		if data == string(snap) && (out[0]["id"] != two53+1 || !bytes.Equal(out[0]["blob"].([]byte), blob)) {
			t.Errorf("restored accumulator %v", out[0])
		}
	}
}

// Routing on a named field reads its cell and spells it as record.Record's
// String spells the value, the key keyed state in a checkpoint carries.
func TestKeyedRoutingSpellsTheRecordKey(t *testing.T) {
	schema := &metadata.Schema{Name: "t", Version: 1, Fields: []metadata.Field{
		{Name: "s", Type: metadata.TypeString}, {Name: "l", Type: metadata.TypeLong}, {Name: "d", Type: metadata.TypeDouble},
		{Name: "b", Type: metadata.TypeBool}, {Name: "x", Type: metadata.TypeBytes}, {Name: "ts", Type: metadata.TypeTimestamp},
		{Name: "n", Type: metadata.TypeLong, Nullable: true},
	}}
	rec := record.Record{"s": "sf", "l": two53 + 1, "d": 1e21, "b": true, "x": []byte{1, 2}, "ts": int64(-5)}
	vals := make([]record.Value, len(schema.Fields))
	for i, f := range schema.Fields {
		vals[i] = record.ValueOf(rec[f.Name])
	}
	e := Event{Key: "stale", Row: record.Row{Schema: schema, Vals: vals}}
	for _, field := range []string{"s", "l", "d", "b", "x", "ts", "n", "missing"} {
		if got, want := (StageSpec{KeyBy: field}).route(e, keyTable{}).Key, rec.String(field); got != want {
			t.Errorf("key of %s = %q, want %q", field, got, want)
		}
	}
	if got := (StageSpec{KeyBy: KeyByEventKey}).route(e, keyTable{}).Key; got != "stale" {
		t.Errorf("KeyByEventKey rewrote the key to %q", got)
	}
}

// What a user function returns leaves as a row: one output schema per
// input schema while the function keeps its shape, a filter's rows go on
// untouched, and a value that is not a record value fails the job naming
// the stage and the field.
func TestUserFunctionsEmitRows(t *testing.T) {
	var schemas []*metadata.Schema
	var filtered []record.Row
	m := &MapOp{Fn: func(e Event) (Event, error) {
		e.Data["double"] = e.Data.Double("v") * 2
		return e, nil
	}}
	f := &FilterOp{Pred: func(e Event) bool { return e.Data.String("city") == "sf" }}
	in := rows(6, base)
	for _, r := range in {
		if err := m.ProcessElement(Event{Row: r}, func(e Event) { schemas = append(schemas, e.Row.Schema) }); err != nil {
			t.Fatal(err)
		}
		if err := f.ProcessElement(Event{Row: r}, func(e Event) { filtered = append(filtered, e.Row) }); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range schemas {
		if s != schemas[0] {
			t.Fatalf("a map of one shape bound under %d schemas", len(schemas))
		}
	}
	if got := schemas[0].FieldNames(); fmt.Sprint(got) != "[city ts v double]" {
		t.Errorf("output schema %v", got)
	}
	if len(filtered) != 2 || &filtered[0].Vals[0] != &in[0].Vals[0] {
		t.Errorf("filter emitted %v, want the sf rows as they came", filtered)
	}

	job, err := NewJob(JobSpec{
		Name:    "bad",
		Sources: []SourceSpec{{Source: NewBoundedSource(rows(3, base), "ts", 4)}},
		Stages: []StageSpec{{Name: "stamp", New: func() Operator {
			return &MapOp{Fn: func(e Event) (Event, error) {
				e.Data["when"] = struct{}{}
				return e, nil
			}}
		}}},
		Sink: SinkSpec{Sink: NewCollectSink()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Run(); err == nil || !strings.Contains(err.Error(), "stamp") || !strings.Contains(err.Error(), `"when"`) {
		t.Errorf("job ended with %v, want an error naming stage stamp and field when", err)
	}
}

// A window whose output would name one column twice is refused when it
// binds, and its Columns say why.
func TestWindowRefusesDuplicateColumns(t *testing.T) {
	w := NewWindowAggOp(60_000, 0, "city", Aggregation{Kind: record.AggCount, As: "window_end"})
	if _, err := w.Columns(); err == nil {
		t.Error("Columns named window_end twice")
	}
	if err := w.ProcessElement(Event{Key: "sf", Row: rows(1, base)[0]}, func(Event) {}); err == nil {
		t.Error("a window with two window_end columns folded a row")
	}
}
