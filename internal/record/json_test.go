package record

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/metadata"
)

// TestAggJSONKeepsEveryFloat: a fold whose sum, minimum or maximum is NaN,
// ±Inf or −0 marshals — plain JSON has no number for the first three — and
// reads back bit for bit, and a state written as plain numbers, with the
// Seen flag states once carried, still reads.
func TestAggJSONKeepsEveryFloat(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, a := range []Agg{
		{Count: 2, Sum: math.Inf(1), Min: 1, Max: math.Inf(1)},
		{Count: 1, Sum: math.NaN(), Min: math.NaN(), Max: math.NaN()},
		{Count: 3, Sum: math.Inf(-1), Min: math.Inf(-1), Max: negZero},
		{Count: 1 << 60, Sum: 1e300, Min: -5e-324, Max: 0.1},
	} {
		data, err := json.Marshal(a)
		if err != nil {
			t.Fatalf("%+v: %v", a, err)
		}
		var got Agg
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("%s: %v", data, err)
		}
		for i, pair := range [][2]float64{{got.Sum, a.Sum}, {got.Min, a.Min}, {got.Max, a.Max}} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Errorf("%s: float %d read back as %v, want %v", data, i, pair[0], pair[1])
			}
		}
		if got.Count != a.Count {
			t.Errorf("%s: count %d, want %d", data, got.Count, a.Count)
		}
	}
	var old Agg
	if err := json.Unmarshal([]byte(`{"Count":2,"Sum":12,"Min":5,"Max":7,"Seen":true}`), &old); err != nil || old != (Agg{2, 12, 5, 7}) {
		t.Errorf("numeric form read as %+v, %v", old, err)
	}
}

// TestRowJSONKeepsTypedCells: a row's JSON carries its schema and cells
// that read back as they were — a long past 2^53, bytes that are not UTF-8,
// NaN, −0 and NULL — and a row whose cells do not match its schema's width,
// or that has none, is an error.
func TestRowJSONKeepsTypedCells(t *testing.T) {
	schema := &metadata.Schema{Name: "t", Version: 1, Fields: []metadata.Field{
		{Name: "id", Type: metadata.TypeLong}, {Name: "blob", Type: metadata.TypeBytes, Nullable: true},
		{Name: "x", Type: metadata.TypeDouble}, {Name: "z", Type: metadata.TypeDouble}, {Name: "s", Type: metadata.TypeString, Nullable: true},
	}}
	in := Row{Schema: schema, Vals: []Value{
		{I: 1<<53 + 1}, {B: []byte{0xff, 0, 1}}, {F: math.NaN()}, {F: math.Copysign(0, -1)}, {Null: true},
	}}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Row
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%v %v", out.Schema.Fields, out.Record()), fmt.Sprintf("%v %v", schema.Fields, in.Record()); got != want {
		t.Errorf("row read back as %s, want %s", got, want)
	}
	if out.Vals[0].I != 1<<53+1 || !math.IsNaN(out.Vals[2].F) || !math.Signbit(out.Vals[3].F) || !out.Vals[4].Null {
		t.Errorf("cells read back as %+v", out.Vals)
	}
	for _, bad := range []string{
		`{"Schema":null,"Vals":[]}`,
		strings.Replace(string(data), `{"Null":true`, `{"Null":true},{"Null":true`, 1),
	} {
		if err := json.Unmarshal([]byte(bad), &out); err == nil {
			t.Errorf("%s read as a row", bad)
		}
	}
}

// TestRowBinder: a record binds to a row under a schema worked out from it
// — the input schema's fields first, retyped where the record holds another
// type, then its other keys in name order, every field nullable — and
// records of one shape share one schema.
func TestRowBinder(t *testing.T) {
	in := &metadata.Schema{Name: "trips", Version: 2, Fields: []metadata.Field{
		{Name: "city", Type: metadata.TypeString}, {Name: "v", Type: metadata.TypeLong}, {Name: "ts", Type: metadata.TypeTimestamp},
	}}
	var b RowBinder
	r1, err := b.Bind(in, Record{"city": "sf", "v": 1.5, "ts": int64(7), "zeta": true, "alpha": 3, "gone": nil})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range r1.Schema.Fields {
		got = append(got, fmt.Sprintf("%s:%s:%v", f.Name, f.Type, f.Nullable))
	}
	if want := "[city:string:true v:double:true ts:timestamp:true alpha:long:true zeta:bool:true]"; fmt.Sprint(got) != want {
		t.Errorf("schema %v, want %s", got, want)
	}
	if r1.Schema.Name != "trips" || r1.Schema.Version != 2 {
		t.Errorf("schema is %q v%d, want the input's name and version", r1.Schema.Name, r1.Schema.Version)
	}
	if rec := r1.Record(); fmt.Sprint(rec) != "map[alpha:3 city:sf ts:7 v:1.5 zeta:true]" || rec["alpha"] != int64(3) {
		t.Errorf("row boxes to %v", rec)
	}
	r2, err := b.Bind(in, Record{"city": "la", "v": 2.5, "zeta": false, "alpha": int64(4)})
	if err != nil || r2.Schema != r1.Schema || !r2.Vals[2].Null {
		t.Errorf("a record of the same shape bound to %v (%v), want the first schema and a NULL ts", r2, err)
	}
	if r3, err := b.Bind(in, Record{"city": "la", "v": int64(2)}); err != nil || r3.Schema == r1.Schema || r3.Schema.Fields[1].Type != metadata.TypeLong {
		t.Errorf("a record of another shape bound to %v (%v)", r3.Schema, err)
	}
	if _, err := b.Bind(in, Record{"city": "sf", "bad": int32(1)}); err == nil || !strings.Contains(err.Error(), `"bad"`) {
		t.Errorf("a non-canonical value bound, error %v", err)
	}
	rows, err := BindRows(nil, []Record{{"k": "a"}, {"k": "b"}, {}})
	if err != nil || len(rows) != 3 || rows[0].Schema != rows[1].Schema || rows[0].Schema != rows[2].Schema || !rows[2].Vals[0].Null {
		t.Errorf("BindRows = %v, %v", rows, err)
	}
}
