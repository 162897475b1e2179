package record

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/metadata"
)

func testSchema() *metadata.Schema {
	return &metadata.Schema{
		Name:    "events",
		Version: 1,
		Fields: []metadata.Field{
			{Name: "id", Type: metadata.TypeLong},
			{Name: "city", Type: metadata.TypeString, Dimension: true},
			{Name: "fare", Type: metadata.TypeDouble},
			{Name: "ok", Type: metadata.TypeBool},
			{Name: "blob", Type: metadata.TypeBytes, Nullable: true},
			{Name: "ts", Type: metadata.TypeTimestamp},
			{Name: "opt", Type: metadata.TypeString, Nullable: true},
		},
		TimeField: "ts",
	}
}

func sampleRecord() Record {
	return Record{
		"id":   int64(42),
		"city": "sf",
		"fare": 12.75,
		"ok":   true,
		"blob": []byte{1, 2, 3},
		"ts":   int64(1700000000000),
	}
}

func TestAccessors(t *testing.T) {
	r := sampleRecord()
	if r.Long("id") != 42 || r.Long("missing") != 0 {
		t.Error("Long accessor wrong")
	}
	if r.Long("fare") != 12 {
		t.Errorf("Long(fare) = %d, want truncation to 12", r.Long("fare"))
	}
	if r.Long("ok") != 1 {
		t.Errorf("Long(ok) = %d, want 1", r.Long("ok"))
	}
	if r.Double("fare") != 12.75 || r.Double("id") != 42 || r.Double("missing") != 0 {
		t.Error("Double accessor wrong")
	}
	if r.Double("ok") != 1 {
		t.Errorf("Double(ok) = %v, want 1", r.Double("ok"))
	}
	// A Row reads its cells by the same rule: a bool is 1 or 0 either way.
	row := Row{Schema: &metadata.Schema{Fields: []metadata.Field{
		{Name: "ok", Type: metadata.TypeBool}, {Name: "city", Type: metadata.TypeString}, {Name: "id", Type: metadata.TypeLong},
	}}, Vals: []Value{{I: 1}, {B: []byte("sf")}, {I: 42}}}
	if row.Double(0) != 1 || row.Long(0) != 1 || row.Double(1) != 0 || row.Double(2) != 42 || row.Double(-1) != 0 {
		t.Errorf("Row accessors: Double %v %v %v, Long(ok) %v", row.Double(0), row.Double(1), row.Double(2), row.Long(0))
	}
	if r.String("city") != "sf" || r.String("missing") != "" {
		t.Error("String accessor wrong")
	}
	if r.String("id") != "42" {
		t.Errorf("String(id) = %q", r.String("id"))
	}
	if !r.Bool("ok") || r.Bool("city") || r.Bool("missing") {
		t.Error("Bool accessor wrong")
	}
	keys := r.Keys()
	if len(keys) != 6 || keys[0] != "blob" {
		t.Errorf("Keys = %v", keys)
	}
}

func TestCloneShallow(t *testing.T) {
	r := sampleRecord()
	c := r.Clone()
	c["id"] = int64(7)
	if r.Long("id") != 42 {
		t.Error("Clone aliases map")
	}
}

func TestCoerce(t *testing.T) {
	if v, err := Coerce(7, metadata.TypeLong); err != nil || v.(int64) != 7 {
		t.Errorf("Coerce(int) = %v, %v", v, err)
	}
	if v, err := Coerce(3.0, metadata.TypeLong); err != nil || v.(int64) != 3 {
		t.Errorf("Coerce(3.0->long) = %v, %v", v, err)
	}
	if _, err := Coerce(3.5, metadata.TypeLong); err == nil {
		t.Error("3.5 should not coerce to long")
	}
	if v, err := Coerce(int64(5), metadata.TypeDouble); err != nil || v.(float64) != 5 {
		t.Errorf("Coerce(int64->double) = %v, %v", v, err)
	}
	if _, err := Coerce("x", metadata.TypeDouble); err == nil {
		t.Error("string should not coerce to double")
	}
	if v, err := Coerce(nil, metadata.TypeString); err != nil || v != nil {
		t.Errorf("nil should pass through, got %v, %v", v, err)
	}
}

// conform is ConformValue over a whole record: only schema columns, each
// canonical, absent nullable columns left absent.
func conform(r Record, s *metadata.Schema) (Record, error) {
	out := make(Record, len(s.Fields))
	for _, f := range s.Fields {
		v, err := ConformValue(r[f.Name], f, s.Name)
		if err != nil {
			return nil, err
		}
		if v != nil {
			out[f.Name] = v
		}
	}
	return out, nil
}

func TestConform(t *testing.T) {
	s := testSchema()
	r := sampleRecord()
	r["extra"] = "dropme"
	out, err := conform(r, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out["extra"]; ok {
		t.Error("conform kept unknown column")
	}
	if _, ok := out["opt"]; ok {
		t.Error("absent nullable column should stay absent")
	}

	missing := sampleRecord()
	delete(missing, "id")
	if _, err := conform(missing, s); err == nil {
		t.Error("missing required field should error")
	}

	bad := sampleRecord()
	bad["fare"] = "not-a-number"
	if _, err := conform(bad, s); err == nil {
		t.Error("type mismatch should error")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	c, err := NewCodec(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	r := sampleRecord()
	data, err := c.Encode(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := conform(r, c.Schema())
	if !reflect.DeepEqual(map[string]any(got), map[string]any(want)) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", got, want)
	}
}

func TestCodecNullables(t *testing.T) {
	c, _ := NewCodec(testSchema())
	r := sampleRecord()
	delete(r, "blob")
	data, err := c.Encode(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got["blob"]; ok {
		t.Error("absent nullable field reappeared after decode")
	}
}

func TestCodecVersionMismatch(t *testing.T) {
	s1 := testSchema()
	s2 := testSchema()
	s2.Version = 2
	c1, _ := NewCodec(s1)
	c2, _ := NewCodec(s2)
	data, _ := c1.Encode(sampleRecord())
	if _, err := c2.Decode(data); err == nil {
		t.Error("decoding v1 payload with v2 codec should error")
	}
}

func TestCodecTruncation(t *testing.T) {
	c, _ := NewCodec(testSchema())
	data, _ := c.Encode(sampleRecord())
	for cut := 0; cut < len(data); cut++ {
		if _, err := c.Decode(data[:cut]); err == nil {
			// Cutting after the last present field's bytes can still parse;
			// only flag cuts that silently decode the full record.
			r, _ := c.Decode(data[:cut])
			if len(r) == 6 {
				t.Errorf("truncation at %d/%d decoded full record", cut, len(data))
			}
		}
	}
	// A claimed length the payload cannot hold is a truncation too, also
	// when it is 2^63 or more and negative as an int: id, then city (a
	// string) or blob (bytes) with a ten-byte uvarint length of 2^64-1.
	huge := bytes.Repeat([]byte{0xff}, 9)
	huge = append(huge, 0x01)
	for _, payload := range [][]byte{
		append([]byte{1, 0b0000011, 2}, huge...),
		append([]byte{1, 0b0010001, 2}, huge...),
	} {
		if r, err := c.Decode(payload); err == nil {
			t.Errorf("length 2^64-1 in a %d-byte payload decoded as %v", len(payload), r)
		}
	}
}

// FuzzCodecDecode feeds the codec what a topic may hold. DecodeValues, the
// one parser, and Decode must agree on every input: both accept or both
// reject, NULL exactly where Decode's record has no field, and equal values
// elsewhere (a double bit for bit, NaN included). Nothing may panic, and a
// payload both accept must come back unchanged from encode → decode →
// encode (byte for byte, which also holds NaN to itself).
func FuzzCodecDecode(f *testing.F) {
	schema := testSchema()
	c, err := NewCodec(schema)
	if err != nil {
		f.Fatal(err)
	}
	sparse := sampleRecord()
	delete(sparse, "blob")
	sparse["opt"] = ""
	for _, r := range []Record{sampleRecord(), sparse} {
		data, err := c.Encode(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	// Payloads with required fields absent, as a producer whose schema
	// marks them nullable writes them: the parser takes them as NULLs.
	loose := testSchema()
	for i := range loose.Fields {
		loose.Fields[i].Nullable = true
	}
	lc, err := NewCodec(loose)
	if err != nil {
		f.Fatal(err)
	}
	for _, absent := range [][]string{{"id"}, {"city", "ts"}, {"id", "city", "fare", "ok", "ts"}} {
		r := sampleRecord()
		for _, k := range absent {
			delete(r, k)
		}
		data, err := lc.Encode(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := make([]Value, len(schema.Fields))
		valsErr := c.DecodeValues(data, vals)
		r, err := c.Decode(data)
		if (err == nil) != (valsErr == nil) {
			t.Fatalf("Decode error %v, DecodeValues error %v", err, valsErr)
		}
		if err != nil {
			return
		}
		for i, fd := range schema.Fields {
			got, present := r[fd.Name]
			if present == vals[i].Null {
				t.Fatalf("field %q: in the record %v, NULL %v", fd.Name, present, vals[i].Null)
			}
			if present && !sameValue(got, vals[i], fd.Type) {
				t.Fatalf("field %q: Decode %#v, DecodeValues %+v", fd.Name, got, vals[i])
			}
		}
		first, err := c.Encode(r)
		if err != nil {
			return // a required field the payload marked absent
		}
		back, err := c.Decode(first)
		if err != nil {
			t.Fatalf("decoding the re-encoded record: %v", err)
		}
		second, err := c.Encode(back)
		if err != nil || !bytes.Equal(first, second) {
			t.Fatalf("encode(decode(encode(r))) = %x, %v; want %x", second, err, first)
		}
	})
}

// sameValue reports whether a decoded record value is v as a field of type
// t holds it.
func sameValue(got any, v Value, t metadata.FieldType) bool {
	switch x := got.(type) {
	case int64:
		return (t == metadata.TypeLong || t == metadata.TypeTimestamp) && x == v.I
	case float64:
		return t == metadata.TypeDouble && math.Float64bits(x) == math.Float64bits(v.F)
	case string:
		return t == metadata.TypeString && x == string(v.B)
	case bool:
		return t == metadata.TypeBool && (v.I == 0 || v.I == 1) && x == (v.I == 1)
	case []byte:
		return t == metadata.TypeBytes && bytes.Equal(x, v.B)
	}
	return false
}

func TestCodecRejectsInvalidSchema(t *testing.T) {
	if _, err := NewCodec(&metadata.Schema{Name: ""}); err == nil {
		t.Error("NewCodec should validate schema")
	}
}

func TestCodecProperty(t *testing.T) {
	// Property: Encode/Decode round-trips arbitrary long/double/string
	// values bit-exactly.
	s := &metadata.Schema{
		Name:    "prop",
		Version: 1,
		Fields: []metadata.Field{
			{Name: "l", Type: metadata.TypeLong},
			{Name: "d", Type: metadata.TypeDouble},
			{Name: "s", Type: metadata.TypeString},
		},
	}
	c, _ := NewCodec(s)
	f := func(l int64, d float64, str string) bool {
		if math.IsNaN(d) {
			return true // NaN != NaN; skip
		}
		data, err := c.Encode(Record{"l": l, "d": d, "s": str})
		if err != nil {
			return false
		}
		got, err := c.Decode(data)
		if err != nil {
			return false
		}
		return got.Long("l") == l && got.Double("d") == d && got.String("s") == str
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCodecDeterministic(t *testing.T) {
	c, _ := NewCodec(testSchema())
	a, _ := c.Encode(sampleRecord())
	b, _ := c.Encode(sampleRecord())
	if !bytes.Equal(a, b) {
		t.Error("encoding is not deterministic")
	}
}

// Encode conforms field by field as it writes. Its bytes must be those of
// encoding the conformed record, and its errors conform's, for conforming,
// coercible, missing-required and wrong-type input alike.
func TestEncodeMatchesConform(t *testing.T) {
	with := func(k string, v any) Record {
		r := sampleRecord()
		if v == nil {
			delete(r, k)
		} else {
			r[k] = v
		}
		return r
	}
	cases := map[string]Record{
		"conforming":          sampleRecord(),
		"unknown column":      with("extra", "dropped"),
		"int as long":         with("id", 42),
		"whole float as long": with("ts", 1700000000000.0),
		"long as double":      with("fare", int64(12)),
		"int as double":       with("fare", 12),
		"nullable absent":     with("blob", nil),
		"nullable nil":        Record{"id": int64(1), "city": "x", "fare": 1.0, "ok": false, "ts": int64(2), "opt": nil},
		"missing required":    with("city", nil),
		"nil required":        Record{"id": int64(1), "city": nil, "fare": 1.0, "ok": false, "ts": int64(2)},
		"fraction as long":    with("id", 1.5),
		"string as long":      with("id", "42"),
		"long as string":      with("city", int64(7)),
		"string as bool":      with("ok", "true"),
		"string as bytes":     with("blob", "abc"),
		"two bad fields":      Record{"id": "x", "fare": "y", "ok": true, "ts": int64(2)},
	}
	schema := testSchema()
	c, err := NewCodec(schema)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range cases {
		got, gotErr := c.Encode(r)
		conformed, wantErr := conform(r, schema)
		if wantErr != nil {
			if gotErr == nil || gotErr.Error() != wantErr.Error() || got != nil {
				t.Errorf("%s: Encode = %v, %v; want conform's error %v", name, got, gotErr, wantErr)
			}
			continue
		}
		if gotErr != nil {
			t.Errorf("%s: Encode: %v", name, gotErr)
			continue
		}
		// A conformed record holds only canonical values, so encoding it
		// exercises no coercion: it is the reference.
		want, err := c.Encode(conformed)
		if err != nil {
			t.Fatalf("%s: encoding the conformed record: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: Encode = %x, conformed encodes to %x", name, got, want)
		}
		back, err := c.Decode(got)
		if err != nil || !reflect.DeepEqual(back, conformed) {
			t.Errorf("%s: decoded %v (%v), want %v", name, back, err, conformed)
		}
	}
}

// Encoding a record of canonical values allocates the payload and nothing
// else.
func TestEncodeAllocations(t *testing.T) {
	c, _ := NewCodec(testSchema())
	r := sampleRecord()
	if n := testing.AllocsPerRun(100, func() { _, _ = c.Encode(r) }); n > 1 {
		t.Errorf("Encode allocates %v times per record, want 1 (the payload)", n)
	}
}
