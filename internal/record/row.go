package record

import (
	"fmt"
	"slices"
	"sort"
	"unsafe"

	"repro/internal/metadata"
)

// Row is one record as schema-bound cells: Vals[i] is the value of
// Schema.Fields[i]. It is how a decoded payload travels on the freshness
// path, from the fetch it was parsed out of to the table or topic it goes
// to, without a map; string and bytes cells alias that payload (see Value).
// An OLAP mutation hook receives each appended row as one too.
type Row struct {
	Schema *metadata.Schema
	Vals   []Value
}

// Record boxes the row as Decode does: each non-NULL cell under its field's
// name, strings and bytes copied out of the payload.
func (r Row) Record() Record {
	out := make(Record, len(r.Vals))
	for i, f := range r.Schema.Fields {
		if !r.Vals[i].Null {
			out[f.Name] = r.Vals[i].Box(f.Type)
		}
	}
	return out
}

// Size is the row's resident size: its cells and the bytes they hold.
func (r Row) Size() int64 {
	n := len(r.Vals) * int(unsafe.Sizeof(Value{}))
	for _, v := range r.Vals {
		n += len(v.B)
	}
	return int64(n)
}

// Long returns cell i coerced to int64 by Record.Long's rule: doubles are
// truncated, bools are 0 or 1, strings and bytes are 0. NULL and i < 0 (a
// field the schema lacks) are 0.
func (r Row) Long(i int) int64 {
	if i < 0 || r.Vals[i].Null {
		return 0
	}
	switch r.Schema.Fields[i].Type {
	case metadata.TypeDouble:
		return int64(r.Vals[i].F)
	case metadata.TypeString, metadata.TypeBytes:
		return 0
	}
	return r.Vals[i].I
}

// Double returns cell i coerced to float64 by Record.Double's rule: longs
// convert, bools are 0 or 1, strings and bytes are 0. NULL and i < 0 are 0.
func (r Row) Double(i int) float64 {
	if i < 0 || r.Vals[i].Null {
		return 0
	}
	switch r.Schema.Fields[i].Type {
	case metadata.TypeDouble:
		return r.Vals[i].F
	case metadata.TypeString, metadata.TypeBytes:
		return 0
	}
	return float64(r.Vals[i].I)
}

// Binding maps the cells of one schema's rows onto another's by the rule a
// record is conformed with (ConformValue): a field the target lacks is
// dropped, a target field the source lacks is NULL, and a value whose Go
// type is not the target field's (long into double, double into long) is
// converted by that rule, which takes a double into a long field only when
// it is whole. The OLAP ingester binds a topic's payloads to a table with
// it, and a flow topic sink a job's rows to its output topic.
type Binding struct {
	from []metadata.Field
	to   *metadata.Schema
	src  []int  // per target field: the source field feeding it, or -1
	same []bool // per target field: the source field's values are the target's as they are
}

// Bind binds from's fields to to's, once.
func Bind(from, to *metadata.Schema) *Binding {
	b := &Binding{from: from.Fields, to: to}
	for _, f := range to.Fields {
		src := slices.IndexFunc(b.from, func(cf metadata.Field) bool { return cf.Name == f.Name })
		b.src = append(b.src, src)
		b.same = append(b.same, src >= 0 && goType(b.from[src].Type) == goType(f.Type))
	}
	return b
}

// goType names the Go type a field's values have in a record; long and
// timestamp share int64.
func goType(t metadata.FieldType) metadata.FieldType {
	if t == metadata.TypeTimestamp {
		return metadata.TypeLong
	}
	return t
}

// Conform fills out, one cell per target field, from in, one cell per source
// field. A missing required field and a value the target field cannot hold
// are errors, as ConformValue has them. Cells that need no conversion are
// copied as they are: their bytes still alias what in's did.
func (b *Binding) Conform(in, out []Value) error {
	for i, f := range b.to.Fields {
		v, src := Value{Null: true}, b.src[i]
		if src >= 0 {
			v = in[src]
		}
		if v.Null && f.Nullable || !v.Null && b.same[i] {
			out[i] = v
			continue
		}
		// A missing required field, or a value to convert: the rule itself.
		var boxed any
		if !v.Null {
			boxed = v.Box(b.from[src].Type)
		}
		cv, err := ConformValue(boxed, f, b.to.Name)
		if err != nil {
			return err
		}
		out[i] = ValueOf(cv)
	}
	return nil
}

// RowBinder binds records to rows under a schema worked out from each record,
// not declared: the fields of an input schema, each retyped where the record
// holds a value of another type, then the record's other keys in name
// order, typed by TypeOf. Every field is nullable, and a key the record
// lacks or holds nil is NULL. A Go int is a long, as Coerce takes it; any
// other value that is not a canonical record value is an error. A binder
// keeps the last schema it worked out and reuses it while records fit it,
// so records of one shape share one schema.
type RowBinder struct {
	in, out *metadata.Schema
}

// Bind returns r as a row; in may be nil. The cells alias r's strings and
// byte slices.
func (b *RowBinder) Bind(in *metadata.Schema, r Record) (Row, error) {
	if b.out == nil || in != b.in || !fits(b.out, r) {
		out, err := shape(in, r)
		if err != nil {
			return Row{}, err
		}
		b.in, b.out = in, out
	}
	vals := make([]Value, len(b.out.Fields))
	for i, f := range b.out.Fields {
		v := r[f.Name]
		if n, ok := v.(int); ok {
			v = int64(n)
		}
		vals[i] = ValueOf(v)
	}
	return Row{Schema: b.out, Vals: vals}, nil
}

// BindRows binds records to rows with one RowBinder.
func BindRows(in *metadata.Schema, recs []Record) ([]Row, error) {
	var b RowBinder
	rows := make([]Row, len(recs))
	for i, r := range recs {
		var err error
		if rows[i], err = b.Bind(in, r); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// typeOf is TypeOf, with a Go int a long.
func typeOf(v any) metadata.FieldType {
	if _, ok := v.(int); ok {
		return metadata.TypeLong
	}
	return TypeOf(v)
}

// fits reports whether every non-nil value of r has a field of its type in s.
func fits(s *metadata.Schema, r Record) bool {
	held := 0
	for _, f := range s.Fields {
		if v := r[f.Name]; v != nil {
			if typeOf(v) != goType(f.Type) {
				return false
			}
			held++
		}
	}
	for _, v := range r {
		if v != nil {
			held--
		}
	}
	return held == 0
}

// shape works out the schema RowBinder binds r under.
func shape(in *metadata.Schema, r Record) (*metadata.Schema, error) {
	out := &metadata.Schema{}
	if in != nil {
		out.Name, out.Version = in.Name, in.Version
		out.Fields = append(out.Fields, in.Fields...)
	}
	var extra []string
	for k, v := range r {
		if v != nil && (in == nil || in.FieldIndex(k) < 0) {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		out.Fields = append(out.Fields, metadata.Field{Name: k})
	}
	for i := range out.Fields {
		f := &out.Fields[i]
		f.Nullable = true
		if v := r[f.Name]; v != nil {
			t := typeOf(v)
			if t == metadata.TypeInvalid {
				return nil, fmt.Errorf("record: field %q holds a %T, not a record value", f.Name, v)
			}
			if t != goType(f.Type) {
				f.Type = t
			}
		}
	}
	return out, nil
}

// cells returns n cells, in buf when it is large enough.
func cells(buf []Value, n int) []Value {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]Value, n)
}
