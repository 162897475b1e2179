package record

import (
	"slices"

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

// cells returns n cells, in buf when it is large enough.
func cells(buf []Value, n int) []Value {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]Value, n)
}
