package flinksql

import (
	"encoding/binary"
	"math"
	"sync"

	"repro/internal/flow"
	"repro/internal/metadata"
	"repro/internal/record"
	"repro/internal/sqlparse"
)

// This file is the one implementation of a compiled query's WHERE, GROUP BY
// key and projection. Each works on schema-bound rows (flow.Event.Row) by
// position, binding its columns once per schema, and none builds a map.

// rowStage is one parallel instance of a stateless compiled stage.
type rowStage struct {
	flow.Stateless
	fn func(e flow.Event, emit func(flow.Event))
}

// ProcessElement implements flow.Operator.
func (s rowStage) ProcessElement(e flow.Event, emit func(flow.Event)) error {
	s.fn(e, emit)
	return nil
}

// columns binds column names to the positions of a row's schema, once per
// schema.
type columns struct {
	names []string
	bound *metadata.Schema
	at    []int // per name: its field in bound, or -1
}

func (c *columns) bind(s *metadata.Schema) {
	if s == c.bound {
		return
	}
	c.bound, c.at = s, c.at[:0]
	for _, n := range c.names {
		c.at = append(c.at, s.FieldIndex(n))
	}
}

// cell returns the i-th column's cell in r and its field type: NULL when r's
// schema lacks the column.
func (c *columns) cell(r record.Row, i int) (record.Value, metadata.FieldType) {
	at := c.at[i]
	if at < 0 {
		return record.Value{Null: true}, metadata.TypeInvalid
	}
	return r.Vals[at], r.Schema.Fields[at].Type
}

// ---- WHERE ----

// whereStage keeps the rows every predicate matches.
func whereStage(preds []sqlparse.Predicate, parallelism int) flow.StageSpec {
	compiled := make([]sqlparse.Compiled, len(preds))
	names := make([]string, len(preds))
	for i, p := range preds {
		compiled[i], names[i] = p.Compile(), p.Column
	}
	return flow.StageSpec{
		Name:        "where",
		Parallelism: parallelism,
		New: func() flow.Operator {
			cols := &columns{names: names}
			return rowStage{fn: func(e flow.Event, emit func(flow.Event)) {
				cols.bind(e.Row.Schema)
				for i := range compiled {
					if !compiled[i].MatchesValue(cols.cell(e.Row, i)) {
						return
					}
				}
				emit(e)
			}}
		},
	}
}

// ---- GROUP BY key ----

// maxInterned bounds one key stage's interned keys; past it the table
// starts over, so a key space without bound costs allocations, not memory.
const maxInterned = 1 << 12

// keyStage sets each row's routing key to its GROUP BY columns in an
// injective encoding — per column a NULL tag, then the cell: fixed 8 bytes
// for a number (a double's record.CanonBits, so -0 is 0 and every NaN one;
// a long as groupLong spells it), length-prefixed bytes for a string — so
// rows batch SQL puts in one group share a key, and no two groups do,
// whatever their strings hold. The spelling is persisted in window
// checkpoints and decides the keyed-exchange instance of a key, so it is
// kept apart from record.KeyIndex's. Keys are interned: a group seen before
// costs no allocation, and the window stage keys its state by the same
// string without copying it.
func keyStage(groupBy []string, parallelism int) flow.StageSpec {
	return flow.StageSpec{
		Name:        "keyby",
		Parallelism: parallelism,
		New: func() flow.Operator {
			cols := &columns{names: groupBy}
			var buf []byte
			keys := make(map[string]string)
			return rowStage{fn: func(e flow.Event, emit func(flow.Event)) {
				cols.bind(e.Row.Schema)
				buf = appendGroupKey(buf[:0], cols, e.Row)
				key, ok := keys[string(buf)]
				if !ok {
					if len(keys) >= maxInterned {
						clear(keys)
					}
					key = string(buf)
					keys[key] = key
				}
				e.Key = key
				emit(e)
			}}
		},
	}
}

func appendGroupKey(dst []byte, cols *columns, r record.Row) []byte {
	for i := range cols.names {
		v, t := cols.cell(r, i)
		if v.Null {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, 1)
		switch t {
		case metadata.TypeString, metadata.TypeBytes:
			dst = binary.AppendUvarint(dst, uint64(len(v.B)))
			dst = append(dst, v.B...)
		case metadata.TypeDouble:
			dst = binary.LittleEndian.AppendUint64(dst, record.CanonBits(v.F))
		default:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(groupLong(v.I)))
		}
	}
	return dst
}

// groupLong is the long a GROUP BY key spells for i: the integer its double
// rounds to (MaxInt64 for 2^63), so two longs past 2^53 that are one double
// are one group, as batch SQL has them. A long a double holds exactly is
// itself, so its key keeps the bytes checkpoints and the keyed exchange know.
func groupLong(i int64) int64 {
	if f := float64(i); f < 1<<63 {
		return int64(f)
	}
	return math.MaxInt64
}

// ---- projection ----

// projectChunk is how many output rows' cells a projection allocates at a
// time: one allocation per chunk, none per row.
const projectChunk = 128

// projectStage emits each row under the output schema — the selected
// columns, renamed — built once per input schema and shared by every
// instance of the stage, so a sink behind several instances sees one schema.
// The output cells are the input cells as they are: strings still alias the
// payload, nothing is copied out of it. A projection of every input column
// in input order shares the input row's cells outright.
func projectStage(outCols []string, renames map[string]string, parallelism int) flow.StageSpec {
	names := make([]string, len(outCols))
	for i, name := range outCols {
		names[i] = renames[name]
	}
	var mu sync.Mutex
	outputs := make(map[*metadata.Schema]*metadata.Schema)
	output := func(in *metadata.Schema, at []int) *metadata.Schema {
		mu.Lock()
		defer mu.Unlock()
		out, ok := outputs[in]
		if !ok {
			out = outputSchema(in, outCols, at)
			outputs[in] = out
		}
		return out
	}
	return flow.StageSpec{
		Name:        "project",
		Parallelism: parallelism,
		New: func() flow.Operator {
			cols := &columns{names: names}
			var out *metadata.Schema
			var identity bool
			var chunk []record.Value
			return rowStage{fn: func(e flow.Event, emit func(flow.Event)) {
				if e.Row.Schema != cols.bound {
					cols.bind(e.Row.Schema)
					out = output(e.Row.Schema, cols.at)
					identity = isIdentity(cols.at, len(e.Row.Schema.Fields))
				}
				if identity {
					// Every input cell, in input order: the row keeps its
					// cells under the output schema. No stage writes a
					// row's cells in place, so sharing them is safe.
					e.Row.Schema = out
					emit(e)
					return
				}
				w := len(outCols)
				if len(chunk) < w {
					chunk = make([]record.Value, projectChunk*w)
				}
				vals := chunk[:w:w]
				chunk = chunk[w:]
				for i := range vals {
					vals[i], _ = cols.cell(e.Row, i)
				}
				e.Row = record.Row{Schema: out, Vals: vals}
				emit(e)
			}}
		},
	}
}

// isIdentity reports whether a projection's columns, bound at at, are an
// n-field schema's fields in order.
func isIdentity(at []int, n int) bool {
	if len(at) != n {
		return false
	}
	for i, f := range at {
		if f != i {
			return false
		}
	}
	return true
}

// outputSchema is in projected onto outCols, column i from in's field at[i];
// a column in lacks is a nullable string, always NULL.
func outputSchema(in *metadata.Schema, outCols []string, at []int) *metadata.Schema {
	out := &metadata.Schema{Name: in.Name, Version: in.Version}
	for i, name := range outCols {
		f := metadata.Field{Name: name, Type: metadata.TypeString, Nullable: true}
		if at[i] >= 0 {
			f = in.Fields[at[i]]
			f.Name = name
		}
		out.Fields = append(out.Fields, f)
	}
	return out
}
