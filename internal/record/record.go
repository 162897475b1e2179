// Package record defines the structured event representation shared by every
// layer of the stack, together with a compact schema-driven binary codec
// (the stand-in for the paper's Avro payloads) and a JSON codec (used by the
// document-store baseline, which like Elasticsearch stores the raw document).
package record

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/metadata"
)

// Record is one structured event or row. Values are restricted to the types
// matching metadata.FieldType: int64 (long/timestamp), float64 (double),
// string, bool and []byte.
type Record map[string]any

// Clone returns a shallow copy of the record ([]byte values are shared).
func (r Record) Clone() Record {
	c := make(Record, len(r))
	for k, v := range r {
		c[k] = v
	}
	return c
}

// Long returns the named field coerced to int64. Doubles are truncated.
// Missing fields and non-numeric values return 0.
func (r Record) Long(name string) int64 {
	switch v := r[name].(type) {
	case int64:
		return v
	case int:
		return int64(v)
	case float64:
		return int64(v)
	case bool:
		if v {
			return 1
		}
		return 0
	default:
		return 0
	}
}

// Double returns the named field coerced to float64 as ToFloat64 reads it:
// bools are 0 or 1. Missing fields and non-numeric values return 0.
func (r Record) Double(name string) float64 {
	f, _ := ToFloat64(r[name])
	return f
}

// String returns the named field coerced to string; non-strings format with
// %v, missing fields return "".
func (r Record) String(name string) string {
	v, ok := r[name]
	if !ok || v == nil {
		return ""
	}
	if s, ok := v.(string); ok {
		return s
	}
	return fmt.Sprintf("%v", v)
}

// Bool returns the named field as bool (false when missing or non-bool).
func (r Record) Bool(name string) bool {
	b, _ := r[name].(bool)
	return b
}

// Keys returns the record's field names, sorted, for deterministic dumps.
func (r Record) Keys() []string {
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Coerce converts v to the canonical Go representation for the given field
// type. It returns an error when the value cannot represent the type.
func Coerce(v any, t metadata.FieldType) (any, error) {
	if v == nil {
		return nil, nil
	}
	switch t {
	case metadata.TypeLong, metadata.TypeTimestamp:
		switch x := v.(type) {
		case int64:
			return v, nil
		case int:
			return int64(x), nil
		case float64:
			if x == math.Trunc(x) {
				return int64(x), nil
			}
			return nil, fmt.Errorf("record: %v is not an integer", x)
		}
	case metadata.TypeDouble:
		switch x := v.(type) {
		case float64:
			return v, nil
		case int64:
			return float64(x), nil
		case int:
			return float64(x), nil
		}
	case metadata.TypeString:
		if _, ok := v.(string); ok {
			return v, nil
		}
	case metadata.TypeBool:
		if _, ok := v.(bool); ok {
			return v, nil
		}
	case metadata.TypeBytes:
		if _, ok := v.([]byte); ok {
			return v, nil
		}
	}
	return nil, fmt.Errorf("record: cannot coerce %T to %s", v, t)
}

// ConformValue is the rule that conforms one field of a record to its schema
// (schema names it in errors): v, the field's value or nil when absent,
// comes back as the canonical value Coerce gives, nil for a NULL in a
// nullable field; a NULL in a required field and a value the type cannot
// hold are errors. Unknown columns never reach it: a record conforms field
// by field over the schema.
func ConformValue(v any, f metadata.Field, schema string) (any, error) {
	if v == nil {
		if !f.Nullable {
			return nil, fmt.Errorf("record: missing required field %q for schema %q", f.Name, schema)
		}
		return nil, nil
	}
	v, err := Coerce(v, f.Type)
	if err != nil {
		return nil, fmt.Errorf("record: field %q: %w", f.Name, err)
	}
	return v, nil
}

// Conform fills out, one cell per schema field in schema order, from r by
// ConformValue field by field: unknown columns are dropped, and a missing
// required field or a value its type cannot hold is an error. It is the one
// rule a map enters the cell form by (Codec.Encode, the OLAP IngestBatch);
// a string cell aliases r's string.
func Conform(schema *metadata.Schema, r Record, out []Value) error {
	for i, f := range schema.Fields {
		v, err := ConformValue(r[f.Name], f, schema.Name)
		if err != nil {
			return err
		}
		out[i] = ValueOf(v)
	}
	return nil
}
