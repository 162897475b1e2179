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

// Double returns the named field coerced to float64. Missing fields and
// non-numeric values return 0.
func (r Record) Double(name string) float64 {
	switch v := r[name].(type) {
	case float64:
		return v
	case int64:
		return float64(v)
	case int:
		return float64(v)
	default:
		return 0
	}
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

// Conform validates r against the schema and returns a copy containing only
// schema columns with canonical value types. Missing non-nullable columns
// are an error; missing nullable columns are left absent.
func Conform(r Record, s *metadata.Schema) (Record, error) {
	out := make(Record, len(s.Fields))
	for _, f := range s.Fields {
		cv, ok, err := conformField(r, f, s.Name)
		if err != nil {
			return nil, err
		}
		if ok {
			out[f.Name] = cv
		}
	}
	return out, nil
}

// conformField is Conform's rule for one field: the canonical value of r's
// column f, ok=false when a nullable column is absent or nil.
func conformField(r Record, f metadata.Field, schema string) (v any, ok bool, err error) {
	v, ok = r[f.Name]
	if !ok || v == nil {
		if !f.Nullable {
			return nil, false, fmt.Errorf("record: missing required field %q for schema %q", f.Name, schema)
		}
		return nil, false, nil
	}
	if v, err = Coerce(v, f.Type); err != nil {
		return nil, false, fmt.Errorf("record: field %q: %w", f.Name, err)
	}
	return v, true, nil
}
