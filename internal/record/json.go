package record

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"repro/internal/metadata"
)

// jsonFloat is a float64 whose JSON keeps every value: a finite number,
// −0 included, as a JSON number, and NaN, +Inf and −Inf, which JSON has no
// number for, as the strings "NaN", "+Inf" and "-Inf". It reads either form.
type jsonFloat float64

// MarshalJSON implements json.Marshaler.
func (f jsonFloat) MarshalJSON() ([]byte, error) {
	x := float64(f)
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return strconv.AppendQuote(nil, strconv.FormatFloat(x, 'g', -1, 64)), nil
	}
	return strconv.AppendFloat(nil, x, 'g', -1, 64), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *jsonFloat) UnmarshalJSON(data []byte) error {
	s := string(data)
	if s == "null" {
		return nil
	}
	if len(s) > 0 && s[0] == '"' {
		var err error
		if s, err = strconv.Unquote(s); err != nil {
			return err
		}
	}
	x, err := strconv.ParseFloat(s, 64)
	*f = jsonFloat(x)
	return err
}

// aggJSON is Agg's JSON: the field names a window has always checkpointed
// its states under, so a state written as plain numbers reads back.
type aggJSON struct {
	Count         int64
	Sum, Min, Max jsonFloat
}

// MarshalJSON implements json.Marshaler: a state whose sum, minimum or
// maximum is NaN or infinite snapshots, and reads back, as it is.
func (a Agg) MarshalJSON() ([]byte, error) {
	return json.Marshal(aggJSON{a.Count, jsonFloat(a.Sum), jsonFloat(a.Min), jsonFloat(a.Max)})
}

// UnmarshalJSON implements json.Unmarshaler.
func (a *Agg) UnmarshalJSON(data []byte) error {
	var j aggJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*a = Agg{j.Count, float64(j.Sum), float64(j.Min), float64(j.Max)}
	return nil
}

// valueJSON is Value's JSON: a long past 2^53 and the bytes of a string or
// bytes cell exactly, and a double by jsonFloat's rule.
type valueJSON struct {
	Null bool  `json:",omitempty"`
	I    int64 `json:",omitempty"`
	F    jsonFloat
	B    []byte `json:",omitempty"`
}

// MarshalJSON implements json.Marshaler: a cell as a checkpoint keeps it.
// Its field's type is not in it; whoever writes cells writes their schema.
func (v Value) MarshalJSON() ([]byte, error) {
	return json.Marshal(valueJSON{v.Null, v.I, jsonFloat(v.F), v.B})
}

// UnmarshalJSON implements json.Unmarshaler.
func (v *Value) UnmarshalJSON(data []byte) error {
	var j valueJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*v = Value{j.Null, j.I, float64(j.F), j.B}
	return nil
}

// rowJSON is Row's JSON, as encoding/json writes a Row: its schema and its
// cells, typed by the schema's fields.
type rowJSON struct {
	Schema *metadata.Schema
	Vals   []Value
}

// UnmarshalJSON implements json.Unmarshaler: a row without a schema, or
// with another number of cells than its schema has fields, is an error, so
// a corrupt checkpoint never yields a row a reader indexes past.
func (r *Row) UnmarshalJSON(data []byte) error {
	var j rowJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.Schema == nil || len(j.Schema.Fields) != len(j.Vals) {
		return fmt.Errorf("record: a row of %d cells without a schema of as many fields", len(j.Vals))
	}
	*r = Row(j)
	return nil
}
