package record

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"repro/internal/metadata"
)

// Codec serializes Records to a compact schema-driven binary format — the
// stand-in for the Avro payloads that Uber's Kafka topics carry. The format
// is positional: a presence bitmap followed by each present field encoded
// according to its schema type (varints for longs, fixed 8 bytes for
// doubles, length-prefixed bytes for strings/blobs).
//
// The encoded form carries the schema version so readers can detect which
// registered version produced a payload.
type Codec struct {
	schema *metadata.Schema
}

// NewCodec returns a codec bound to the given schema. The schema must be
// valid (see metadata.Schema.Validate).
func NewCodec(s *metadata.Schema) (*Codec, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &Codec{schema: s.Clone()}, nil
}

// Schema returns the codec's bound schema.
func (c *Codec) Schema() *metadata.Schema { return c.schema.Clone() }

// Encode serializes the record: its cells conformed to the schema (Conform),
// then EncodeValues.
func (c *Codec) Encode(r Record) ([]byte, error) {
	var buf [16]Value
	vals := cells(buf[:], len(c.schema.Fields))
	if err := Conform(c.schema, r, vals); err != nil {
		return nil, err
	}
	return c.EncodeValues(make([]byte, 0, 16+8*len(vals)), vals), nil
}

// EncodeValues appends the payload of one row to dst and returns the
// extended slice: vals holds one cell per schema field in schema order,
// already conformed to the schema (Conform, Binding.Conform). It is the
// codec's one writer of the wire format.
func (c *Codec) EncodeValues(dst []byte, vals []Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(c.schema.Version))
	bitmapAt := len(dst)
	for i := 0; i < (len(vals)+7)/8; i++ {
		dst = append(dst, 0)
	}
	for i, f := range c.schema.Fields {
		v := vals[i]
		if v.Null {
			continue
		}
		dst[bitmapAt+i/8] |= 1 << (i % 8)
		switch f.Type {
		case metadata.TypeLong, metadata.TypeTimestamp:
			dst = binary.AppendVarint(dst, v.I)
		case metadata.TypeDouble:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
		case metadata.TypeString, metadata.TypeBytes:
			dst = binary.AppendUvarint(dst, uint64(len(v.B)))
			dst = append(dst, v.B...)
		case metadata.TypeBool:
			if v.I != 0 {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
	}
	return dst
}

// Value is one field of a decoded row, typed by the field's schema type and
// never boxed: long, timestamp and bool (0 or 1) in I, double in F, string
// and bytes in B. B aliases the payload it was parsed from (or, from
// ValueOf, a string's bytes): read it, copy what is kept, never write it.
type Value struct {
	Null bool
	I    int64
	F    float64
	B    []byte
}

// ValueOf is the Value of a canonical record value (see Coerce); nil is
// NULL. A string's B aliases the string's bytes, which must not be written.
func ValueOf(v any) Value {
	switch x := v.(type) {
	case nil:
		return Value{Null: true}
	case int64:
		return Value{I: x}
	case float64:
		return Value{F: x}
	case string:
		return Value{B: unsafe.Slice(unsafe.StringData(x), len(x))}
	case bool:
		if x {
			return Value{I: 1}
		}
		return Value{}
	case []byte:
		return Value{B: x}
	}
	panic(fmt.Sprintf("record: %T is not a canonical value", v))
}

// Box returns the value as a field of type t holds it in a Record: nil for
// NULL, strings and bytes copied out of B.
func (v Value) Box(t metadata.FieldType) any {
	if v.Null {
		return nil
	}
	switch t {
	case metadata.TypeDouble:
		return v.F
	case metadata.TypeString:
		return string(v.B)
	case metadata.TypeBool:
		return v.I != 0
	case metadata.TypeBytes:
		b := make([]byte, len(v.B))
		copy(b, v.B)
		return b
	}
	return v.I
}

// Decode deserializes a payload produced by Encode with the same schema:
// DecodeValues, then the row boxed (Row.Record).
func (c *Codec) Decode(data []byte) (Record, error) {
	// The parser's scratch stays on the stack for up to 16 fields.
	var buf [16]Value
	vals := cells(buf[:], len(c.schema.Fields))
	if err := c.DecodeValues(data, vals); err != nil {
		return nil, err
	}
	return Row{Schema: c.schema, Vals: vals}.Record(), nil
}

// DecodeValues parses a payload produced by Encode with the same schema into
// vals, one Value per schema field in schema order (len(vals) must be the
// field count): an absent field is NULL, and strings and bytes alias data.
// It is the codec's one parser of the wire format.
func (c *Codec) DecodeValues(data []byte, vals []Value) error {
	version, n := binary.Uvarint(data)
	if n <= 0 {
		return fmt.Errorf("record: truncated payload")
	}
	if int(version) != c.schema.Version {
		return fmt.Errorf("record: payload schema version %d, codec has %d", version, c.schema.Version)
	}
	data = data[n:]
	nf := len(c.schema.Fields)
	bitmapLen := (nf + 7) / 8
	if len(data) < bitmapLen {
		return fmt.Errorf("record: truncated presence bitmap")
	}
	bitmap := data[:bitmapLen]
	data = data[bitmapLen:]
	for i, f := range c.schema.Fields {
		vals[i] = Value{Null: true}
		if bitmap[i/8]&(1<<(i%8)) == 0 {
			continue
		}
		switch f.Type {
		case metadata.TypeLong, metadata.TypeTimestamp:
			v, n := binary.Varint(data)
			if n <= 0 {
				return fmt.Errorf("record: truncated long field %q", f.Name)
			}
			data = data[n:]
			vals[i] = Value{I: v}
		case metadata.TypeDouble:
			if len(data) < 8 {
				return fmt.Errorf("record: truncated double field %q", f.Name)
			}
			vals[i] = Value{F: math.Float64frombits(binary.LittleEndian.Uint64(data))}
			data = data[8:]
		case metadata.TypeString, metadata.TypeBytes:
			// The length is outside input: compare it unconverted, a value
			// of 2^63 or more is negative as an int and would pass.
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return fmt.Errorf("record: truncated %s field %q", f.Type, f.Name)
			}
			vals[i] = Value{B: data[n : n+int(l) : n+int(l)]}
			data = data[n+int(l):]
		case metadata.TypeBool:
			if len(data) < 1 {
				return fmt.Errorf("record: truncated bool field %q", f.Name)
			}
			if data[0] != 0 {
				vals[i] = Value{I: 1}
			} else {
				vals[i] = Value{}
			}
			data = data[1:]
		}
	}
	return nil
}
