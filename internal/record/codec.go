package record

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

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

// Encode serializes the record, conforming it to the schema field by field
// as it goes (conformField, the rule Conform applies): unknown columns are
// dropped and type mismatches are errors.
func (c *Codec) Encode(r Record) ([]byte, error) {
	nf := len(c.schema.Fields)
	bitmapLen := (nf + 7) / 8
	buf := make([]byte, 0, 16+8*nf)
	buf = binary.AppendUvarint(buf, uint64(c.schema.Version))
	bitmapAt := len(buf)
	for i := 0; i < bitmapLen; i++ {
		buf = append(buf, 0)
	}
	for i, f := range c.schema.Fields {
		v, ok, err := conformField(r, f, c.schema.Name)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		buf[bitmapAt+i/8] |= 1 << (i % 8)
		switch f.Type {
		case metadata.TypeLong, metadata.TypeTimestamp:
			buf = binary.AppendVarint(buf, v.(int64))
		case metadata.TypeDouble:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.(float64)))
		case metadata.TypeString:
			s := v.(string)
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		case metadata.TypeBool:
			if v.(bool) {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		case metadata.TypeBytes:
			b := v.([]byte)
			buf = binary.AppendUvarint(buf, uint64(len(b)))
			buf = append(buf, b...)
		}
	}
	return buf, nil
}

// Decode deserializes a payload produced by Encode with the same schema.
func (c *Codec) Decode(data []byte) (Record, error) {
	version, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("record: truncated payload")
	}
	if int(version) != c.schema.Version {
		return nil, fmt.Errorf("record: payload schema version %d, codec has %d", version, c.schema.Version)
	}
	data = data[n:]
	nf := len(c.schema.Fields)
	bitmapLen := (nf + 7) / 8
	if len(data) < bitmapLen {
		return nil, fmt.Errorf("record: truncated presence bitmap")
	}
	bitmap := data[:bitmapLen]
	data = data[bitmapLen:]
	out := make(Record, nf)
	for i, f := range c.schema.Fields {
		if bitmap[i/8]&(1<<(i%8)) == 0 {
			continue
		}
		switch f.Type {
		case metadata.TypeLong, metadata.TypeTimestamp:
			v, n := binary.Varint(data)
			if n <= 0 {
				return nil, fmt.Errorf("record: truncated long field %q", f.Name)
			}
			data = data[n:]
			out[f.Name] = v
		case metadata.TypeDouble:
			if len(data) < 8 {
				return nil, fmt.Errorf("record: truncated double field %q", f.Name)
			}
			out[f.Name] = math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
		case metadata.TypeString:
			// The length is outside input: compare it unconverted, a value
			// of 2^63 or more is negative as an int and would pass.
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return nil, fmt.Errorf("record: truncated string field %q", f.Name)
			}
			out[f.Name] = string(data[n : n+int(l)])
			data = data[n+int(l):]
		case metadata.TypeBool:
			if len(data) < 1 {
				return nil, fmt.Errorf("record: truncated bool field %q", f.Name)
			}
			out[f.Name] = data[0] != 0
			data = data[1:]
		case metadata.TypeBytes:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return nil, fmt.Errorf("record: truncated bytes field %q", f.Name)
			}
			b := make([]byte, l)
			copy(b, data[n:n+int(l)])
			out[f.Name] = b
			data = data[n+int(l):]
		}
	}
	return out, nil
}

// EncodeJSON serializes the record as JSON — the wire format used by the
// document-store baseline, which (like Elasticsearch) persists the original
// document alongside its indexes.
func EncodeJSON(r Record) ([]byte, error) { return json.Marshal(map[string]any(r)) }

// DecodeJSON parses a JSON document into a Record. JSON numbers become
// float64; callers needing longs should Conform the result against a schema.
func DecodeJSON(data []byte) (Record, error) {
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	return Record(m), nil
}
