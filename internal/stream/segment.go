package stream

import "encoding/binary"

// segment is one chunk of a partition's log, laid out the way the paper's
// Kafka lays out its log (§4.1): the records back to back in one
// append-only byte slab, and the offset each ends at in an index. A segment
// is a handful of allocations the collector does not look into, however
// many messages it holds, and a rolled one keeps the slab it was written
// into (seal); Message values exist only between a fetch and its caller.
// Like Kafka, retention removes whole segments from the head of the log,
// never individual messages.
//
// A record is
//
//	timestamp   8 bytes, little endian
//	seq         varint
//	appTime     varint
//	audit       uvarint, an index into audits
//	key, value  uvarint length, bytes
//	headers     uvarint count, then each key and value as length, bytes
//
// which never takes more bytes than Message.sizeBytes charges for it (any
// key, value or header below 256 MiB), so data stays under the roll size
// plus one record.
type segment struct {
	baseOffset int64
	// data is the slab. Fetched messages alias it, so a byte below len(data)
	// is never written again: growing and trimming copy, and a truncation
	// clips the capacity where it cuts.
	data []byte
	// ends[i] is where record i ends in data; it begins where i-1 ends.
	ends []uint32
	// audits interns the (Service, Tier) pairs of the segment's records:
	// every message of one producer carries the same pair.
	audits []audit
	// bytes is what retention charges for the segment: the sum of
	// sizeBytes over its messages, not len(data).
	bytes int64
	// maxTime is the newest Timestamp in the segment, in milliseconds.
	maxTime int64
}

type audit struct{ service, tier string }

// minSlabBytes is the first allocation of a slab with nothing to go by.
const minSlabBytes = 1 << 10

// newSegment starts a segment at base. Its slab and index are sized by what
// prev, the segment that just rolled, came to (plus a sixteenth): a
// partition's segments hold much the same messages, so a steady log
// allocates each of them once.
func newSegment(base int64, prev *segment) *segment {
	s := &segment{baseOffset: base}
	if prev != nil {
		s.data = make([]byte, 0, len(prev.data)+len(prev.data)/16)
		s.ends = make([]uint32, 0, len(prev.ends)+len(prev.ends)/16)
	}
	return s
}

// count is the number of records in the segment.
func (s *segment) count() int { return len(s.ends) }

// append adds m, charged sz bytes and stamped ts, to the segment. limit
// bounds the slab: the roll size plus this record.
func (s *segment) append(m *Message, ts, sz, limit int64) {
	if int64(cap(s.data)-len(s.data)) < sz {
		// Double, but not past the limit. A record larger than it was
		// charged (see segment) still fits: the encoder's appends grow the
		// slab the ordinary way.
		c := min(max(2*int64(cap(s.data)), minSlabBytes), limit)
		s.data = append(make([]byte, 0, max(c, int64(len(s.data))+sz)), s.data...)
	}
	b := binary.LittleEndian.AppendUint64(s.data, uint64(ts))
	b = binary.AppendVarint(b, m.Seq)
	b = binary.AppendVarint(b, m.AppTime)
	b = binary.AppendUvarint(b, uint64(s.auditID(m.Service, m.Tier)))
	b = appendSized(b, m.Key)
	b = appendSized(b, m.Value)
	b = binary.AppendUvarint(b, uint64(len(m.Headers)))
	for k, v := range m.Headers {
		b = appendSized(b, k)
		b = appendSized(b, v)
	}
	s.data = b
	s.ends = append(s.ends, uint32(len(b)))
	s.bytes += sz
	if s.count() == 1 || ts > s.maxTime {
		s.maxTime = ts
	}
}

func appendSized[T []byte | string](b []byte, v T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(v))), v...)
}

// auditID interns a (Service, Tier) pair, looking at the newest first.
func (s *segment) auditID(service, tier string) int {
	for i := len(s.audits) - 1; i >= 0; i-- {
		if a := s.audits[i]; a.service == service && a.tier == tier {
			return i
		}
	}
	s.audits = append(s.audits, audit{service, tier})
	return len(s.audits) - 1
}

// seal ends a segment's appends. A rolled segment keeps the slab and index
// it was written into: newSegment sized them from their predecessor plus a
// sixteenth, so their spare is within that sixteenth, and each byte is
// written once. Only one whose spare is past it — the first segment's,
// which grew by doubling, or one that rolled short — is copied to size.
func (s *segment) seal() { s.data, s.ends = trim(s.data), trim(s.ends) }

// trim returns v, copied to its length when more than a sixteenth of its
// capacity is spare.
func trim[T any](v []T) []T {
	if 16*(cap(v)-len(v)) <= cap(v) {
		return v
	}
	out := make([]T, len(v))
	copy(out, v)
	return out
}

// truncate cuts the segment back to its first keep records and returns what
// the cut ones were charged. The slab's capacity is clipped at the cut:
// readers of the branch that is cut off still hold messages aliasing the
// bytes above it, so the log that regrows over the same offsets must not be
// written there.
func (s *segment) truncate(keep int) (charged int64) {
	var m Message
	for i := keep; i < s.count(); i++ {
		s.message(i, &m)
		charged += m.sizeBytes()
	}
	end := s.start(keep)
	s.data = s.data[:end:end]
	s.ends = s.ends[:keep]
	s.bytes -= charged
	return charged
}

// start is where record i begins in data.
func (s *segment) start(i int) int {
	if i == 0 {
		return 0
	}
	return int(s.ends[i-1])
}

// message decodes record i into m, all but Topic, Partition and Offset,
// which follow from where the record is. Key and Value alias the slab,
// capacity clipped; Headers is a fresh map, nil when the record has none.
func (s *segment) message(i int, m *Message) {
	b := s.data[s.start(i):s.ends[i]]
	m.Timestamp = int64(binary.LittleEndian.Uint64(b))
	b = b[8:]
	var n int
	m.Seq, n = binary.Varint(b)
	b = b[n:]
	m.AppTime, n = binary.Varint(b)
	b = b[n:]
	id, b := readUvarint(b)
	m.Service, m.Tier = s.audits[id].service, s.audits[id].tier
	m.Key, b = readSized(b)
	m.Value, b = readSized(b)
	m.Headers = nil
	if hn, b := readUvarint(b); hn > 0 {
		m.Headers = make(map[string]string, hn)
		for ; hn > 0; hn-- {
			var k, v []byte
			k, b = readSized(b)
			v, b = readSized(b)
			m.Headers[string(k)] = string(v)
		}
	}
}

// readUvarint returns a uvarint and the rest. The one-byte case, which is
// every count, id and length of an ordinary message, is a fifth of a fetch
// cheaper without binary.Uvarint's loop.
func readUvarint(b []byte) (uint64, []byte) {
	if b[0] < 0x80 {
		return uint64(b[0]), b[1:]
	}
	v, n := binary.Uvarint(b)
	return v, b[n:]
}

// readSized returns a length-prefixed field, nil when empty, and the rest.
func readSized(b []byte) (field, rest []byte) {
	n, b := readUvarint(b)
	if n == 0 {
		return nil, b
	}
	return b[:n:n], b[n:]
}

// residentBytes is what the segment holds in memory, capacities counted.
func (s *segment) residentBytes() int64 {
	return int64(cap(s.data)) + 4*int64(cap(s.ends))
}
