package stream

import (
	"errors"
	"fmt"
	"strconv"
	"time"
)

// Errors returned by the stream layer.
var (
	// ErrTopicNotFound is returned when producing to or consuming from an
	// unknown topic.
	ErrTopicNotFound = errors.New("stream: topic not found")
	// ErrTopicExists is returned when creating a topic that already exists.
	ErrTopicExists = errors.New("stream: topic already exists")
	// ErrOffsetOutOfRange is returned by fetches below the low watermark
	// (retention already removed the data) or above the high watermark.
	ErrOffsetOutOfRange = errors.New("stream: offset out of range")
	// ErrClusterUnavailable is returned while a cluster-wide outage is
	// injected.
	ErrClusterUnavailable = errors.New("stream: cluster unavailable")
	// ErrPartitionOffline is returned when a partition's leader node failed
	// and no replica can take over.
	ErrPartitionOffline = errors.New("stream: partition offline")
)

// Header keys. The first four name the audit metadata of §9.4 ("each such
// event is decorated with additional metadata such as a unique identifier,
// application timestamp, service name, tier by the Kafka client"), which
// lives in Message fields and is read by name through HeaderOr; the rest
// are caller-supplied entries of Message.Headers.
const (
	HeaderUUID       = "uuid"
	HeaderAppTime    = "app-ts"
	HeaderService    = "service"
	HeaderTier       = "tier"
	HeaderRetryCount = "retry-count" // used by the DLQ machinery (§4.1.2)
	HeaderOrigin     = "origin"      // source cluster, stamped by uReplicator
)

// Message is one event in a topic partition. The log keeps messages as
// encoded records (see segment) and builds a Message for each on the way
// out of a fetch: an empty Key, Value or Headers comes back nil whether it
// went in nil or empty — nothing in the program tells them apart.
type Message struct {
	// Topic and Partition locate the message; filled in by the broker.
	Topic     string
	Partition int
	// Offset is the message's position in its partition log, assigned at
	// append time.
	Offset int64
	// Key selects the partition (hashed) and is the upsert / join key for
	// downstream layers. Empty keys are partitioned round-robin.
	Key []byte
	// Value is the payload (typically a record.Codec-encoded event). A
	// produce copies Key and Value into the log; a fetched message's alias
	// the log, which never rewrites them: read, keep and pass them on
	// freely, do not write through them.
	Value []byte
	// Timestamp is the event time in milliseconds since the epoch.
	Timestamp int64
	// Service, Tier, Seq and AppTime are the §9.4 audit metadata, stamped
	// by the Producer: the producing service and its deployment tier, the
	// producer's sequence number (the unique id is "Service-Seq", formatted
	// by UUID) and the application timestamp in milliseconds. Seq 0 means
	// the message went through no Producer. They are plain values, so a
	// retained message carries no per-message map and copying a message
	// never shares them.
	Service string
	Tier    string
	Seq     int64
	AppTime int64
	// Headers carries caller-supplied annotations (HeaderRetryCount,
	// HeaderOrigin). A produce copies the entries into the log and a fetch
	// builds a fresh map (nil when there are none), so the map is its
	// holder's to write.
	Headers map[string]string
}

// UUID returns the message's unique id, "" if no Producer stamped one.
func (m *Message) UUID() string {
	if m.Seq == 0 {
		return ""
	}
	return m.Service + "-" + strconv.FormatInt(m.Seq, 10)
}

// HeaderOr returns the named header or def when absent. The four audit keys
// answer from the Message fields when stamped and from Headers otherwise,
// so hand-built messages that carry them in the map read the same way.
func (m *Message) HeaderOr(key, def string) string {
	if m.Seq != 0 {
		switch key {
		case HeaderUUID:
			return m.UUID()
		case HeaderAppTime:
			return strconv.FormatInt(m.AppTime, 10)
		case HeaderService:
			return m.Service
		case HeaderTier:
			return m.Tier
		}
	}
	if v, ok := m.Headers[key]; ok {
		return v
	}
	return def
}

// sizeBytes approximates the message's footprint for byte-based retention.
// The audit fields are charged what they cost as four headers — key, value
// as HeaderOr formats it, and 8 bytes of overhead each — so a partition
// retains as many messages as when they were map entries. It is a charge,
// not the memory the log spends: the record a message is stored as never
// takes more (see segment), usually well under half.
func (m *Message) sizeBytes() int64 {
	n := int64(len(m.Key) + len(m.Value) + 32)
	if m.Seq != 0 {
		n += int64(len(HeaderUUID)+len(m.Service)+1+decimalLen(m.Seq)+8) +
			int64(len(HeaderAppTime)+decimalLen(m.AppTime)+8) +
			int64(len(HeaderService)+len(m.Service)+8) +
			int64(len(HeaderTier)+len(m.Tier)+8)
	}
	for k, v := range m.Headers {
		n += int64(len(k) + len(v) + 8)
	}
	return n
}

// decimalLen is len(strconv.FormatInt(v, 10)) without formatting.
func decimalLen(v int64) int {
	n := 1
	if v < 0 {
		n = 2
	}
	for v /= 10; v != 0; v /= 10 {
		n++
	}
	return n
}

// AckMode selects the producer acknowledgment / durability contract for a
// topic. The paper's surge pipeline uses a higher-throughput, non-lossless
// configuration (§5.1) while financial data needs zero loss (§9.1).
type AckMode int

const (
	// AckLeader acknowledges once the leader has appended; replication is
	// asynchronous, so messages in the replication window are lost if the
	// leader node fails. This is the high-throughput configuration.
	AckLeader AckMode = iota
	// AckAll acknowledges only after all in-sync replicas have the message:
	// the lossless configuration. Produce latency includes replication.
	AckAll
)

// String returns "leader" or "all".
func (a AckMode) String() string {
	if a == AckAll {
		return "all"
	}
	return "leader"
}

// TopicConfig captures per-topic settings.
type TopicConfig struct {
	// Partitions is the number of partitions; must be >= 1.
	Partitions int
	// ReplicationFactor is the number of copies per partition (leader
	// included); must be >= 1. Replicas live on distinct nodes.
	ReplicationFactor int
	// Acks selects the durability mode (see AckMode).
	Acks AckMode
	// RetentionBytes bounds each partition's log size; oldest whole
	// segments are dropped when exceeded. Zero means unbounded.
	RetentionBytes int64
	// RetentionTime bounds message age; segments whose newest message is
	// older are dropped. Zero means unbounded. The paper limits retention
	// to a few days (§7), which is why Kappa backfill is infeasible.
	RetentionTime time.Duration
	// SegmentBytes is the roll-over size for log segments. Zero uses
	// DefaultSegmentBytes.
	SegmentBytes int64
}

// DefaultSegmentBytes is the segment roll size when TopicConfig.SegmentBytes
// is zero.
const DefaultSegmentBytes = 1 << 20

func (c TopicConfig) withDefaults() (TopicConfig, error) {
	if c.Partitions <= 0 {
		return c, fmt.Errorf("stream: partitions must be >= 1, got %d", c.Partitions)
	}
	if c.ReplicationFactor <= 0 {
		c.ReplicationFactor = 1
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = DefaultSegmentBytes
	}
	// A segment indexes its slab with uint32: rolling by 2 GiB leaves room
	// for the record that crosses the roll size.
	c.SegmentBytes = min(c.SegmentBytes, 1<<31)
	return c, nil
}

// Clock abstracts time for deterministic retention and audit-window tests.
type Clock func() time.Time

// SystemClock is the default wall clock.
func SystemClock() time.Time { return time.Now() }
