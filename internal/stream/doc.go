// Package stream implements the streaming-storage layer of the stack (Fig 2
// "Stream"): a partitioned, replicated append-only log with a
// publish-subscribe interface — the in-process substitute for Apache Kafka
// (§4.1). It provides topics split into partitions, segmented logs with
// retention, producer acknowledgment modes (lossless vs high-throughput),
// consumer groups with rebalancing and committed offsets, and node-failure
// simulation.
//
// A partition's log is a list of segments, each one byte slab of encoded
// records plus an index of where each ends (segment): no Go pointer per
// retained message, so the collector has a handful of objects to mark per
// segment however much the topic holds. Retention charges a message what
// Message.sizeBytes says, which the record never exceeds; PartitionStats
// reports both the charged bytes and the resident ones.
//
// Reading is one type: Reader, a cursor over an explicit set of partitions
// that owns the positions, the park in Cluster.Wait, the fetch, the repair
// of a position the log no longer has (retention passed it, a leader
// failure cut it off — partition.resume is the one rule) and the lag sum.
// Consumer is a Reader plus group assignment and commits; the flow source,
// the OLAP ingester and the replicator each own one too. A Reader decodes
// each fetch into a buffer it reuses; Cluster.Fetch, for the one-off read
// of a test or a tool, returns a fresh slice. Nothing else calls
// Cluster.Wait, and nothing in this layer wakes on a timer to look for
// data: an idle reader is parked (a busy replicator paces itself).
//
// Uber's enhancements from §4.1 live in subpackages:
//
//   - federation: logical clusters spanning physical ones (§4.1.1, E6)
//   - dlq: dead letter queues for poison messages (§4.1.2, E7)
//   - proxy: the push-based consumer proxy (§4.1.3, Fig 4, E5)
//   - replicator: uReplicator cross-cluster replication (§4.1.4, E8)
//   - chaperone: end-to-end auditing (§4.1.5)
//
// Downstream, the flow package consumes these topics for stream processing
// and the olap package ingests them into queryable segments.
package stream
