// Package lifecycle implements the sealed-segment lifecycle of the OLAP
// layer (§4.3.4, §4.4): the policies that keep a table's serving footprint
// bounded while every row stays queryable, mirroring how Pinot servers hold
// only hot segments while sealed segments age out to the archival deep
// store.
//
// A Manager watches one table deployment and applies four policies on a
// background sweep (or synchronously via Sweep):
//
//   - Retention: sealed segments whose [MinTime, MaxTime] bounds fall
//     entirely outside the retention window are dropped from routing and
//     their memory reclaimed; optionally the deep-store copy is deleted
//     too.
//   - Tiered storage: when the number of resident sealed segments exceeds
//     Config.MaxHotSegments, the least-recently-queried overflow is
//     offloaded — the encoded segment is verified (or uploaded) in the
//     deep store (internal/objstore) and every replica drops the columnar
//     data, keeping only routing metadata. A query that touches an
//     offloaded segment transparently reloads it, which re-enters it into
//     the hot set. Offload never drops data without a durable copy: while
//     the deep store is down (objstore.FaultStore outage), segments simply
//     stay hot and only queries that need a cold segment fail — graceful
//     degradation.
//   - Compaction: when one partition accumulates many small sealed
//     segments (frequent seals, low-rate partitions), they are merged into
//     one segment sealed from their still-valid rows (Deployment.Compact),
//     without blocking concurrent queries or upsert invalidation; the
//     upsert location map is rewritten atomically at swap time so the
//     merge stays exact under continuing updates.
//   - Time pruning support: pruning itself lives in the query path
//     (filters on the time column; servers skip segments whose bounds lie
//     outside them, reported in ExecStats.SegmentsPruned) and composes
//     with tiering — an out-of-window offloaded segment is pruned without
//     a deep-store fetch — but the lifecycle manager is what creates the
//     wide-retention segment spread that makes pruning matter.
//
// Experiment E17 (internal/experiments) measures the three headline
// claims: bounded resident memory under continuous ingest, pruning ratio
// under time-windowed queries, and exact results over offloaded segments.
package lifecycle
