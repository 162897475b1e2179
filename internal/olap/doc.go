// Package olap implements the real-time OLAP layer of the stack (Fig 2
// "OLAP"): an in-process substitute for Apache Pinot (§4.3). It provides
// dictionary-encoded, bit-packed columnar segments with inverted, sorted,
// range and star-tree indexes; realtime ingestion from the stream layer with
// segment sealing; a scatter-gather-merge broker over replicated servers;
// shared-nothing upsert (§4.3.1); and both centralized and peer-to-peer
// segment recovery schemes (§4.3.4).
//
// Sealed dictionaries are sorted strings, int64s (long, timestamp and bool,
// exact beyond 2^53) or float64s; every numeric comparison reads a value as
// the float64 record.Compare does. A streamed selection gathers its rows
// straight into the typed vectors of a pooled record.Batch — dictionary
// values by code, raw consuming vectors as they are — and boxes nothing. A
// QueryResponse carries its rows as one typed record.Batch: Finalize gathers
// the key columns and writes each aggregation's result cell
// (record.Agg.AppendFinal), and a streamed selection's batches are copied in
// typed. Broker.ExecuteBatch answers in that batch alone, as the SQL engine
// reads it; Broker.Execute also boxes it into QueryResponse.Columns and Rows
// for callers that read cells.
//
// # Query execution: parallel scatter-gather-merge
//
// A Broker answers queries in three phases (§4.3, DESIGN.md "One scatter"):
//
//   - Scatter: the query is routed once into one producer per routed
//     server, over the sealed segments it hosts (partition-aware routing
//     for upsert tables), plus one per partition with unsealed rows. What a
//     producer does with its rows is the round's sink. Aggregates and
//     ordered selections fold: every scan emits a Partial — one typed
//     table: an aggregate's group keys as record.Vectors in strict key
//     order (record.Vector.KeyCompare) and one flat array of mergeable
//     states (COUNT/SUM/MIN/MAX as a record.Agg's running numerics, AVG as
//     its SUM+COUNT pair, DISTINCTCOUNT as a set of canonical number bits
//     and strings beside it); a selection's columns as record.Vectors —
//     and a server scans its segments through a bounded worker pool
//     (BrokerOptions.Workers; default GOMAXPROCS). Unordered selections
//     stream: scans push row batches onto one bounded channel, in order.
//   - Gather: a producer collects its units' partials and the broker its
//     producers', and each merges them once — an aggregate's runs k ways,
//     equal keys folded, no hash and no object per group; a selection's
//     rows appended. A batch stream is collected (Execute) or handed to
//     the caller (ExecuteStream).
//   - Finalize: the merged partial collapses to final values exactly once:
//     without ORDER BY an aggregate's groups come in key order as they
//     lie; with it rows rank by position over the typed table (the ORDER
//     BY terms, ties by ascending key value). Only the rows returned are
//     boxed.
//
// Queries run under a context.Context: its cancellation or deadline stops
// segment scans between segments, the first
// producer error stops the others, and ORDER-BY-agnostic LIMIT selections
// cancel the remaining fan-out as soon as enough rows are in.
//
// ORDER BY + LIMIT queries take the bounded top-K path (topk.go): segments
// cut a selection's typed columns to its best Limit+Offset rows by every
// ORDER BY term, or trim candidate groups by the leading ORDER BY term to
// max(5·(Limit+Offset), TrimSize) — Pinot's minSegmentGroupTrimSize rule —
// and servers apply the same bound to the merged partial, in place, so the
// broker's gather phase holds O(K · servers) state instead of O(groups). Every cut,
// trim and the final sort break ORDER BY ties by ascending key value — the
// group, or the selected columns — so a selection cut is exact, ties
// included. Group trimming can be inexact under pathological cross-server
// skew (like Pinot); QueryRequest.TrimExact disables it for byte-identical
// full-sort results. ExecStats reports GroupsTrimmed, RowsHeapKept (the rows
// the selection cuts kept) and the GroupsShipped/RowsShipped boundary
// counts.
//
// # Consuming segments
//
// The rows of a partition that are not sealed yet live in a mutableSegment
// (table.go): an append-only column store — raw int64/float64 vectors for
// numerics, dense uint32 codes into an insertion-ordered dictionary for
// strings — that keeps no record.Record. Ingestion appends typed cells to
// it under the deployment lock — the realtime ingester decodes payloads
// straight into cells, Ingest conforms a record into them; a query captures (row count, slice headers) under that
// lock and scans the prefix outside it, through the same selection-vector
// kernels that scan sealed segments (vector.go), so a page costs the same
// just before a seal as just after one. Seal freezes the store by sorting
// dictionaries, remapping codes and bit-packing (mutableSegment.seal).
// Compaction gathers its inputs' valid rows column-wise into one store and
// seals it the same way, and a mutation hook receives each appended row as
// cells (ViewMutation.Row). Records enter the package only at its map
// edges: Ingest, IngestBatch and BuildSegment ("add every row, then seal"),
// which nothing inside the deployment calls. See DESIGN.md "Consuming
// segments" for why readers need no lock.
//
// # Upsert validity
//
// A sealed segment's upsert validity has one owner, the Deployment: one
// copy-on-write bitmap per segment on its metadata, guarded by the
// deployment lock; servers and replicas hold none. A query takes the
// bitmaps in the critical section that captures the consuming stores, so a
// supersede (old row masked, new row appended, under that same lock) is in
// its snapshot whole or not at all; a supersede after the snapshot clears
// its bit in a clone. A rebalance move therefore carries no validity, and a
// seal's bitmap is the frozen store's invalid set at the swap.
//
// # Query API v2: typed requests and pluggable routing
//
// The typed entry points are Broker.ExecuteBatch(ctx, *QueryRequest) and
// Execute, which also boxes the answer (see above): the deadline
// is the context's, the request carries MaxSegments (fan-out budget) and
// the trim options; a time window is a filter on the time column. Which server answers each segment is a
// pluggable Router (router.go): RoundRobinRouter (the default; upsert tables pin to the
// partition owner, §4.3.1), ReplicaGroupRouter (one replica set per query
// bounds fan-out to N/R servers, Fig 5, with per-segment failover to the
// other set) and PartitionRouter (equality filters on the table's declared
// PartitionColumn prune every other partition's server before any scan,
// reported in ExecStats.PartitionsPruned/ServersContacted; Ingest enforces
// the declared partition function so pruning can never miss rows). The
// QueryResponse carries ExecStats plus a RouteInfo for EXPLAIN-style
// consumers.
//
// # Result cache and admission control
//
// Brokers can front execution with the internal/olap/qcache subsystem
// (BrokerOptions.CacheMaxBytes, BrokerOptions.Admission; brokercache.go):
// a bounded-memory LRU result cache keyed by the canonical request shape
// plus the deployment's Generation — an atomic counter bumped by every
// ingest, seal, compaction, drop and recovery, so stale entries
// invalidate automatically — in-flight deduplication of identical queries
// (N concurrent callers execute once and share the response, each with an
// independent ExecStats snapshot), and per-tenant token-bucket admission
// (QueryRequest.Tenant) with a bounded, deadline-aware execution queue
// that sheds overload as the typed ErrOverloaded. Under the same byte
// bound the cache keeps each sealed segment's partial of an aggregate, with
// no generation: the key names the segment, its upsert validity version,
// the filters its scan applies as compiled against the segment's dictionary,
// the query shape and the trim plan (segmentKey), so ingest elsewhere in the
// table leaves it valid and a page under ingest scans only the consuming
// stores and the segments that changed or that its window cuts. ExecStats
// reports CacheHit, Coalesced, Queued, SegmentsCached, the Shed gauge and
// CacheMemBytes.
//
// # Segment lifecycle
//
// Sealed segments move through a lifecycle managed by the subpackage
// internal/olap/lifecycle over the maintenance surface in maintain.go:
// hot (resident on replica servers) → offloaded (encoded form in the deep
// store only, routing metadata resident, transparently reloaded on query
// touch) → expired (dropped by retention once the segment's time bounds
// leave the window). The broker derives one interval from a query's
// filters on the time column (queryTimeBounds) and servers prune segments
// whose [MinTime, MaxTime] bounds lie outside it before any scan or
// deep-store fetch (ExecStats.SegmentsPruned), as the broker skips a
// consuming store whose time bounds lie outside it; a range filter holding a
// segment whole is dropped from its scan (unitFilters), and background
// compaction merges a partition's small sealed segments into one without
// blocking concurrent queries or upsert invalidation.
package olap
