// Package fedsql implements the interactive, federated SQL layer of the
// stack — the Presto stand-in (§4.5): a query engine that executes full SQL
// (joins, subqueries) across heterogeneous backends through a Connector API,
// pushing as much of the plan as possible down to each backend.
//
// Execution is one operator pipeline over batches. Every relation — a
// connector scan, a pushed-down aggregate, a subquery's result, a join's
// output — is a RowIterator of typed column batches (record.Batch), and one
// consumer drives it: residual filter (sqlparse.Compiled, shared with
// flinksql), then hash aggregate or project, then ORDER BY/LIMIT, every
// operator reading and appending typed vectors: a record.Vector is typed,
// or untyped with every row NULL (a column no source has), never boxed; a
// pushed-down aggregate's rows arrive as the broker's own typed batch
// (olap.QueryResponse.Batch). A value is boxed only at the edges:
// Result.Rows and the v2 Scan/AggregateScan drains, which the engine never
// calls. A join's build side stays typed under a table keyed by the cell
// itself. Every column reference is bound to a batch column index once per
// query, never looked up by name per row.
// Connectors hand over iterators through StreamingConnector, the one surface
// the engine executes through (a catalog without it is refused): OpenScan
// pulls projected, filtered, ordered, limited rows; OpenAggregateScan pushes
// a whole aggregate query into the backend so only per-group rows cross the
// boundary. Capabilities are declared explicitly per fragment; an aggregate
// a connector cannot absorb falls back to a row scan plus engine-side hash
// aggregation, counted in QueryStats.PushdownFallbacks and shown on EXPLAIN's
// row-scan+engine-agg line.
//
// The Pinot connector pushes predicates, projections, aggregations and
// limits into the OLAP layer (§4.3.2, E11/E18) — with a pluggable routing
// strategy (PinotConnector.Router) so partition-filtered federated queries
// skip servers entirely — which is what makes sub-second federated queries
// on fresh data possible; the archive connector streams the long-term store
// one part at a time and relies on engine-side processing, like
// Presto-over-Hive. Result.Stats unifies connector-side and backend
// execution counters, and Result.Plan records one pushdown/routing line per
// table scan (the payload of sqlshell's EXPLAIN).
//
// Concurrency and cancellation thread end-to-end: Engine.QueryCtx passes its
// context into every scan and on into the OLAP broker's parallel
// scatter-gather, a join's build side executes while its probe side opens,
// and a cancelled, timed-out or early-closed (LIMIT met) federated query
// stops segment scans inside the backend.
package fedsql
