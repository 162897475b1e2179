// Package flow implements the stream-processing layer of the stack (Fig 2
// "Compute"): an in-process substitute for Apache Flink (§4.2). It executes
// dataflow jobs — sources, chained keyed/parallel operator stages and sinks
// connected by bounded channels — with the semantics the paper's experiments
// depend on:
//
//   - event-time processing with watermarks and windowed aggregation;
//   - keyed operator state with aligned checkpoint barriers persisted to the
//     object store, and restore-from-checkpoint recovery (A3);
//   - credit-based backpressure: events cross each edge between instances
//     in runs of up to JobSpec.BufferSize, each in one of the edge's few
//     run buffers (its credits); a sender waits for the receiver to hand a
//     buffer back, so consumer slowness propagates back to the sources
//     instead of accumulating unbounded queues (the Storm-vs-Flink backlog
//     recovery experiment, E1). A sender flushes its open runs at the end
//     of each source poll or input run and before every watermark, barrier
//     and end, so no event waits on a timer;
//   - a job management layer (§4.2.2) that deploys, monitors and
//     automatically recovers jobs with a rule-based engine.
//
// An event's payload is a row: schema-bound cells (Event.Row). Sources
// emit rows — StreamSource decodes each message once into one — and every
// library operator, router and sink reads rows by position and emits rows.
// A map exists only inside a user function: MapOp, FilterOp, FlatMapOp,
// ReduceOp, FuncSink and CollectSink hand user code the row boxed into
// Event.Data, and what a function returns is bound back to a row, its
// schema worked out from the map (record.RowBinder).
//
// WindowAggOp answers as batch SQL does over the same rows, so a job and its
// backfill give the answers fedsql gives: each (key, window) folds one
// record.Agg per aggregation, and a NULL or missing field is no input.
// COUNT without a field counts events, COUNT of a field the events whose
// field is not NULL; SUM over no input is 0, and MIN, MAX and AVG over no
// input are NULL cells. COUNT takes a field of any type. SUM, AVG, MIN and
// MAX take a long, timestamp or double field, and a bool as 1 or 0; over a
// string or bytes field they are an error when the operator binds the
// row's schema, as fedsql and the OLAP layer refuse them.
//
// Kappa+ backfill over archived data (§7, E13) lives in the backfill
// subpackage. The flinksql package compiles SQL into these dataflow jobs
// (§4.2.1).
package flow
