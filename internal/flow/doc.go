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
// An event's payload is a map (Event.Data) or schema-bound cells (Event.Row).
// StreamSource decodes each message once into a row, and a row stays a row
// through the compiled SQL stages, the window operator and TopicSink. It is
// boxed into Data only where user code reads maps: the function operators
// (MapOp, FilterOp, FlatMapOp, ReduceOp, IntervalJoinOp), FuncSink,
// CollectSink and keyed routing on a named field, all through Event.Record.
//
// WindowAggOp answers as batch SQL does over the same rows, so a job and its
// backfill give the answers fedsql gives: each (key, window) folds one
// record.Agg per aggregation, and a NULL or missing field is no input.
// COUNT without a field counts events, COUNT of a field the events whose
// field is not NULL; SUM over no input is 0, and MIN, MAX and AVG over no
// input are NULL (a nil in the result record). COUNT takes a field of any
// type. SUM, AVG, MIN and MAX take a long, timestamp or double field, and a
// bool as 1 or 0; over a string or bytes field they are an error — when the
// operator binds a row's schema, or on a map event when it meets such a
// value — as fedsql and the OLAP layer refuse them, never a text read as 0.
//
// Kappa+ backfill over archived data (§7, E13) lives in the backfill
// subpackage. The flinksql package compiles SQL into these dataflow jobs
// (§4.2.1).
package flow
