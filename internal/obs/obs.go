// Package obs is the reproduction's observability substrate: a lock-cheap
// metrics registry (atomic counters, gauges, fixed-bucket latency histograms
// with quantile estimation, labeled families, snapshotting and a
// Prometheus-style text exposition), per-query span tracing threaded through
// context.Context with a bounded ring of recent traces and a threshold-based
// slow-query log.
//
// The paper's production story (§3-§5: uMetric-style monitoring, Chaperone
// auditing) rests on operators seeing where time and rows go inside every
// query. The repo's six serving mechanisms — scatter-gather, lifecycle,
// routing, top-K, cache/admission, materialized views — each grew counters
// on ExecStats but no per-stage latency attribution and no way to explain a
// slow query after the fact. This package closes that gap and is the layer
// the ROADMAP's loadsim/SLO harness scores against.
//
// # Overhead budget
//
// Everything here sits on the query hot path, so the design is allocation-
// and lock-averse:
//
//   - counters/gauges are single atomics; histograms are one atomic add into
//     a fixed base-2 bucket array (index via bits.Len64, no floating point);
//   - metric handles are bound once at wiring time (NewDeployment, New,
//     NewRegistry) and used lock-free afterwards; the registry's own lock is
//     only taken on registration and snapshot;
//   - a disabled tracer costs one context value lookup and a nil check; an
//     enabled tracer recycles Trace objects through a sync.Pool, stores span
//     data in a flat arena indexed by value-type Span handles (no per-span
//     allocation), and keeps attributes in a fixed inline array;
//   - on a broker cache hit the trace records the decision as a root-span
//     attribute instead of a child span, keeping the instrumented hit path
//     within a few percent of the uninstrumented one (E22 reports the
//     ratio as trace_overhead_x).
//
// Span handles carry a generation stamp checked under the trace lock, so a
// scatter goroutine that outlives its query (early termination) can touch
// its span after the trace was recorded and recycled and the write is a
// safe no-op rather than corruption of a pooled, reused trace.
package obs
