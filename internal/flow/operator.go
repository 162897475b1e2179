package flow

import (
	"encoding/json"
	"fmt"

	"repro/internal/record"
)

// Operator is the user-facing compute interface of one parallel instance of
// a stage. The runtime guarantees single-threaded access per instance, so
// implementations need no locking (matching Flink's operator contract).
type Operator interface {
	// ProcessElement handles one event, emitting zero or more events. e's
	// row cells (Event.Row) may be reused once the call returns unless e
	// is emitted: an operator that keeps a row for later copies it
	// (boxing does, Event.Record).
	ProcessElement(e Event, emit func(Event)) error
	// OnWatermark fires when the instance's combined input watermark
	// advances; window operators fire completed windows here.
	OnWatermark(wm int64, emit func(Event)) error
	// Snapshot serializes the operator state for a checkpoint.
	Snapshot() ([]byte, error)
	// Restore rebuilds state from a Snapshot payload.
	Restore(data []byte) error
	// StateBytes approximates the live state footprint, for memory
	// accounting (experiment E2) and autoscaling heuristics.
	StateBytes() int64
}

// OperatorFactory constructs one operator per parallel instance.
type OperatorFactory func() Operator

// ---- Stateless operators ----

// statelessBase provides no-op state plumbing for stateless operators.
type statelessBase struct{}

// Snapshot implements Operator with empty state.
func (statelessBase) Snapshot() ([]byte, error) { return nil, nil }

// Restore implements Operator with empty state.
func (statelessBase) Restore([]byte) error { return nil }

// StateBytes implements Operator; stateless operators hold nothing.
func (statelessBase) StateBytes() int64 { return 0 }

// OnWatermark implements Operator; stateless operators ignore time.
func (statelessBase) OnWatermark(int64, func(Event)) error { return nil }

// MapOp applies fn to each event, its payload in Data. fn may mutate and
// return the event, or build a new one.
type MapOp struct {
	statelessBase
	Fn func(Event) (Event, error)
}

// ProcessElement implements Operator.
func (m *MapOp) ProcessElement(e Event, emit func(Event)) error {
	out, err := m.Fn(boxed(e))
	if err != nil {
		return err
	}
	emit(out)
	return nil
}

// FilterOp keeps events for which Pred returns true; they go on with their
// payload in Data.
type FilterOp struct {
	statelessBase
	Pred func(Event) bool
}

// ProcessElement implements Operator.
func (f *FilterOp) ProcessElement(e Event, emit func(Event)) error {
	if e = boxed(e); f.Pred(e) {
		emit(e)
	}
	return nil
}

// FlatMapOp emits any number of events per input, its payload in Data.
type FlatMapOp struct {
	statelessBase
	Fn func(Event, func(Event)) error
}

// ProcessElement implements Operator.
func (f *FlatMapOp) ProcessElement(e Event, emit func(Event)) error {
	return f.Fn(boxed(e), emit)
}

// ---- Keyed reduce (running aggregate per key) ----

// ReduceOp maintains one accumulator record per key, merged with Fn on every
// event, and emits the updated accumulator (a changelog-style output).
type ReduceOp struct {
	// Fn merges an event into the accumulator; acc is nil for the first
	// event of a key and the returned record becomes the new accumulator.
	Fn func(acc record.Record, e Event) record.Record

	state map[string]record.Record
	bytes int64
}

// NewReduceOp creates an empty keyed reducer.
func NewReduceOp(fn func(acc record.Record, e Event) record.Record) *ReduceOp {
	return &ReduceOp{Fn: fn, state: make(map[string]record.Record)}
}

// ProcessElement implements Operator.
func (r *ReduceOp) ProcessElement(e Event, emit func(Event)) error {
	e = boxed(e)
	old := r.state[e.Key]
	acc := r.Fn(old, e)
	if old == nil {
		r.bytes += approxRecordBytes(acc) + int64(len(e.Key))
	}
	r.state[e.Key] = acc
	emit(Event{Key: e.Key, Time: e.Time, Data: acc})
	return nil
}

// OnWatermark implements Operator (reduce emits continuously; nothing fires).
func (r *ReduceOp) OnWatermark(int64, func(Event)) error { return nil }

// Snapshot implements Operator.
func (r *ReduceOp) Snapshot() ([]byte, error) { return json.Marshal(r.state) }

// Restore implements Operator.
func (r *ReduceOp) Restore(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	r.state = make(map[string]record.Record)
	if err := json.Unmarshal(data, &r.state); err != nil {
		return fmt.Errorf("flow: restoring reduce state: %w", err)
	}
	r.bytes = 0
	for k, v := range r.state {
		r.bytes += approxRecordBytes(v) + int64(len(k))
	}
	return nil
}

// StateBytes implements Operator.
func (r *ReduceOp) StateBytes() int64 { return r.bytes }

// approxRecordBytes estimates a record's in-memory footprint.
func approxRecordBytes(r record.Record) int64 {
	var n int64 = 48 // map header
	for k, v := range r {
		n += int64(len(k)) + 16
		switch x := v.(type) {
		case string:
			n += int64(len(x))
		case []byte:
			n += int64(len(x))
		default:
			n += 8
		}
	}
	return n
}
