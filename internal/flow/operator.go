package flow

import (
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"slices"

	"repro/internal/record"
)

// Operator is the user-facing compute interface of one parallel instance of
// a stage. The runtime guarantees single-threaded access per instance, so
// implementations need no locking (matching Flink's operator contract).
type Operator interface {
	// ProcessElement handles one event, emitting zero or more events. e's
	// row cells (Event.Row) may be reused once the call returns unless e
	// is emitted: an operator that keeps a row for later copies its cells.
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

// Stateless provides the no-op state plumbing of a stateless operator, for
// embedding: it keeps nothing and ignores time.
type Stateless struct{}

// Snapshot implements Operator with empty state.
func (Stateless) Snapshot() ([]byte, error) { return nil, nil }

// Restore implements Operator with empty state.
func (Stateless) Restore([]byte) error { return nil }

// StateBytes implements Operator; stateless operators hold nothing.
func (Stateless) StateBytes() int64 { return 0 }

// OnWatermark implements Operator; stateless operators ignore time.
func (Stateless) OnWatermark(int64, func(Event)) error { return nil }

// PassOp emits each event as it came: the stage of a job that only moves
// rows.
type PassOp struct{ Stateless }

// ProcessElement implements Operator.
func (PassOp) ProcessElement(e Event, emit func(Event)) error {
	emit(e)
	return nil
}

// MapOp applies Fn to each event, its payload in Data. Fn may mutate and
// return the event, or build a new one; the Data it returns leaves as a row
// (record.RowBinder), its schema worked out from the map.
type MapOp struct {
	Stateless
	Fn func(Event) (Event, error)

	binder record.RowBinder
}

// ProcessElement implements Operator.
func (m *MapOp) ProcessElement(e Event, emit func(Event)) error {
	out, err := m.Fn(boxed(e))
	if err == nil {
		err = bound(&m.binder, e.Row.Schema, out, emit)
	}
	return err
}

// FilterOp keeps the events for which Pred, shown the payload in Data,
// returns true: each goes on as it came, its row untouched.
type FilterOp struct {
	Stateless
	Pred func(Event) bool
}

// ProcessElement implements Operator.
func (f *FilterOp) ProcessElement(e Event, emit func(Event)) error {
	if f.Pred(boxed(e)) {
		emit(e)
	}
	return nil
}

// FlatMapOp emits any number of events per input, its payload in Data; each
// leaves as a row, as MapOp's does.
type FlatMapOp struct {
	Stateless
	Fn func(Event, func(Event)) error

	binder record.RowBinder
}

// ProcessElement implements Operator.
func (f *FlatMapOp) ProcessElement(e Event, emit func(Event)) error {
	var bindErr error
	err := f.Fn(boxed(e), func(out Event) {
		bindErr = cmp.Or(bindErr, bound(&f.binder, e.Row.Schema, out, emit))
	})
	return cmp.Or(err, bindErr)
}

// ---- Keyed reduce (running aggregate per key) ----

// ReduceOp maintains one accumulator record per key, merged with Fn on every
// event, and emits the updated accumulator as a row (a changelog-style
// output). It checkpoints each accumulator as typed cells with its schema.
type ReduceOp struct {
	// Fn merges an event into the accumulator; acc is nil for the first
	// event of a key and the returned record becomes the new accumulator.
	Fn func(acc record.Record, e Event) record.Record

	state  map[string]record.Record
	bytes  int64
	binder record.RowBinder
}

// NewReduceOp creates an empty keyed reducer.
func NewReduceOp(fn func(acc record.Record, e Event) record.Record) *ReduceOp {
	return &ReduceOp{Fn: fn, state: make(map[string]record.Record)}
}

// ProcessElement implements Operator.
func (r *ReduceOp) ProcessElement(e Event, emit func(Event)) error {
	old := r.state[e.Key]
	acc := r.Fn(old, boxed(e))
	if old == nil {
		r.bytes += approxRecordBytes(acc) + int64(len(e.Key))
	}
	r.state[e.Key] = acc
	return bound(&r.binder, e.Row.Schema, Event{Key: e.Key, Time: e.Time, Data: acc}, emit)
}

// OnWatermark implements Operator (reduce emits continuously; nothing fires).
func (r *ReduceOp) OnWatermark(int64, func(Event)) error { return nil }

// Snapshot implements Operator: each key's accumulator as a row, typed
// cells with their schema, in key order.
func (r *ReduceOp) Snapshot() ([]byte, error) {
	var rows []snapRow
	for _, key := range slices.Sorted(maps.Keys(r.state)) {
		row, err := r.binder.Bind(nil, r.state[key])
		if err != nil {
			return nil, err
		}
		rows = append(rows, snapRow{Key: []byte(key), Row: row})
	}
	return json.Marshal(rows)
}

// Restore implements Operator. A snapshot written before accumulators
// were rows is a JSON object of them as maps.
func (r *ReduceOp) Restore(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	var rows []snapRow
	var legacy map[string]map[string]any
	err := json.Unmarshal(data, &rows)
	if err != nil && json.Unmarshal(data, &legacy) == nil {
		err = nil
	}
	r.state, r.bytes = make(map[string]record.Record, len(rows)+len(legacy)), 0
	for key, acc := range legacy {
		r.state[key] = acc
	}
	for _, k := range rows {
		if k.Row.Schema == nil {
			err = cmp.Or(err, errNoRow)
			continue
		}
		r.state[string(k.Key)] = k.Row.Record()
	}
	if err != nil {
		return fmt.Errorf("flow: restoring reduce state: %w", err)
	}
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
