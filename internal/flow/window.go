package flow

import (
	"encoding/json"
	"fmt"
	"sort"
	"unsafe"

	"repro/internal/metadata"
	"repro/internal/record"
)

// Aggregation describes one output column of a window aggregate.
type Aggregation struct {
	Kind record.AggKind
	// Field is the input column aggregated; COUNT without one counts
	// events, with one the events whose field is not NULL.
	Field string
	// As is the output column name; defaults to kind_field.
	As string
}

func (a Aggregation) outName() string {
	if a.As != "" {
		return a.As
	}
	if a.Kind == record.AggCount {
		return "count"
	}
	return fmt.Sprintf("%s_%s", a.Kind, a.Field)
}

// WindowAggOp is a keyed event-time window aggregator supporting tumbling
// and sliding (hopping) windows. Windows fire when the watermark passes
// their end; events older than the watermark ("late-arriving messages",
// §5.1) are dropped and counted.
//
// It reads a row event (Event.Row) by position, the fields bound once per
// schema, and boxes nothing per event: the carried columns are boxed — their
// strings copied — once per (key, window), so no window state pins the log
// slab a row aliases.
type WindowAggOp struct {
	// Size is the window length in ms; must be > 0.
	Size int64
	// Slide is the hop in ms; Slide == Size (or 0) is a tumbling window.
	Slide int64
	// Aggs are the output aggregations; at least one.
	Aggs []Aggregation
	// KeyColumn, when set, copies the event key into the output record
	// under this name.
	KeyColumn string
	// CarryColumns are copied from the first event of each (key, window)
	// into the output record — how SQL GROUP BY over multiple columns
	// rides on a single composite routing key.
	CarryColumns []string

	// windows[key][windowStart] -> per-agg state
	windows   map[string]map[int64][]record.Agg
	carried   map[string]map[int64]record.Record
	lastWM    int64
	lateCount int64
	bytes     int64

	// bound is the schema aggAt and carryAt hold positions in: per
	// aggregation and per carried column, its field, or -1.
	bound   *metadata.Schema
	aggAt   []int
	carryAt []int
	starts  []int64 // assign's scratch
}

// NewWindowAggOp builds a window aggregator; it panics on invalid config
// (caught at job validation time).
func NewWindowAggOp(size, slide int64, keyColumn string, aggs ...Aggregation) *WindowAggOp {
	if slide <= 0 {
		slide = size
	}
	return &WindowAggOp{
		Size: size, Slide: slide, Aggs: aggs, KeyColumn: keyColumn,
		windows: make(map[string]map[int64][]record.Agg),
		carried: make(map[string]map[int64]record.Record),
	}
}

// assign returns the starts of all windows containing t, in a slice the
// next call reuses.
func (w *WindowAggOp) assign(t int64) []int64 {
	w.starts = w.starts[:0]
	first := t - t%w.Slide
	for s := first; s > t-w.Size; s -= w.Slide {
		w.starts = append(w.starts, s)
	}
	return w.starts
}

// bind points aggAt and carryAt at schema's fields; a measure of a type the
// aggregation does not take (measureErr) binds nothing.
func (w *WindowAggOp) bind(schema *metadata.Schema) error {
	w.bound, w.aggAt, w.carryAt = nil, w.aggAt[:0], w.carryAt[:0]
	for _, a := range w.Aggs {
		at := schema.FieldIndex(a.Field)
		if at >= 0 {
			if err := a.measureErr(schema.Fields[at].Type); err != nil {
				return err
			}
		}
		w.aggAt = append(w.aggAt, at)
	}
	for _, c := range w.CarryColumns {
		w.carryAt = append(w.carryAt, schema.FieldIndex(c))
	}
	w.bound = schema
	return nil
}

// measureErr refuses SUM, AVG, MIN and MAX over a string or bytes measure,
// as batch SQL does: a window folds a number, and a bool as 1 or 0, never a
// text coerced to 0. COUNT takes any type.
func (a Aggregation) measureErr(t metadata.FieldType) error {
	if a.Kind == record.AggCount || t != metadata.TypeString && t != metadata.TypeBytes {
		return nil
	}
	return fmt.Errorf("flow: %s(%s) over a %s field: the aggregate needs a number", a.Kind, a.Field, t)
}

// ProcessElement implements Operator.
func (w *WindowAggOp) ProcessElement(e Event, emit func(Event)) error {
	if w.watermark() > e.Time {
		w.lateCount++
		return nil
	}
	row := e.IsRow()
	if row && e.Row.Schema != w.bound {
		if err := w.bind(e.Row.Schema); err != nil {
			return err
		}
	}
	if !row {
		for _, a := range w.Aggs {
			if err := a.measureErr(record.TypeOf(e.Data[a.Field])); err != nil {
				return err
			}
		}
	}
	perKey, ok := w.windows[e.Key]
	if !ok {
		perKey = make(map[int64][]record.Agg)
		w.windows[e.Key] = perKey
		w.bytes += int64(len(e.Key)) + 48
	}
	for _, start := range w.assign(e.Time) {
		states, ok := perKey[start]
		if !ok {
			states = make([]record.Agg, len(w.Aggs))
			perKey[start] = states
			w.bytes += w.windowBytes()
			if len(w.CarryColumns) > 0 {
				cm, ok := w.carried[e.Key]
				if !ok {
					cm = make(map[int64]record.Record)
					w.carried[e.Key] = cm
				}
				carry := make(record.Record, len(w.CarryColumns))
				for ci, c := range w.CarryColumns {
					if !row {
						carry[c] = e.Data[c]
					} else if at := w.carryAt[ci]; at >= 0 {
						carry[c] = e.Row.Vals[at].Box(e.Row.Schema.Fields[at].Type)
					} else {
						carry[c] = nil
					}
				}
				cm[start] = carry
			}
		}
		for i, agg := range w.Aggs {
			// A NULL or missing field is no input: COUNT(col) skips it, and
			// MIN/MAX/AVG over no input are NULL.
			switch {
			case agg.Field == "" && agg.Kind == record.AggCount:
				states[i].Count++
			case row:
				if at := w.aggAt[i]; at >= 0 && !e.Row.Vals[at].Null {
					states[i].Add(e.Row.Double(at))
				}
			case e.Data[agg.Field] != nil:
				states[i].Add(e.Data.Double(agg.Field))
			}
		}
	}
	return nil
}

// watermark returns the highest watermark seen (zero before the first).
func (w *WindowAggOp) watermark() int64 { return w.lastWM }

// OnWatermark fires every window whose end has passed.
func (w *WindowAggOp) OnWatermark(wm int64, emit func(Event)) error {
	w.lastWM = wm
	type fired struct {
		key   string
		start int64
	}
	var toFire []fired
	for key, perKey := range w.windows {
		for start := range perKey {
			if start+w.Size <= wm {
				toFire = append(toFire, fired{key, start})
			}
		}
	}
	// Deterministic firing order: by window start, then key.
	sort.Slice(toFire, func(i, j int) bool {
		if toFire[i].start != toFire[j].start {
			return toFire[i].start < toFire[j].start
		}
		return toFire[i].key < toFire[j].key
	})
	for _, f := range toFire {
		states := w.windows[f.key][f.start]
		out := record.Record{
			"window_start": f.start,
			"window_end":   f.start + w.Size,
		}
		if w.KeyColumn != "" {
			out[w.KeyColumn] = f.key
		}
		if cm, ok := w.carried[f.key]; ok {
			for col, v := range cm[f.start] {
				out[col] = v
			}
			delete(cm, f.start)
			if len(cm) == 0 {
				delete(w.carried, f.key)
			}
		}
		for i, agg := range w.Aggs {
			out[agg.outName()] = states[i].Value(agg.Kind)
		}
		emit(Event{Key: f.key, Time: f.start + w.Size, Data: out})
		delete(w.windows[f.key], f.start)
		w.bytes -= w.windowBytes()
		if len(w.windows[f.key]) == 0 {
			delete(w.windows, f.key)
			w.bytes -= int64(len(f.key)) + 48
		}
	}
	return nil
}

// LateEvents returns the number of dropped late events.
func (w *WindowAggOp) LateEvents() int64 { return w.lateCount }

// windowSnapshot is the serialized checkpoint form. Each key's state is one
// entry, its key as raw bytes: a key need not be valid UTF-8 — a compiled
// GROUP BY key is binary — and JSON would rewrite such a key as an object
// key.
type windowSnapshot struct {
	LastWM int64
	Late   int64
	Keys   []keyState
}

// keyState is one key's open windows and their carried columns.
type keyState struct {
	Key     []byte
	Windows map[int64][]record.Agg
	Carried map[int64]record.Record `json:",omitempty"`
}

// Snapshot implements Operator; keys are written in order, so equal state
// snapshots to equal bytes.
func (w *WindowAggOp) Snapshot() ([]byte, error) {
	keys := make([]string, 0, len(w.windows))
	for key := range w.windows {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	s := windowSnapshot{LastWM: w.lastWM, Late: w.lateCount, Keys: make([]keyState, len(keys))}
	for i, key := range keys {
		s.Keys[i] = keyState{Key: []byte(key), Windows: w.windows[key], Carried: w.carried[key]}
	}
	return json.Marshal(s)
}

// Restore implements Operator.
func (w *WindowAggOp) Restore(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	var s windowSnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("flow: restoring window state: %w", err)
	}
	w.lastWM = s.LastWM
	w.lateCount = s.Late
	w.windows = make(map[string]map[int64][]record.Agg, len(s.Keys))
	w.carried = make(map[string]map[int64]record.Record)
	w.bytes = 0
	for _, k := range s.Keys {
		if len(k.Windows) == 0 {
			continue
		}
		key := string(k.Key)
		w.windows[key] = k.Windows
		if len(k.Carried) > 0 {
			w.carried[key] = k.Carried
		}
		w.bytes += int64(len(key)) + 48 + int64(len(k.Windows))*w.windowBytes()
	}
	return nil
}

// windowBytes is the state one (key, window) is charged: its aggregation
// states and the map entry holding them.
func (w *WindowAggOp) windowBytes() int64 {
	return int64(len(w.Aggs))*int64(unsafe.Sizeof(record.Agg{})) + 16
}

// StateBytes implements Operator.
func (w *WindowAggOp) StateBytes() int64 { return w.bytes }
