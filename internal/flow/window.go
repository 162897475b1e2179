package flow

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"
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
// It reads rows by position, the fields bound once per input schema, and
// emits each window as a row under the output schema it derives at that
// bind (Columns). A window's row is made when the window opens, its key and
// carried cells copied out of the input, so no window state pins the log
// slab a row aliases; when it fires, its aggregations and bounds are filled
// in and the row leaves as it is.
type WindowAggOp struct {
	// Size is the window length in ms; must be > 0.
	Size int64
	// Slide is the hop in ms; Slide == Size (or 0) is a tumbling window.
	Slide int64
	// Aggs are the output aggregations; at least one.
	Aggs []Aggregation
	// KeyColumn, when set, copies the event key into the output row under
	// this name, as a string.
	KeyColumn string
	// CarryColumns are copied from the first event of each (key, window)
	// into the output row, typed as the input has them (a NULL string where
	// it lacks one) — how SQL GROUP BY over multiple columns rides on a
	// single composite routing key.
	CarryColumns []string

	windows   map[windowID]*window
	lastWM    int64
	lateCount int64
	bytes     int64

	// bound is the input schema aggAt and carryAt hold positions in: per
	// aggregation and per carried column, its field, or -1. out is the
	// output schema derived from it.
	bound   *metadata.Schema
	out     *metadata.Schema
	aggAt   []int
	carryAt []int
	starts  []int64 // assign's scratch
}

// windowID names one open window: its key and its start.
type windowID struct {
	key   string
	start int64
}

// byStart orders windows by start, then key: the order they fire in.
func byStart(a, b windowID) int {
	return cmp.Or(cmp.Compare(a.start, b.start), strings.Compare(a.key, b.key))
}

// window is one open window's state: a fold per aggregation, and the row it
// emits, its key and carried cells set when it opens.
type window struct {
	aggs []record.Agg
	row  record.Row
}

// size is the state a window is charged: its key, its folds, its row's
// cells and their bytes, and the map entry holding it.
func (win *window) size(id windowID) int64 {
	return int64(len(id.key)+len(win.aggs)*int(unsafe.Sizeof(record.Agg{}))) + win.row.Size() + 64
}

// NewWindowAggOp builds a window aggregator; its configuration is checked
// when it binds its first row's schema.
func NewWindowAggOp(size, slide int64, keyColumn string, aggs ...Aggregation) *WindowAggOp {
	if slide <= 0 {
		slide = size
	}
	return &WindowAggOp{
		Size: size, Slide: slide, Aggs: aggs, KeyColumn: keyColumn,
		windows: make(map[windowID]*window),
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

// Columns names the output row's columns in order: the key column, if any,
// the carried columns, the aggregations (COUNT a long, the others a double,
// as record.Agg.AppendFinal writes them), then window_start and window_end.
// Two columns of one name are an error.
func (w *WindowAggOp) Columns() ([]string, error) {
	op := &WindowAggOp{KeyColumn: w.KeyColumn, CarryColumns: w.CarryColumns, Aggs: w.Aggs}
	if err := op.bind(&metadata.Schema{}); err != nil {
		return nil, err
	}
	return op.out.FieldNames(), nil
}

// bind points aggAt and carryAt at in's fields and derives the output
// schema (Columns), a carried column typed as in has it; a measure of a
// type the aggregation does not take (measureErr) binds nothing.
func (w *WindowAggOp) bind(in *metadata.Schema) error {
	w.bound, w.aggAt, w.carryAt = nil, w.aggAt[:0], w.carryAt[:0]
	out := &metadata.Schema{Name: in.Name, Version: in.Version}
	add := func(name string, t metadata.FieldType, nullable bool) {
		out.Fields = append(out.Fields, metadata.Field{Name: name, Type: t, Nullable: nullable})
	}
	if w.KeyColumn != "" {
		add(w.KeyColumn, metadata.TypeString, false)
	}
	for _, c := range w.CarryColumns {
		at := in.FieldIndex(c)
		if w.carryAt = append(w.carryAt, at); at >= 0 {
			out.Fields = append(out.Fields, in.Fields[at])
		} else {
			add(c, metadata.TypeString, true)
		}
	}
	for _, a := range w.Aggs {
		at := in.FieldIndex(a.Field)
		if at >= 0 {
			if err := a.measureErr(in.Fields[at].Type); err != nil {
				return err
			}
		}
		if w.aggAt = append(w.aggAt, at); a.Kind == record.AggCount {
			add(a.outName(), metadata.TypeLong, false)
		} else {
			add(a.outName(), metadata.TypeDouble, a.Kind != record.AggSum)
		}
	}
	add("window_start", metadata.TypeTimestamp, false)
	add("window_end", metadata.TypeTimestamp, false)
	for i, f := range out.Fields {
		if out.FieldIndex(f.Name) != i {
			return fmt.Errorf("flow: window output column %q named twice", f.Name)
		}
	}
	w.bound, w.out = in, out
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
	if w.lastWM > e.Time {
		w.lateCount++
		return nil
	}
	if e.Row.Schema != w.bound {
		if err := w.bind(e.Row.Schema); err != nil {
			return err
		}
	}
	for _, start := range w.assign(e.Time) {
		id := windowID{e.Key, start}
		win, ok := w.windows[id]
		if !ok {
			win = w.open(e)
			w.windows[id] = win
			w.bytes += win.size(id)
		}
		for i, agg := range w.Aggs {
			// A NULL or missing field is no input: COUNT(col) skips it, and
			// MIN/MAX/AVG over no input are NULL.
			switch at := w.aggAt[i]; {
			case agg.Field == "" && agg.Kind == record.AggCount:
				win.aggs[i].Count++
			case at >= 0 && !e.Row.Vals[at].Null:
				win.aggs[i].Add(e.Row.Double(at))
			}
		}
	}
	return nil
}

// open is the state of a window e opens: its row under the output schema,
// the key and carried cells copied out of e.
func (w *WindowAggOp) open(e Event) *window {
	vals := make([]record.Value, len(w.out.Fields))
	carried := vals
	if w.KeyColumn != "" {
		vals[0], carried = record.ValueOf(e.Key), vals[1:]
	}
	for i, at := range w.carryAt {
		carried[i] = record.Value{Null: true}
		if at >= 0 {
			carried[i] = e.Row.Vals[at]
			carried[i].B = bytes.Clone(carried[i].B)
		}
	}
	return &window{aggs: make([]record.Agg, len(w.Aggs)), row: record.Row{Schema: w.out, Vals: vals}}
}

// OnWatermark fires every window whose end has passed.
func (w *WindowAggOp) OnWatermark(wm int64, emit func(Event)) error {
	w.lastWM = wm
	var fired []windowID
	for id := range w.windows {
		if id.start+w.Size <= wm {
			fired = append(fired, id)
		}
	}
	slices.SortFunc(fired, byStart)
	for _, id := range fired {
		win := w.windows[id]
		delete(w.windows, id)
		w.bytes -= win.size(id)
		vals := win.row.Vals[len(win.row.Vals)-len(w.Aggs)-2:]
		for i, agg := range w.Aggs {
			vals[i] = record.Value{Null: true}
			if v, null := win.aggs[i].Final(agg.Kind); agg.Kind == record.AggCount {
				vals[i] = record.Value{I: win.aggs[i].Count}
			} else if !null {
				vals[i] = record.Value{F: v}
			}
		}
		vals[len(w.Aggs)], vals[len(w.Aggs)+1] = record.Value{I: id.start}, record.Value{I: id.start + w.Size}
		emit(Event{Key: id.key, Time: id.start + w.Size, Row: win.row})
	}
	return nil
}

// LateEvents returns the number of dropped late events.
func (w *WindowAggOp) LateEvents() int64 { return w.lateCount }

// windowSnapshot is the serialized checkpoint form: each open window as its
// row, keyed by its key and start, and its folds. Keys is a snapshot
// written before windows kept rows: per key, its windows' folds and carried
// columns, JSON maps.
type windowSnapshot struct {
	LastWM int64
	Late   int64
	Open   []openWindow `json:",omitempty"`
	Keys   []struct {
		Key     []byte
		Windows map[int64][]record.Agg
		Carried map[int64]map[string]any
	} `json:",omitempty"`
}

// openWindow is one window in a snapshot: its row, keyed, and its folds.
type openWindow struct {
	snapRow
	Aggs []record.Agg
}

// Snapshot implements Operator; windows are written in firing order, so
// equal state snapshots to equal bytes.
func (w *WindowAggOp) Snapshot() ([]byte, error) {
	s := windowSnapshot{LastWM: w.lastWM, Late: w.lateCount}
	for _, id := range slices.SortedFunc(maps.Keys(w.windows), byStart) {
		win := w.windows[id]
		s.Open = append(s.Open, openWindow{snapRow{[]byte(id.key), id.start, win.row}, win.aggs})
	}
	return json.Marshal(s)
}

// Restore implements Operator. A window of a snapshot written before
// windows kept rows gets the row a window opened on its carried columns
// does.
func (w *WindowAggOp) Restore(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	var s windowSnapshot
	err := json.Unmarshal(data, &s)
	w.lastWM, w.lateCount, w.bytes = s.LastWM, s.Late, 0
	w.windows = make(map[windowID]*window)
	for _, o := range s.Open {
		err = cmp.Or(err, w.restore(windowID{string(o.Key), o.Time}, &window{o.Aggs, o.Row}))
	}
	var carried record.RowBinder
	for _, k := range s.Keys {
		for start, aggs := range k.Windows {
			row, err2 := carried.Bind(nil, k.Carried[start])
			if err2 == nil && row.Schema != w.bound {
				err2 = w.bind(row.Schema)
			}
			if err = cmp.Or(err, err2); err == nil {
				err = w.restore(windowID{string(k.Key), start}, &window{aggs, w.open(Event{Key: string(k.Key), Row: row}).row})
			}
		}
	}
	if err != nil {
		return fmt.Errorf("flow: restoring window state: %w", err)
	}
	return nil
}

// restore puts a restored window back, unless it is there already or does
// not fit the operator's aggregations and columns.
func (w *WindowAggOp) restore(id windowID, win *window) error {
	if cols, err := w.Columns(); err != nil || len(win.aggs) != len(w.Aggs) || len(win.row.Vals) != len(cols) || w.windows[id] != nil {
		return cmp.Or(err, fmt.Errorf("window %d of key %q twice or not fitting the operator", id.start, id.key))
	}
	w.windows[id] = win
	w.bytes += win.size(id)
	return nil
}

// StateBytes implements Operator.
func (w *WindowAggOp) StateBytes() int64 { return w.bytes }
