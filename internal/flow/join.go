package flow

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"unsafe"

	"repro/internal/metadata"
	"repro/internal/record"
)

// IntervalJoinOp is a keyed stream-stream join: events from source 0 (left)
// join events from source 1 (right) with the same key whose event times are
// within WithinMs of each other. Both sides are buffered in keyed state
// until the watermark passes their time plus the join interval — which is
// why the paper observes "a stream-stream join job will almost always be
// memory bound" (§4.2.1); experiment E2 measures exactly this state.
//
// A buffered event's cells are copied, so no buffer pins the log slab a row
// aliases, and StateBytes counts them exactly. A match leaves as one row
// under the joined schema: the left row's fields, then the right row's, a
// right field whose name is taken prefixed "r_".
type IntervalJoinOp struct {
	// WithinMs is the maximum |t_left - t_right| for a match.
	WithinMs int64

	sides [2]map[string][]buffered // left, right
	bytes int64
	// joined is the joined schema of pair, the last match's schemas.
	pair   [2]*metadata.Schema
	joined *metadata.Schema
}

// buffered is one event a side keeps: its time and its copied row.
type buffered struct {
	time int64
	row  record.Row
}

// size is what b holds: the entry, its cells and their bytes.
func (b buffered) size() int64 { return int64(unsafe.Sizeof(b)) + b.row.Size() }

// NewIntervalJoinOp creates a join with the given interval.
func NewIntervalJoinOp(withinMs int64) *IntervalJoinOp {
	return &IntervalJoinOp{WithinMs: withinMs, sides: [2]map[string][]buffered{{}, {}}}
}

// ProcessElement implements Operator: buffer the event on its side and probe
// the opposite side for interval matches.
func (j *IntervalJoinOp) ProcessElement(e Event, emit func(Event)) error {
	side := 1
	if e.Source == 0 {
		side = 0
	}
	b := j.buffer(side, e.Key, buffered{e.Time, copyRow(e.Row)})
	for _, o := range j.sides[1-side][e.Key] {
		if d := e.Time - o.time; d > j.WithinMs || -d > j.WithinMs {
			continue
		}
		pair := [2]record.Row{b.row, o.row}
		if side == 1 {
			pair[0], pair[1] = o.row, b.row
		}
		emit(Event{Key: e.Key, Time: max(e.Time, o.time), Row: j.join(pair[0], pair[1])})
	}
	return nil
}

// buffer appends b to side's buffer of key and charges it.
func (j *IntervalJoinOp) buffer(side int, key string, b buffered) buffered {
	if len(j.sides[side][key]) == 0 {
		j.bytes += int64(len(key)) + 16
	}
	j.sides[side][key] = append(j.sides[side][key], b)
	j.bytes += b.size()
	return b
}

// copyRow is r with its cells, and their bytes, copied.
func copyRow(r record.Row) record.Row {
	vals := slices.Clone(r.Vals)
	for i := range vals {
		vals[i].B = bytes.Clone(vals[i].B)
	}
	return record.Row{Schema: r.Schema, Vals: vals}
}

// join is the row of a matched pair under their joined schema.
func (j *IntervalJoinOp) join(left, right record.Row) record.Row {
	if pair := [2]*metadata.Schema{left.Schema, right.Schema}; pair != j.pair {
		j.pair = pair
		j.joined = &metadata.Schema{Name: left.Schema.Name, Version: left.Schema.Version, Fields: slices.Clone(left.Schema.Fields)}
		for _, f := range right.Schema.Fields {
			for j.joined.FieldIndex(f.Name) >= 0 {
				f.Name = "r_" + f.Name
			}
			j.joined.Fields = append(j.joined.Fields, f)
		}
	}
	return record.Row{Schema: j.joined, Vals: slices.Concat(left.Vals, right.Vals)}
}

// OnWatermark evicts buffered events that can no longer match: anything with
// time + WithinMs < watermark.
func (j *IntervalJoinOp) OnWatermark(wm int64, emit func(Event)) error {
	for _, side := range j.sides {
		for key, events := range side {
			keep := events[:0]
			for _, b := range events {
				if b.time+j.WithinMs >= wm {
					keep = append(keep, b)
				} else {
					j.bytes -= b.size()
				}
			}
			clear(events[len(keep):])
			if side[key] = keep; len(keep) == 0 {
				delete(side, key)
				j.bytes -= int64(len(key)) + 16
			}
		}
	}
	return nil
}

// joinSnapshot is the serialized checkpoint form: per side, each buffered
// event as its row, keyed and timed. Left and Right are the buffers of a
// snapshot written before the join kept rows, their payloads JSON maps.
type joinSnapshot struct {
	Left, Right map[string][]mapEvent `json:",omitempty"`
	Sides       [2][]snapRow
}

// mapEvent is a buffered event of a snapshot written before the join kept
// rows.
type mapEvent struct {
	Time int64
	Data map[string]any
}

// Snapshot implements Operator; keys are written in order, so equal state
// snapshots to equal bytes.
func (j *IntervalJoinOp) Snapshot() ([]byte, error) {
	var s joinSnapshot
	for i, side := range j.sides {
		for _, key := range slices.Sorted(maps.Keys(side)) {
			for _, b := range side[key] {
				s.Sides[i] = append(s.Sides[i], snapRow{[]byte(key), b.time, b.row})
			}
		}
	}
	return json.Marshal(s)
}

// Restore implements Operator.
func (j *IntervalJoinOp) Restore(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	var s joinSnapshot
	err := json.Unmarshal(data, &s)
	j.sides, j.bytes = [2]map[string][]buffered{{}, {}}, 0
	var legacy record.RowBinder
	for side, events := range []map[string][]mapEvent{s.Left, s.Right} {
		for key, evs := range events {
			for _, ev := range evs {
				row, err2 := legacy.Bind(nil, ev.Data)
				err = cmp.Or(err, err2)
				j.buffer(side, key, buffered{ev.Time, row})
			}
		}
	}
	for side, rows := range s.Sides {
		for _, r := range rows {
			if r.Row.Schema == nil {
				err = cmp.Or(err, errNoRow)
				continue
			}
			j.buffer(side, string(r.Key), buffered{r.Time, r.Row})
		}
	}
	if err != nil {
		return fmt.Errorf("flow: restoring join state: %w", err)
	}
	return nil
}

// StateBytes implements Operator.
func (j *IntervalJoinOp) StateBytes() int64 { return j.bytes }
