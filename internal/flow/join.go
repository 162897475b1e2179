package flow

import (
	"encoding/json"
	"fmt"

	"repro/internal/record"
)

// IntervalJoinOp is a keyed stream-stream join: events from source 0 (left)
// join events from source 1 (right) with the same key whose event times are
// within WithinMs of each other. Both sides are buffered in keyed state
// until the watermark passes their time plus the join interval — which is
// why the paper observes "a stream-stream join job will almost always be
// memory bound" (§4.2.1); experiment E2 measures exactly this state.
type IntervalJoinOp struct {
	// WithinMs is the maximum |t_left - t_right| for a match.
	WithinMs int64
	// Merge combines a matched pair into the output record. Nil uses a
	// field-union merge with right fields prefixed "r_" on conflicts.
	Merge func(left, right record.Record) record.Record

	left  map[string][]bufferedEvent
	right map[string][]bufferedEvent
	bytes int64
}

type bufferedEvent struct {
	Time int64
	Data record.Record
}

// NewIntervalJoinOp creates a join with the given interval.
func NewIntervalJoinOp(withinMs int64, merge func(left, right record.Record) record.Record) *IntervalJoinOp {
	return &IntervalJoinOp{
		WithinMs: withinMs,
		Merge:    merge,
		left:     make(map[string][]bufferedEvent),
		right:    make(map[string][]bufferedEvent),
	}
}

func defaultMerge(left, right record.Record) record.Record {
	out := make(record.Record, len(left)+len(right))
	for k, v := range left {
		out[k] = v
	}
	for k, v := range right {
		if _, clash := out[k]; clash {
			out["r_"+k] = v
		} else {
			out[k] = v
		}
	}
	return out
}

// ProcessElement implements Operator: buffer the event on its side and probe
// the opposite side for interval matches.
func (j *IntervalJoinOp) ProcessElement(e Event, emit func(Event)) error {
	e = boxed(e)
	merge := j.Merge
	if merge == nil {
		merge = defaultMerge
	}
	be := bufferedEvent{Time: e.Time, Data: e.Data}
	var mine, other map[string][]bufferedEvent
	leftSide := e.Source == 0
	if leftSide {
		mine, other = j.left, j.right
	} else {
		mine, other = j.right, j.left
	}
	mine[e.Key] = append(mine[e.Key], be)
	j.bytes += approxRecordBytes(e.Data) + int64(len(e.Key)) + 16
	for _, o := range other[e.Key] {
		d := e.Time - o.Time
		if d < 0 {
			d = -d
		}
		if d <= j.WithinMs {
			var out record.Record
			if leftSide {
				out = merge(e.Data, o.Data)
			} else {
				out = merge(o.Data, e.Data)
			}
			t := e.Time
			if o.Time > t {
				t = o.Time
			}
			emit(Event{Key: e.Key, Time: t, Data: out})
		}
	}
	return nil
}

// OnWatermark evicts buffered events that can no longer match: anything with
// time + WithinMs < watermark.
func (j *IntervalJoinOp) OnWatermark(wm int64, emit func(Event)) error {
	for _, side := range []map[string][]bufferedEvent{j.left, j.right} {
		for key, events := range side {
			keep := events[:0]
			for _, be := range events {
				if be.Time+j.WithinMs >= wm {
					keep = append(keep, be)
				} else {
					j.bytes -= approxRecordBytes(be.Data) + int64(len(key)) + 16
				}
			}
			if len(keep) == 0 {
				delete(side, key)
			} else {
				side[key] = keep
			}
		}
	}
	return nil
}

// joinSnapshot is the serialized checkpoint form.
type joinSnapshot struct {
	Left  map[string][]bufferedEvent
	Right map[string][]bufferedEvent
}

// Snapshot implements Operator.
func (j *IntervalJoinOp) Snapshot() ([]byte, error) {
	return json.Marshal(joinSnapshot{Left: j.left, Right: j.right})
}

// Restore implements Operator.
func (j *IntervalJoinOp) Restore(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	var s joinSnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("flow: restoring join state: %w", err)
	}
	j.left, j.right = s.Left, s.Right
	if j.left == nil {
		j.left = make(map[string][]bufferedEvent)
	}
	if j.right == nil {
		j.right = make(map[string][]bufferedEvent)
	}
	j.bytes = 0
	for key, events := range j.left {
		for _, be := range events {
			j.bytes += approxRecordBytes(be.Data) + int64(len(key)) + 16
		}
	}
	for key, events := range j.right {
		for _, be := range events {
			j.bytes += approxRecordBytes(be.Data) + int64(len(key)) + 16
		}
	}
	return nil
}

// StateBytes implements Operator.
func (j *IntervalJoinOp) StateBytes() int64 { return j.bytes }
