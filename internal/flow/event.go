package flow

import (
	"math"

	"repro/internal/record"
)

// Event is one data element flowing through a job.
type Event struct {
	// Key is the routing key for keyed stages; set by the runtime from the
	// stage's KeyBy field before the event enters a keyed operator.
	Key string
	// Time is the event time in ms since the epoch.
	Time int64
	// Source is the index of the originating source (join operators use it
	// to tell sides apart).
	Source int
	// Data is the event payload as a map: what user functions read and
	// write.
	Data record.Record
	// Row is the payload as schema-bound cells, when Data is nil: a
	// StreamSource decodes each message into one, and the compiled SQL
	// stages and TopicSink work on it without a map. A source may lend the
	// cells for as long as the job holds the event (cellBlock).
	Row record.Row

	// block is the cell block Row's cells live in, when a source lends
	// them (cellBlock): the runtime counts the events that hold it.
	block *cellBlock
}

// IsRow reports whether the payload is the row: Data, when set, wins.
func (e Event) IsRow() bool { return e.Data == nil && e.Row.Schema != nil }

// Record returns the payload as a map: Data, or the row boxed when Data is
// nil.
func (e Event) Record() record.Record {
	if e.IsRow() {
		return e.Row.Record()
	}
	return e.Data
}

// boxed is e as code that reads Data sees it: the row, if any, boxed into
// Data and dropped, so a function that changes Data leaves no stale row
// behind. User functions, keyed routing on a field, FuncSink and
// CollectSink take events through it.
func boxed(e Event) Event {
	e.Data = e.Record()
	e.Row, e.block = record.Row{}, nil
	return e
}

// WatermarkMax is the final watermark emitted by bounded sources: it flushes
// every open window before end-of-stream.
const WatermarkMax = math.MaxInt64

// elemKind discriminates the channel protocol between operator instances.
type elemKind uint8

const (
	// elemEvents is a run of events, in the order they were emitted.
	elemEvents elemKind = iota
	// elemWatermark advances event time; the gate forwards the minimum
	// across inputs.
	elemWatermark
	// elemBarrier is an aligned checkpoint barrier (Chandy-Lamport style).
	elemBarrier
	// elemEnd signals end-of-stream from one upstream instance.
	elemEnd
)

// element is one unit on an inter-instance channel: a run of events or one
// control signal.
type element struct {
	kind elemKind
	// events is an elemEvents run: 1..BufferSize events in one of the
	// edge's credit buffers, which the receiver hands back once it has
	// processed or written them.
	events  []Event
	wm      int64
	barrier int64 // checkpoint id
}
