package flow

import (
	"math"

	"repro/internal/metadata"
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
	// Row is the payload: schema-bound cells. A StreamSource decodes each
	// message into one and may lend the cells for as long as the job holds
	// the event (cellBlock); every operator and sink reads and emits rows.
	Row record.Row
	// Data is the payload boxed into a map, on the events handed to user
	// code (MapOp, FilterOp, FlatMapOp, ReduceOp, FuncSink and
	// CollectSink). What a user function returns is bound back to a row
	// from Data before it leaves the operator; nothing else reads it.
	Data record.Record

	// block is the cell block Row's cells live in, when a source lends
	// them (cellBlock): the runtime counts the events that hold it.
	block *cellBlock
}

// boxed is e as user code sees it: the row boxed into Data, its strings
// copied, and the row dropped.
func boxed(e Event) Event {
	e.Data = e.Row.Record()
	e.Row, e.block = record.Row{}, nil
	return e
}

// bound emits e, what user code returned, with its Data bound by b to a
// row (record.RowBinder) whose schema starts from in's.
func bound(b *record.RowBinder, in *metadata.Schema, e Event, emit func(Event)) error {
	row, err := b.Bind(in, e.Data)
	if err == nil {
		e.Row, e.Data, e.block = row, nil, nil
		emit(e)
	}
	return err
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
