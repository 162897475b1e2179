package flow

import (
	"context"
	"sync/atomic"

	"repro/internal/record"
	"repro/internal/stream"
)

// exchangeCredits is how many run buffers each edge owns. A sender fills
// one while the receiver works through the others, and a sender with none
// left waits for one to come back: that wait is the backpressure, and it
// bounds an edge's in-flight events at exchangeCredits × BufferSize.
const exchangeCredits = 4

// edge is the channel from one sender instance to one receiver instance.
// Events cross it in runs, each in one of the edge's credit buffers; the
// receiver hands a buffer back on credits once it has processed or written
// the run. Watermarks, barriers and end travel on runs too, behind the
// events sent before them, and take no credit.
type edge struct {
	runs    chan element
	credits chan []Event
	// wake is the receiver's: shared by all its input edges and signalled
	// after every send, so a receiver with several inputs waits on one
	// channel instead of selecting over all of them.
	wake chan struct{}
}

// newInputEdges makes the n edges into one receiver, which share its wake
// channel.
func newInputEdges(n, bufferSize int) []edge {
	wake := make(chan struct{}, 1)
	ins := make([]edge, n)
	for i := range ins {
		ins[i] = edge{
			// Room for every credit's run and as many control elements, so
			// a sender blocks on a credit, not on the channel.
			runs:    make(chan element, 2*exchangeCredits),
			credits: make(chan []Event, exchangeCredits),
			wake:    wake,
		}
		for range exchangeCredits {
			ins[i].credits <- make([]Event, 0, bufferSize)
		}
	}
	return ins
}

// send delivers one element respecting cancellation; false means the job is
// shutting down.
func (e edge) send(ctx context.Context, el element) bool {
	select {
	case e.runs <- el:
	default:
		select {
		case e.runs <- el:
		case <-ctx.Done():
			return false
		}
	}
	e.signal()
	return true
}

// signal wakes the receiver if it waits.
func (e edge) signal() {
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// outputs is a sender's side of its edges: the run it is filling for each,
// nil while it holds none of that edge's credits.
type outputs struct {
	ctx   context.Context
	edges []edge
	open  [][]Event
	// next is the keyed stage the edges feed, or nil: events then go round
	// robin, rr the next edge. keys interns the routing keys for next.
	next *StageSpec
	keys keyTable
	rr   int
	// held and heldN are the references to one cell block that the events
	// added since the last settle take. settle takes them before any run is
	// sent, so a receiver never drops a reference not yet taken.
	held  *cellBlock
	heldN int32
}

func newOutputs(ctx context.Context, edges []edge, next *StageSpec) *outputs {
	return &outputs{ctx: ctx, edges: edges, open: make([][]Event, len(edges)), next: next, keys: keyTable{}}
}

// route adds e to the run of the edge it goes on: the one its key hashes to
// when the next stage is keyed, else the next in turn.
func (o *outputs) route(e Event) bool {
	d := o.rr % len(o.edges)
	if o.next != nil {
		e = o.next.route(e, o.keys)
		d = int(stream.Hash(e.Key) % uint32(len(o.edges)))
	} else {
		o.rr++
	}
	return o.add(d, e)
}

// add appends e to the run for edge d, first taking a credit if it has no
// run open there, and sends the run once it is full. false means the job is
// shutting down.
func (o *outputs) add(d int, e Event) bool {
	if e.block != nil {
		if e.block != o.held {
			o.settle()
			o.held = e.block
		}
		o.heldN++
	}
	run := o.open[d]
	if run == nil {
		select {
		case run = <-o.edges[d].credits:
		default:
			select {
			case run = <-o.edges[d].credits:
			case <-o.ctx.Done():
				return false
			}
		}
	}
	run = append(run, e)
	if len(run) < cap(run) {
		o.open[d] = run
		return true
	}
	return o.send(d, run)
}

// send sends the run open for edge d, its events' block references taken.
func (o *outputs) send(d int, run []Event) bool {
	o.settle()
	o.open[d] = nil
	return o.edges[d].send(o.ctx, element{kind: elemEvents, events: run})
}

func (o *outputs) settle() {
	if o.held != nil {
		o.held.add(o.heldN)
		o.held, o.heldN = nil, 0
	}
}

// flush sends every open run. Senders flush at the end of each source poll
// and each input run, so no event waits for a run to fill.
func (o *outputs) flush() bool {
	for d, run := range o.open {
		if run != nil && !o.send(d, run) {
			return false
		}
	}
	return true
}

// broadcast flushes, then sends el on every edge, so it follows every event
// emitted before it.
func (o *outputs) broadcast(el element) bool {
	if !o.flush() {
		return false
	}
	for _, e := range o.edges {
		if !e.send(o.ctx, el) {
			return false
		}
	}
	return true
}

// abort best-effort sends end on every edge without blocking: the job has
// failed, and the open runs are dropped.
func (o *outputs) abort() {
	for _, e := range o.edges {
		select {
		case e.runs <- element{kind: elemEnd}:
			e.signal()
		default:
		}
	}
}

// cellBlock is one fetch's decoded cells, lent by a source with one
// reference per event whose row lives in it. The runtime takes a reference
// for every such event it puts in a run and drops one for every such event
// it is done with — a poll's once they are in runs, an input run's once the
// operator has processed it, the sink's once it is written — and the last
// reference hands the block back to its source for a later fetch. So an
// operator or sink that keeps a row past the call copies its cells, as a
// window, a join and boxing for user code do.
type cellBlock struct {
	cells []record.Value
	refs  atomic.Int32
	free  chan *cellBlock // the source's
}

// add moves the count by n; at zero the block goes back to its source,
// cleared so that it pins no log slab while it waits.
func (b *cellBlock) add(n int32) {
	if b.refs.Add(n) != 0 {
		return
	}
	clear(b.cells)
	select {
	case b.free <- b:
	default:
	}
}

// dropRefs drops the references events hold, one update per run of
// consecutive events in the same block.
func dropRefs(events []Event) {
	var b *cellBlock
	var n int32
	for i := range events {
		if events[i].block != b {
			if b != nil {
				b.add(-n)
			}
			b, n = events[i].block, 0
		}
		n++
	}
	if b != nil {
		b.add(-n)
	}
}

// ---- input gate: merge, watermark min, barrier alignment ----

// inputGate merges the edges from all upstream instances into one ordered
// stream of elements for an operator instance, implementing watermark
// min-tracking, aligned checkpoint barriers and end-of-input counting.
type inputGate struct {
	ins     []edge
	ended   []bool
	wms     []int64
	blocked []bool // aligned on the in-flight barrier
	barrier int64
	lastWM  int64
	start   int // the input receive looks at first, for fairness
	from    int // the input of the run next returned last
}

func newInputGate(ins []edge) *inputGate {
	g := &inputGate{
		ins:     ins,
		ended:   make([]bool, len(ins)),
		wms:     make([]int64, len(ins)),
		blocked: make([]bool, len(ins)),
		lastWM:  -1,
	}
	for i := range g.wms {
		g.wms[i] = -1
	}
	return g
}

// next returns the next logical element, waiting for one. ok=false means the
// job is cancelled or all inputs ended after the final end was already
// delivered. A run must go back through release before next is called
// again.
func (g *inputGate) next(ctx context.Context) (element, bool) {
	for {
		idx, el, recvOK := g.receive(ctx)
		if !recvOK {
			return element{}, false
		}
		switch el.kind {
		case elemEvents:
			g.from = idx
			return el, true
		case elemWatermark:
			if el.wm > g.wms[idx] {
				g.wms[idx] = el.wm
			}
			if min := g.minWM(); min > g.lastWM {
				g.lastWM = min
				return element{kind: elemWatermark, wm: min}, true
			}
		case elemBarrier:
			g.blocked[idx] = true
			g.barrier = el.barrier
			if g.allBlocked() {
				for i := range g.blocked {
					g.blocked[i] = false
				}
				return el, true
			}
		case elemEnd:
			g.ended[idx] = true
			// An ended channel no longer holds back watermarks or barriers.
			g.wms[idx] = WatermarkMax
			if g.allEnded() {
				return element{kind: elemEnd}, true
			}
			if min := g.minWM(); min > g.lastWM && min != WatermarkMax {
				g.lastWM = min
				return element{kind: elemWatermark, wm: min}, true
			}
			if g.barrier > 0 && g.allBlocked() {
				for i := range g.blocked {
					g.blocked[i] = false
				}
				b := g.barrier
				g.barrier = 0
				return element{kind: elemBarrier, barrier: b}, true
			}
		}
	}
}

// release drops the references the run next returned last holds and hands
// it back to its edge as a credit. Its events are cleared first: a row pins
// the log slab it aliases.
func (g *inputGate) release(run []Event) {
	dropRefs(run)
	clear(run)
	g.ins[g.from].credits <- run[:0]
}

// receive takes the next element from any unblocked, unended input, waiting
// on the shared wake channel while none holds one.
func (g *inputGate) receive(ctx context.Context) (int, element, bool) {
	for {
		live := false
		for k := range g.ins {
			i := (g.start + k) % len(g.ins)
			if g.ended[i] || g.blocked[i] {
				continue
			}
			live = true
			select {
			case el := <-g.ins[i].runs:
				g.start = i + 1
				return i, el, true
			default:
			}
		}
		if !live {
			return 0, element{}, false
		}
		select {
		case <-g.ins[0].wake:
		case <-ctx.Done():
			return 0, element{}, false
		}
	}
}

func (g *inputGate) allEnded() bool {
	for _, e := range g.ended {
		if !e {
			return false
		}
	}
	return true
}

func (g *inputGate) allBlocked() bool {
	for i := range g.ins {
		if !g.ended[i] && !g.blocked[i] {
			return false
		}
	}
	return true
}

func (g *inputGate) minWM() int64 {
	min := int64(WatermarkMax)
	for i := range g.ins {
		if g.wms[i] < min {
			min = g.wms[i]
		}
	}
	return min
}
