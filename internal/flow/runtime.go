package flow

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stream"
)

// Job is a deployed dataflow. Create with NewJob, optionally Restore from a
// checkpoint, then Start/Wait (or Run).
type Job struct {
	spec JobSpec

	ctx    context.Context
	cancel context.CancelFunc

	// failure handling: first error wins.
	errOnce sync.Once
	errMu   sync.Mutex
	err     error
	done    chan struct{}

	// metrics
	eventsIn   atomic.Int64
	eventsOut  atomic.Int64
	sinkWM     atomic.Int64
	stateBytes []atomic.Int64 // one per operator instance, flat index
	lateEvents []atomic.Int64 // likewise

	coord *checkpointCoordinator

	// restoreState holds operator/source state loaded before Start.
	restoreState *Checkpoint

	started atomic.Bool
	wg      sync.WaitGroup
}

// NewJob validates the spec and prepares a job with no parent lifecycle:
// only Cancel (or a failure) stops it. Prefer NewJobCtx when the caller has
// a context to thread — the JobManager does.
func NewJob(spec JobSpec) (*Job, error) {
	//lint:ignore ctxflow convenience for standalone jobs with no surrounding lifecycle; NewJobCtx is the threaded API
	return NewJobCtx(context.Background(), spec)
}

// NewJobCtx validates the spec and prepares a job parented on ctx:
// cancelling ctx cancels the job exactly like Cancel, and Wait then
// returns the context's error.
func NewJobCtx(parent context.Context, spec JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(parent)
	total := 0
	for _, st := range spec.Stages {
		total += st.Parallelism
	}
	j := &Job{
		spec:       spec,
		ctx:        ctx,
		cancel:     cancel,
		done:       make(chan struct{}),
		stateBytes: make([]atomic.Int64, total),
		lateEvents: make([]atomic.Int64, total),
	}
	j.coord = newCheckpointCoordinator(j)
	return j, nil
}

// rebind reparents a not-yet-started job's context — the JobManager uses it
// to thread its own lifecycle into jobs built by a JobFactory (whose
// signature predates context threading). It is a no-op after Start.
func (j *Job) rebind(parent context.Context) {
	if j.started.Load() {
		return
	}
	j.cancel() // release the placeholder context's resources
	ctx, cancel := context.WithCancel(parent)
	j.ctx, j.cancel = ctx, cancel
}

// Spec returns the job's (defaulted) spec.
func (j *Job) Spec() JobSpec { return j.spec }

// fail records the first failure and cancels the job.
func (j *Job) fail(err error) {
	j.errOnce.Do(func() {
		j.errMu.Lock()
		j.err = err
		j.errMu.Unlock()
		j.cancel()
	})
}

// Start builds the channel topology and launches all goroutines.
func (j *Job) Start() error {
	if !j.started.CompareAndSwap(false, true) {
		return fmt.Errorf("flow: job %q already started", j.spec.Name)
	}
	nStages := len(j.spec.Stages)
	// edges[l][up][down]: the edge from sender up at level l to instance
	// down at level l+1. Level 0 senders are sources; level nStages senders
	// feed the sink (one instance).
	edges := make([][][]edge, nStages+1)
	senders := func(level int) int {
		if level == 0 {
			return len(j.spec.Sources)
		}
		return j.spec.Stages[level-1].Parallelism
	}
	receivers := func(level int) int {
		if level == nStages {
			return 1 // sink
		}
		return j.spec.Stages[level].Parallelism
	}
	for l := 0; l <= nStages; l++ {
		edges[l] = make([][]edge, senders(l))
		for u := range edges[l] {
			edges[l][u] = make([]edge, receivers(l))
		}
		for d := 0; d < receivers(l); d++ {
			for u, in := range newInputEdges(senders(l), j.spec.BufferSize) {
				edges[l][u][d] = in
			}
		}
	}

	// Sources.
	for si := range j.spec.Sources {
		src := j.spec.Sources[si]
		if j.restoreState != nil && si < len(j.restoreState.SourcePositions) {
			if err := src.Source.Seek(j.restoreState.SourcePositions[si]); err != nil {
				return fmt.Errorf("flow: restoring source %d: %w", si, err)
			}
		}
		outs := edges[0][si]
		j.wg.Add(1)
		go j.runSource(si, src, outs)
	}

	// Stages.
	flat := 0
	for l := 0; l < nStages; l++ {
		st := j.spec.Stages[l]
		for inst := 0; inst < st.Parallelism; inst++ {
			// Gather inputs: channel from every sender at level l.
			ins := make([]edge, senders(l))
			for u := range ins {
				ins[u] = edges[l][u][inst]
			}
			op := st.New()
			if j.restoreState != nil {
				if state, ok := j.restoreState.OperatorState[opStateKey(st.Name, inst)]; ok {
					if err := op.Restore(state); err != nil {
						return fmt.Errorf("flow: restoring %s[%d]: %w", st.Name, inst, err)
					}
				}
			}
			outs := edges[l+1][inst]
			j.wg.Add(1)
			go j.runInstance(l, inst, flat, op, ins, outs)
			flat++
		}
	}

	// Sink: inputs from every last-stage instance.
	sinkIns := make([]edge, senders(nStages))
	for u := range sinkIns {
		sinkIns[u] = edges[nStages][u][0]
	}
	j.wg.Add(1)
	go j.runSink(sinkIns)

	// Auto-checkpoint ticker.
	if j.spec.CheckpointStore != nil && j.spec.CheckpointInterval > 0 {
		go j.autoCheckpoint()
	}

	// Surface external cancellation (a parent context from NewJobCtx, or
	// Cancel) as the job's terminal error; first failure still wins.
	go func() {
		select {
		case <-j.ctx.Done():
			j.fail(j.ctx.Err())
		case <-j.done:
		}
	}()

	go func() {
		j.wg.Wait()
		close(j.done)
	}()
	return nil
}

// Wait blocks until the job finishes (bounded sources exhausted) or fails.
func (j *Job) Wait() error {
	<-j.done
	return j.Err()
}

// Run starts the job and waits for completion.
func (j *Job) Run() error {
	if err := j.Start(); err != nil {
		return err
	}
	return j.Wait()
}

// Cancel stops the job; Wait returns context.Canceled unless it already
// finished or failed.
func (j *Job) Cancel() {
	j.fail(context.Canceled)
}

// Done reports whether the job has finished.
func (j *Job) Done() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// Err returns the job's terminal error (nil while running or on success).
func (j *Job) Err() error {
	j.errMu.Lock()
	defer j.errMu.Unlock()
	return j.err
}

func (j *Job) autoCheckpoint() {
	ticker := time.NewTicker(j.spec.CheckpointInterval)
	defer ticker.Stop()
	for {
		select {
		case <-j.ctx.Done():
			return
		case <-j.done:
			return
		case <-ticker.C:
			// Best effort: concurrent triggers and end-of-job races are
			// resolved by the coordinator's timeout.
			_, _ = j.TriggerCheckpoint(j.spec.CheckpointInterval)
		}
	}
}

// ---- source loop ----

func (j *Job) runSource(si int, spec SourceSpec, edges []edge) {
	defer j.wg.Done()
	stage0 := j.spec.Stages[0]
	out := newOutputs(j.ctx, edges)
	rr := 0
	sinceWM := 0
	lastWM := int64(-1)
	lastBarrier := int64(0)
	for {
		select {
		case <-j.ctx.Done():
			out.abort()
			return
		default:
		}
		// Barrier request? Snapshot the position, then emit the barrier.
		if id := j.coord.pendingBarrier(si, lastBarrier); id > lastBarrier {
			pos, err := spec.Source.Position()
			if err != nil {
				j.fail(err)
				out.abort()
				return
			}
			j.coord.addSourceSnapshot(id, si, pos)
			if !out.broadcast(element{kind: elemBarrier, barrier: id}) {
				return
			}
			lastBarrier = id
		}
		events, end, err := spec.Source.Next(5 * time.Millisecond)
		if err != nil {
			j.fail(err)
			out.abort()
			return
		}
		// Every event is copied into a run before the next poll: the
		// source may reuse the slice.
		for _, e := range events {
			e.Source = si
			dest := 0
			if stage0.keyed() {
				e = stage0.route(e)
				dest = int(stream.Hash(e.Key) % uint32(len(edges)))
			} else {
				dest = rr % len(edges)
				rr++
			}
			if !out.add(dest, e) {
				return
			}
		}
		if !out.flush() {
			return
		}
		dropRefs(events)
		j.eventsIn.Add(int64(len(events)))
		sinceWM += len(events)
		if sinceWM >= spec.WatermarkEvery || drained(spec.Source, len(events)) {
			sinceWM = 0
			if wm := spec.Source.Watermark(); wm > lastWM {
				lastWM = wm
				if !out.broadcast(element{kind: elemWatermark, wm: wm}) {
					return
				}
			}
		}
		if end {
			// Flush all windows, then end.
			out.broadcast(element{kind: elemWatermark, wm: WatermarkMax})
			out.broadcast(element{kind: elemEnd})
			return
		}
	}
}

// drained reports whether a poll that returned n events left the source
// with nothing more to read: the next Next will block, so a watermark held
// back until WatermarkEvery events have passed would wait out that block,
// and every window result with it.
func drained(src Source, n int) bool {
	if n == 0 {
		return true
	}
	lr, ok := src.(LagReporter)
	return ok && lr.Lag() == 0
}

// ---- operator instance loop ----

func (j *Job) runInstance(level, inst, flat int, op Operator, ins []edge, edges []edge) {
	defer j.wg.Done()
	var nextKeyed bool
	var nextStage *StageSpec
	if level+1 < len(j.spec.Stages) {
		st := j.spec.Stages[level+1]
		nextStage = &st
		nextKeyed = st.keyed()
	}
	out := newOutputs(j.ctx, edges)
	rr := 0
	ok := true
	emit := func(e Event) {
		if !ok {
			return
		}
		dest := 0
		if nextStage != nil && nextKeyed {
			e = nextStage.route(e)
			dest = int(stream.Hash(e.Key) % uint32(len(edges)))
		} else if len(edges) > 1 {
			dest = rr % len(edges)
			rr++
		}
		ok = out.add(dest, e)
	}
	// A window operator, wrapped or not, reports the late events it dropped.
	late, _ := op.(interface{ LateEvents() int64 })

	gate := newInputGate(ins)
	stName := j.spec.Stages[level].Name
	for {
		el, alive := gate.next(j.ctx)
		if !alive {
			return
		}
		switch el.kind {
		case elemEvents:
			for _, e := range el.events {
				if err := op.ProcessElement(e, emit); err != nil {
					j.fail(fmt.Errorf("flow: %s[%d]: %w", stName, inst, err))
					out.abort()
					return
				}
			}
			if !ok || !out.flush() {
				return
			}
			gate.release(el.events)
		case elemWatermark:
			if err := op.OnWatermark(el.wm, emit); err != nil {
				j.fail(fmt.Errorf("flow: %s[%d] watermark: %w", stName, inst, err))
				out.abort()
				return
			}
			if !ok || !out.broadcast(el) {
				return
			}
		case elemBarrier:
			snap, err := op.Snapshot()
			if err != nil {
				j.fail(fmt.Errorf("flow: %s[%d] snapshot: %w", stName, inst, err))
				out.abort()
				return
			}
			j.coord.addOperatorSnapshot(el.barrier, opStateKey(stName, inst), snap)
			if !out.broadcast(el) {
				return
			}
		case elemEnd:
			out.broadcast(element{kind: elemEnd})
			return
		}
		j.stateBytes[flat].Store(op.StateBytes())
		if late != nil {
			j.lateEvents[flat].Store(late.LateEvents())
		}
	}
}

// ---- sink loop ----

// runSink drives the sink: each run that arrives is one Write. A run is
// written before the element behind it is handled, so every event that
// preceded a barrier reaches the sink before that barrier's Flush and ack.
func (j *Job) runSink(ins []edge) {
	defer j.wg.Done()
	gate := newInputGate(ins)
	sink := j.spec.Sink.Sink
	for {
		el, ok := gate.next(j.ctx)
		if !ok {
			return
		}
		switch el.kind {
		case elemEvents:
			if err := sink.Write(el.events); err != nil {
				j.fail(fmt.Errorf("flow: sink %s: %w", j.spec.Sink.Name, err))
				return
			}
			j.eventsOut.Add(int64(len(el.events)))
			gate.release(el.events)
		case elemWatermark:
			if el.wm != WatermarkMax {
				j.sinkWM.Store(el.wm)
			}
		case elemBarrier:
			if err := sink.Flush(); err != nil {
				j.fail(err)
				return
			}
			j.coord.ackSink(el.barrier)
		case elemEnd:
			if err := sink.Flush(); err != nil {
				j.fail(err)
			}
			return
		}
	}
}

// ---- metrics ----

// Metrics is a point-in-time snapshot of job health, consumed by the job
// manager's rule engine.
type Metrics struct {
	// EventsIn counts events read from sources since start.
	EventsIn int64
	// EventsOut counts events delivered to the sink.
	EventsOut int64
	// SinkWatermark is the event-time progress observed at the sink.
	SinkWatermark int64
	// StateBytes approximates total live operator state.
	StateBytes int64
	// SourceLag is the total source backlog (for lag-aware sources).
	SourceLag int64
	// LateEvents counts window-dropped late events.
	LateEvents int64
	// SkippedMessages counts messages a source could not decode and
	// skipped (StreamSource.Skipped).
	SkippedMessages int64
}

// Metrics returns the current snapshot.
func (j *Job) Metrics() Metrics {
	var state, late int64
	for i := range j.stateBytes {
		state += j.stateBytes[i].Load()
		late += j.lateEvents[i].Load()
	}
	var lag, skipped int64
	for _, s := range j.spec.Sources {
		if lr, ok := s.Source.(LagReporter); ok {
			lag += lr.Lag()
		}
		if sr, ok := s.Source.(interface{ Skipped() int64 }); ok {
			skipped += sr.Skipped()
		}
	}
	return Metrics{
		EventsIn:        j.eventsIn.Load(),
		EventsOut:       j.eventsOut.Load(),
		SinkWatermark:   j.sinkWM.Load(),
		StateBytes:      state,
		SourceLag:       lag,
		LateEvents:      late,
		SkippedMessages: skipped,
	}
}

func opStateKey(stage string, inst int) string {
	return fmt.Sprintf("%s/%d", stage, inst)
}
