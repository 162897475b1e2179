package flow

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
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
// only Cancel (or a failure) stops it. A JobManager reparents the jobs it
// runs on its own context (rebind) before they start.
func NewJob(spec JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	//lint:ignore ctxflow a job's lifecycle is Cancel until a JobManager threads its context in with rebind
	ctx, cancel := context.WithCancel(context.Background())
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
	// ins[l][d] are the edges into receiver d at level l, one from each
	// sender: level 0 senders are sources, level nStages receivers the
	// sink. outs(l, u) are sender u's edges, one to each receiver.
	ins := make([][][]edge, nStages+1)
	for l := range ins {
		for range receivers(l) {
			ins[l] = append(ins[l], newInputEdges(senders(l), j.spec.BufferSize))
		}
	}
	outs := func(l, u int) []edge {
		out := make([]edge, len(ins[l]))
		for d := range out {
			out[d] = ins[l][d][u]
		}
		return out
	}

	// Sources.
	for si, src := range j.spec.Sources {
		if j.restoreState != nil && si < len(j.restoreState.SourcePositions) {
			if err := src.Source.Seek(j.restoreState.SourcePositions[si]); err != nil {
				return fmt.Errorf("flow: restoring source %d: %w", si, err)
			}
		}
		j.wg.Add(1)
		go j.runSource(si, src, outs(0, si))
	}

	// Stages.
	flat := 0
	for l, st := range j.spec.Stages {
		for inst := 0; inst < st.Parallelism; inst++ {
			op := st.New()
			if j.restoreState != nil {
				if state, ok := j.restoreState.OperatorState[opStateKey(st.Name, inst)]; ok {
					if err := op.Restore(state); err != nil {
						return fmt.Errorf("flow: restoring %s[%d]: %w", st.Name, inst, err)
					}
				}
			}
			j.wg.Add(1)
			go j.runInstance(l, inst, flat, op, ins[l][inst], outs(l+1, inst))
			flat++
		}
	}

	// Sink: inputs from every last-stage instance.
	j.wg.Add(1)
	go j.runSink(ins[nStages][0])

	// Auto-checkpoint ticker.
	if j.spec.CheckpointStore != nil && j.spec.CheckpointInterval > 0 {
		go j.autoCheckpoint()
	}

	// Surface external cancellation (a JobManager's context, or Cancel) as
	// the job's terminal error; first failure still wins.
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
	out := newOutputs(j.ctx, edges, j.keyedStage(0))
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
			if !out.route(e) {
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

// keyedStage is stage l if the job has it and it is keyed, else nil.
func (j *Job) keyedStage(l int) *StageSpec {
	if l < len(j.spec.Stages) && j.spec.Stages[l].keyed() {
		return &j.spec.Stages[l]
	}
	return nil
}

// ---- operator instance loop ----

func (j *Job) runInstance(level, inst, flat int, op Operator, ins []edge, edges []edge) {
	defer j.wg.Done()
	out := newOutputs(j.ctx, edges, j.keyedStage(level+1))
	ok := true
	emit := func(e Event) { ok = ok && out.route(e) }
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
