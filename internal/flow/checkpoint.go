package flow

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/record"
)

// Checkpoint is a consistent snapshot of a job: every source's read position
// plus every operator instance's state, taken with aligned barriers so the
// state corresponds exactly to "everything before the barrier was processed,
// nothing after". Restoring a checkpoint and replaying the sources from the
// saved positions yields exactly-once state semantics (§4.2: "built-in state
// management and checkpointing features for failure recovery").
type Checkpoint struct {
	JobName         string
	ID              int64
	SourcePositions [][]byte
	OperatorState   map[string][]byte
}

// checkpointKey formats the store key for a checkpoint.
func checkpointKey(job string, id int64) string {
	return fmt.Sprintf("checkpoints/%s/%012d", job, id)
}

// checkpointCoordinator orchestrates barrier injection and snapshot
// collection for one job.
type checkpointCoordinator struct {
	job   *Job
	reqID atomic.Int64 // latest requested checkpoint id; sources poll it

	mu      sync.Mutex
	nextID  int64
	pending map[int64]*pendingCkpt
}

type pendingCkpt struct {
	sources    [][]byte
	gotSources int
	ops        map[string][]byte
	needOps    int
	sinkAcked  bool
	completed  chan error
}

func newCheckpointCoordinator(j *Job) *checkpointCoordinator {
	return &checkpointCoordinator{job: j, pending: make(map[int64]*pendingCkpt)}
}

// pendingBarrier returns the requested checkpoint id if it is newer than the
// source's last emitted barrier, else last.
func (c *checkpointCoordinator) pendingBarrier(_ int, last int64) int64 {
	if id := c.reqID.Load(); id > last {
		return id
	}
	return last
}

// TriggerCheckpoint injects barriers into all sources and waits up to
// timeout for the snapshot to complete and persist. It returns the
// checkpoint id.
func (j *Job) TriggerCheckpoint(timeout time.Duration) (int64, error) {
	if j.spec.CheckpointStore == nil {
		return 0, fmt.Errorf("flow: job %q has no checkpoint store", j.spec.Name)
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	c := j.coord
	c.mu.Lock()
	if !j.started.Load() || j.Done() {
		c.mu.Unlock()
		return 0, fmt.Errorf("flow: job %q not running", j.spec.Name)
	}
	c.nextID++
	id := c.nextID
	p := &pendingCkpt{
		sources:   make([][]byte, len(j.spec.Sources)),
		ops:       make(map[string][]byte),
		needOps:   len(j.stateBytes),
		completed: make(chan error, 1),
	}
	c.pending[id] = p
	c.mu.Unlock()
	c.reqID.Store(id)

	select {
	case err := <-p.completed:
		return id, err
	case <-time.After(timeout):
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return 0, fmt.Errorf("flow: checkpoint %d timed out", id)
	case <-j.done:
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return 0, fmt.Errorf("flow: job ended during checkpoint %d", id)
	}
}

// update applies f to checkpoint id's pending state, if it is pending, and
// completes the checkpoint once it has every part.
func (c *checkpointCoordinator) update(id int64, f func(p *pendingCkpt)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.pending[id]; ok {
		f(p)
		c.maybeCompleteLocked(id, p)
	}
}

func (c *checkpointCoordinator) addSourceSnapshot(id int64, si int, pos []byte) {
	c.update(id, func(p *pendingCkpt) {
		if p.sources[si] == nil {
			p.sources[si] = pos
			p.gotSources++
		}
	})
}

func (c *checkpointCoordinator) addOperatorSnapshot(id int64, key string, snap []byte) {
	c.update(id, func(p *pendingCkpt) {
		if _, dup := p.ops[key]; !dup {
			p.ops[key] = snap
		}
	})
}

func (c *checkpointCoordinator) ackSink(id int64) {
	c.update(id, func(p *pendingCkpt) { p.sinkAcked = true })
}

func (c *checkpointCoordinator) maybeCompleteLocked(id int64, p *pendingCkpt) {
	if p.gotSources != len(p.sources) || len(p.ops) != p.needOps || !p.sinkAcked {
		return
	}
	delete(c.pending, id)
	ckpt := &Checkpoint{
		JobName:         c.job.spec.Name,
		ID:              id,
		SourcePositions: p.sources,
		OperatorState:   p.ops,
	}
	go func() {
		p.completed <- c.persist(ckpt)
	}()
}

func (c *checkpointCoordinator) persist(ckpt *Checkpoint) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ckpt); err != nil {
		return fmt.Errorf("flow: encoding checkpoint: %w", err)
	}
	store := c.job.spec.CheckpointStore
	if err := store.Put(checkpointKey(ckpt.JobName, ckpt.ID), buf.Bytes()); err != nil {
		return fmt.Errorf("flow: persisting checkpoint: %w", err)
	}
	// Prune old checkpoints beyond the retention bound.
	keys, err := store.List("checkpoints/" + ckpt.JobName + "/")
	if err != nil {
		return nil
	}
	for len(keys) > c.job.spec.KeepCheckpoints {
		if err := store.Delete(keys[0]); err != nil {
			break
		}
		keys = keys[1:]
	}
	return nil
}

// LatestCheckpoint loads the newest persisted checkpoint for a job, or nil
// when none exists.
func LatestCheckpoint(store interface {
	List(prefix string) ([]string, error)
	Get(key string) ([]byte, error)
}, job string) (*Checkpoint, error) {
	keys, err := store.List("checkpoints/" + job + "/")
	if err != nil {
		return nil, err
	}
	if len(keys) == 0 {
		return nil, nil
	}
	data, err := store.Get(keys[len(keys)-1])
	if err != nil {
		return nil, err
	}
	var ckpt Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ckpt); err != nil {
		return nil, fmt.Errorf("flow: decoding checkpoint: %w", err)
	}
	return &ckpt, nil
}

// Restore arms the job to start from the given checkpoint: sources are
// Seek'd and operators Restore'd during Start. Must be called before Start.
func (j *Job) Restore(ckpt *Checkpoint) error {
	if j.started.Load() {
		return fmt.Errorf("flow: cannot restore a started job")
	}
	if ckpt == nil {
		return nil
	}
	if ckpt.JobName != j.spec.Name {
		return fmt.Errorf("flow: checkpoint belongs to %q, job is %q", ckpt.JobName, j.spec.Name)
	}
	j.restoreState = ckpt
	// Resume checkpoint ids after the restored one.
	j.coord.nextID = ckpt.ID
	return nil
}

// RestoreLatest loads the newest checkpoint from the job's configured store
// and arms it. A job with no checkpoints starts fresh.
func (j *Job) RestoreLatest() error {
	if j.spec.CheckpointStore == nil {
		return fmt.Errorf("flow: job %q has no checkpoint store", j.spec.Name)
	}
	ckpt, err := LatestCheckpoint(j.spec.CheckpointStore, j.spec.Name)
	if err != nil {
		return err
	}
	return j.Restore(ckpt)
}

// snapRow is a keyed row in a snapshot: its key, as raw bytes (a compiled
// GROUP BY key is binary, and JSON would rewrite it as a string), a time,
// and the row, typed cells with their schema (record.Value's JSON).
type snapRow struct {
	Key  []byte
	Time int64 `json:",omitempty"`
	Row  record.Row
}

// errNoRow is a snapshot entry without its row.
var errNoRow = errors.New("snapshot entry without a row")
