package flow

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// JobFactory rebuilds a job from scratch, parameterized by a parallelism
// hint so the autoscaler can redeploy at a different scale. Implementations
// must return a fresh, unstarted Job on every call (channels and goroutines
// are not reusable across restarts).
type JobFactory func(parallelismHint int) (*Job, error)

// ManagerConfig tunes the job management layer (§4.2.2): monitoring cadence
// and the rule-based auto-recovery / auto-scaling engine.
type ManagerConfig struct {
	// MonitorInterval is the health-check cadence. Default 50ms (scaled for
	// in-process jobs; production would use seconds).
	MonitorInterval time.Duration
	// MaxRestarts bounds automatic failure recoveries per job. Default 3.
	MaxRestarts int
	// ScaleUpLagThreshold: when a job's source lag exceeds this, the
	// autoscaler redeploys it with doubled parallelism hint. Zero disables
	// scaling.
	ScaleUpLagThreshold int64
}

func (c ManagerConfig) withDefaults() ManagerConfig {
	if c.MonitorInterval <= 0 {
		c.MonitorInterval = 50 * time.Millisecond
	}
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 3
	}
	return c
}

// JobStatus describes a managed job for operators and dashboards.
type JobStatus struct {
	Name        string
	Running     bool
	Failed      bool
	LastError   string
	Restarts    int
	Parallelism int
	Metrics     Metrics
}

type managedJob struct {
	name    string
	factory JobFactory

	mu          sync.Mutex
	job         *Job
	restarts    int
	parallelism int
	lastErr     error
	stopped     bool
}

// JobManager is the unified deployment/management/operation layer of
// §4.2.2: it validates and deploys jobs, persists their checkpoints (via
// each job's configured store), continuously monitors health, and runs the
// rule-based engine that restarts failed jobs and scales them on lag.
type JobManager struct {
	cfg ManagerConfig

	// ctx parents every managed job's context: cancelling it (Close)
	// cancels all managed jobs.
	ctx    context.Context
	cancel context.CancelFunc

	mu   sync.Mutex
	jobs map[string]*managedJob

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// NewJobManager creates a manager with no parent lifecycle and starts its
// monitor loop. Call Close when done: monitoring stops and every managed job
// is cancelled (each job's context descends from the manager's).
func NewJobManager(cfg ManagerConfig) *JobManager {
	//lint:ignore ctxflow a manager is the root of its jobs' lifecycle; Close, not a caller's context, ends it
	ctx, cancel := context.WithCancel(context.Background())
	m := &JobManager{
		cfg:    cfg.withDefaults(),
		ctx:    ctx,
		cancel: cancel,
		jobs:   make(map[string]*managedJob),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go m.monitor()
	return m
}

// Close stops monitoring and cancels all managed jobs.
func (m *JobManager) Close() {
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
	m.cancel()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, mj := range m.jobs {
		mj.mu.Lock()
		if mj.job != nil {
			mj.job.Cancel()
		}
		mj.stopped = true
		mj.mu.Unlock()
	}
}

// Deploy builds the job at parallelism hint 1, restores the latest
// checkpoint if the job has a checkpoint store, and starts it under
// management.
func (m *JobManager) Deploy(name string, factory JobFactory) error {
	m.mu.Lock()
	if _, ok := m.jobs[name]; ok {
		m.mu.Unlock()
		return fmt.Errorf("flow: job %q already deployed", name)
	}
	mj := &managedJob{name: name, factory: factory, parallelism: 1}
	m.jobs[name] = mj
	m.mu.Unlock()
	return m.launch(mj, false)
}

// launch builds and starts mj's job; withRestore arms the latest checkpoint.
func (m *JobManager) launch(mj *managedJob, withRestore bool) error {
	mj.mu.Lock()
	defer mj.mu.Unlock()
	job, err := mj.factory(mj.parallelism)
	if err != nil {
		mj.lastErr = err
		return err
	}
	// Thread the manager's lifecycle into the job: JobFactory predates
	// context threading, so reparent the fresh job before it starts.
	job.rebind(m.ctx)
	if withRestore && job.spec.CheckpointStore != nil {
		if err := job.RestoreLatest(); err != nil {
			mj.lastErr = err
			return err
		}
	}
	if err := job.Start(); err != nil {
		mj.lastErr = err
		return err
	}
	mj.job = job
	return nil
}

// Stop cancels a managed job and removes it from management.
func (m *JobManager) Stop(name string) error {
	m.mu.Lock()
	mj, ok := m.jobs[name]
	if ok {
		delete(m.jobs, name)
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("flow: job %q not deployed", name)
	}
	mj.mu.Lock()
	defer mj.mu.Unlock()
	mj.stopped = true
	if mj.job != nil {
		mj.job.Cancel()
	}
	return nil
}

// List returns the status of every managed job, sorted by name.
func (m *JobManager) List() []JobStatus {
	m.mu.Lock()
	names := make([]string, 0, len(m.jobs))
	for n := range m.jobs {
		names = append(names, n)
	}
	m.mu.Unlock()
	sort.Strings(names)
	out := make([]JobStatus, 0, len(names))
	for _, n := range names {
		if st, err := m.Status(n); err == nil {
			out = append(out, st)
		}
	}
	return out
}

// Status returns one job's status.
func (m *JobManager) Status(name string) (JobStatus, error) {
	m.mu.Lock()
	mj, ok := m.jobs[name]
	m.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("flow: job %q not deployed", name)
	}
	mj.mu.Lock()
	defer mj.mu.Unlock()
	st := JobStatus{
		Name:        name,
		Restarts:    mj.restarts,
		Parallelism: mj.parallelism,
	}
	if mj.lastErr != nil {
		st.LastError = mj.lastErr.Error()
	}
	if mj.job != nil {
		st.Running = !mj.job.Done()
		st.Metrics = mj.job.Metrics()
		if err := mj.job.Err(); err != nil {
			st.Failed = true
			st.LastError = err.Error()
		}
	}
	return st, nil
}

// monitor is the shared health loop: it applies the recovery and scaling
// rules to every managed job on each tick.
func (m *JobManager) monitor() {
	defer close(m.done)
	ticker := time.NewTicker(m.cfg.MonitorInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-m.ctx.Done():
			return // parent lifecycle ended; jobs die with the shared context
		case <-ticker.C:
			m.mu.Lock()
			jobs := make([]*managedJob, 0, len(m.jobs))
			for _, mj := range m.jobs {
				jobs = append(jobs, mj)
			}
			m.mu.Unlock()
			for _, mj := range jobs {
				m.applyRules(mj)
			}
		}
	}
}

// applyRules implements the rule-based engine: compare key metrics against
// the desired state and take corrective action (§4.2.1 "Job monitoring and
// automatic failure recovery").
func (m *JobManager) applyRules(mj *managedJob) {
	mj.mu.Lock()
	job := mj.job
	stopped := mj.stopped
	mj.mu.Unlock()
	if job == nil || stopped {
		return
	}

	// Rule 1: failure recovery. A job that died with an error is restarted
	// from its latest checkpoint, up to MaxRestarts.
	if job.Done() && job.Err() != nil {
		mj.mu.Lock()
		mj.lastErr = job.Err()
		canRestart := mj.restarts < m.cfg.MaxRestarts
		if canRestart {
			mj.restarts++
			mj.job = nil
		}
		// When the budget is exhausted the failed job stays visible so
		// Status reports Failed with its terminal error.
		mj.mu.Unlock()
		if canRestart {
			_ = m.launch(mj, true)
		}
		return
	}
	if job.Done() {
		return // finished cleanly (bounded job)
	}

	metrics := job.Metrics()

	// Rule 2: lag-based scale-up. Redeploy with doubled parallelism hint.
	if m.cfg.ScaleUpLagThreshold > 0 && metrics.SourceLag > m.cfg.ScaleUpLagThreshold {
		mj.mu.Lock()
		if mj.restarts >= m.cfg.MaxRestarts {
			mj.mu.Unlock()
			return
		}
		mj.restarts++
		mj.parallelism *= 2
		mj.job = nil
		mj.mu.Unlock()
		job.Cancel()
		_ = job.Wait()
		_ = m.launch(mj, true)
	}
}
