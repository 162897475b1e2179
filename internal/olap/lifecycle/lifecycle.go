package lifecycle

import (
	"errors"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/olap"
)

// Config tunes the lifecycle policies for one table deployment. The zero
// value disables every policy (useful for wiring the manager in before
// turning knobs on).
type Config struct {
	// Retention drops sealed segments whose MaxTime is older than
	// now-Retention. Time-column values are epoch milliseconds (the
	// repo-wide convention). 0 keeps segments forever.
	Retention time.Duration
	// MaxHotSegments bounds how many sealed segments stay resident in
	// memory across the deployment; the least-recently-queried overflow
	// is offloaded to the deep store. 0 disables tiering.
	MaxHotSegments int
	// CompactAfter merges a partition's small sealed segments once at
	// least this many accumulate. 0 disables compaction.
	CompactAfter int
	// CompactMaxRows marks segments with fewer rows as compaction
	// candidates. Default: the table's SegmentRows seal threshold (a
	// merged segment at or above it stops being a candidate, so
	// compaction converges).
	CompactMaxRows int
	// Interval is the background sweep cadence for Start. Default 100ms.
	Interval time.Duration
	// RetireGrace is how long replaced/expired segment copies stay
	// resident for queries that routed before the swap. Default 1s.
	RetireGrace time.Duration
	// DeleteExpiredArchives removes expired segments from the deep store
	// too; by default retention only frees serving memory and routing.
	DeleteExpiredArchives bool
	// Now is the retention clock, injectable for tests and experiments.
	// Default time.Now.
	Now func() time.Time
}

// compactBatch caps how many segments one merge consumes.
const compactBatch = 16

func (c Config) withDefaults(table olap.TableConfig) Config {
	if c.CompactMaxRows <= 0 {
		c.CompactMaxRows = table.SegmentRows
	}
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.RetireGrace <= 0 {
		c.RetireGrace = time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Stats are cumulative lifecycle counters.
type Stats struct {
	Sweeps            int64
	Expired           int64 // segments dropped by retention
	Offloaded         int64 // segments moved to the cold tier
	Compactions       int64 // merge operations performed
	CompactedSegments int64 // input segments consumed by merges
	Purged            int64 // retired copies reclaimed
	Errors            int64 // failed lifecycle actions (e.g. store down)
	LastErr           error
}

// Manager applies retention, tiering and compaction policies to one table
// deployment, either on a background loop (Start/Stop) or synchronously
// (Sweep). All methods are safe for concurrent use.
type Manager struct {
	d   *olap.Deployment
	cfg Config

	mu    sync.Mutex
	stats Stats

	// offloadHist/compactHist record policy-action durations on the
	// deployment registry; bound once in New.
	offloadHist *obs.Histogram
	compactHist *obs.Histogram

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New prepares a manager over a deployment and attaches the deep-store
// loaders that make offloaded segments transparently queryable.
func New(d *olap.Deployment, cfg Config) *Manager {
	d.AttachLoaders()
	m := &Manager{
		d:    d,
		cfg:  cfg.withDefaults(d.Table()),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	reg := d.Metrics()
	m.offloadHist = reg.Histogram("lifecycle_offload_ns")
	m.compactHist = reg.Histogram("lifecycle_compact_ns")
	reg.SetGaugeFunc("lifecycle_hot_segments", func() float64 {
		hot := 0
		for _, info := range d.SegmentInfos() {
			if info.Resident > 0 {
				hot++
			}
		}
		return float64(hot)
	})
	reg.SetGaugeFunc("lifecycle_offloaded_total", func() float64 { return float64(m.Stats().Offloaded) })
	reg.SetGaugeFunc("lifecycle_expired_total", func() float64 { return float64(m.Stats().Expired) })
	reg.SetGaugeFunc("lifecycle_compactions_total", func() float64 { return float64(m.Stats().Compactions) })
	return m
}

// Start launches the background sweep loop.
func (m *Manager) Start() {
	m.startOnce.Do(func() {
		go func() {
			defer close(m.done)
			ticker := time.NewTicker(m.cfg.Interval)
			defer ticker.Stop()
			for {
				select {
				case <-m.stop:
					return
				case <-ticker.C:
					m.Sweep()
				}
			}
		}()
	})
}

// Stop halts the background loop and waits for the in-flight sweep.
func (m *Manager) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.startOnce.Do(func() { close(m.done) }) // never started: unblock Stop
	<-m.done
}

// Stats returns a snapshot of the cumulative counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

func (m *Manager) bump(fn func(*Stats)) {
	m.mu.Lock()
	fn(&m.stats)
	m.mu.Unlock()
}

func (m *Manager) fail(err error) {
	m.bump(func(s *Stats) {
		s.Errors++
		s.LastErr = err
	})
}

// Sweep runs one pass of every enabled policy — retention, compaction,
// tiered offload, retired-copy reclamation — and returns the cumulative
// stats afterwards. Policy failures (typically a deep-store outage) are
// counted, never fatal: data stays hot until the store recovers.
func (m *Manager) Sweep() Stats {
	m.sweepRetention()
	m.sweepCompaction()
	m.sweepTiering()
	if purged := m.d.PurgeRetired(m.cfg.RetireGrace); purged > 0 {
		m.bump(func(s *Stats) { s.Purged += int64(purged) })
	}
	m.bump(func(s *Stats) { s.Sweeps++ })
	return m.Stats()
}

func (m *Manager) sweepRetention() {
	if m.cfg.Retention <= 0 {
		return
	}
	// A table without a time column has no segment time bounds (they stay
	// zero); retention over them would expire everything. Refuse instead.
	if m.d.Table().Schema.TimeField == "" {
		return
	}
	cutoff := m.cfg.Now().UnixMilli() - m.cfg.Retention.Milliseconds()
	for _, info := range m.d.SegmentInfos() {
		if info.MaxTime < cutoff {
			m.d.DropSegment(info.Name, m.cfg.DeleteExpiredArchives)
			m.bump(func(s *Stats) { s.Expired++ })
		}
	}
}

func (m *Manager) sweepCompaction() {
	if m.cfg.CompactAfter <= 1 {
		return
	}
	byPart := make(map[int][]string)
	for _, info := range m.d.SegmentInfos() {
		if info.NumRows < m.cfg.CompactMaxRows {
			byPart[info.Partition] = append(byPart[info.Partition], info.Name)
		}
	}
	parts := make([]int, 0, len(byPart))
	for p := range byPart {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	for _, p := range parts {
		names := byPart[p]
		if len(names) < m.cfg.CompactAfter {
			continue
		}
		if len(names) > compactBatch {
			names = names[:compactBatch]
		}
		compactStart := time.Now()
		res, err := m.d.Compact(names)
		if err != nil {
			// A rebalance move holds one of the inputs; the batch stays a
			// candidate and the next sweep retries it.
			if errors.Is(err, olap.ErrSegmentsBusy) {
				continue
			}
			m.fail(err)
			continue
		}
		m.compactHist.Observe(time.Since(compactStart))
		m.bump(func(s *Stats) {
			s.Compactions++
			s.CompactedSegments += int64(len(res.Dropped))
		})
	}
}

func (m *Manager) sweepTiering() {
	if m.cfg.MaxHotSegments <= 0 {
		return
	}
	var resident []olap.SegmentInfo
	for _, info := range m.d.SegmentInfos() {
		if info.Resident > 0 {
			resident = append(resident, info)
		}
	}
	over := len(resident) - m.cfg.MaxHotSegments
	if over <= 0 {
		return
	}
	// Offload the least-recently-queried overflow first (LRU by last
	// query touch; name breaks ties deterministically).
	sort.Slice(resident, func(i, j int) bool {
		if !resident[i].LastQuery.Equal(resident[j].LastQuery) {
			return resident[i].LastQuery.Before(resident[j].LastQuery)
		}
		return resident[i].Name < resident[j].Name
	})
	for _, info := range resident[:over] {
		offloadStart := time.Now()
		if _, err := m.d.OffloadSegment(info.Name); err != nil {
			// Deep store down: leave every remaining segment hot — never
			// drop data without a durable copy.
			m.fail(err)
			return
		}
		m.offloadHist.Observe(time.Since(offloadStart))
		m.bump(func(s *Stats) { s.Offloaded++ })
	}
}
