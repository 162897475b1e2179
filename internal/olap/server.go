package olap

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// hosted tracks one sealed segment's local serving state: the resident
// columnar data (nil while offloaded to the deep store), time bounds kept
// resident even while the data is not (so time pruning never needs a
// deep-store fetch), and the last query touch that drives the lifecycle
// manager's LRU hot-set.
type hosted struct {
	seg     *Segment // nil while offloaded
	minTime int64
	maxTime int64
	// lastQuery is unix-nanos of the latest query touch, atomic so the
	// query path can record it under the server's read lock without
	// serializing concurrent snapshot phases.
	lastQuery atomic.Int64
	retiredAt time.Time // non-zero once dropped from routing (compaction/retention)
}

// Server hosts segments for one table deployment. All methods are safe for
// concurrent use.
type Server struct {
	name string

	mu       sync.RWMutex
	segments map[string]*hosted
	down     bool
	loader   func(name string) (*Segment, error)
	reloads  int64

	// scanDelay is a fault-injection hook: a per-segment-scan sleep applied
	// inside the timed scan window, so the slow-query log attributes the
	// induced latency to this server's segment.scan spans (E22).
	scanDelay atomic.Int64

	// scanHist/reloadHist are bound by the owning deployment's registry
	// (labels server=name); nil-safe when the server is used standalone.
	scanHist   *obs.Histogram
	reloadHist *obs.Histogram
}

// NewServer creates an empty server.
func NewServer(name string) *Server {
	return &Server{
		name:     name,
		segments: make(map[string]*hosted),
	}
}

// Name returns the server name.
func (s *Server) Name() string { return s.name }

// SetScanDelay injects a per-segment-scan delay (0 clears it). The sleep
// happens inside the timed scan window, so tracing attributes it to this
// server's segment.scan spans — the fault E22 isolates via the slow-query
// log.
func (s *Server) SetScanDelay(d time.Duration) { s.scanDelay.Store(int64(d)) }

// bindMetrics attaches this server's latency histograms to a registry.
// Called by NewDeployment before traffic; replaces any previous binding.
func (s *Server) bindMetrics(reg *obs.Registry) {
	s.mu.Lock()
	s.scanHist = reg.Histogram("olap_segment_scan_ns", obs.Label{Key: "server", Value: s.name})
	s.reloadHist = reg.Histogram("olap_segment_reload_ns", obs.Label{Key: "server", Value: s.name})
	s.mu.Unlock()
}

// SetDown injects or clears a server failure.
func (s *Server) SetDown(down bool) {
	s.mu.Lock()
	s.down = down
	s.mu.Unlock()
}

// Down reports the injected failure state.
func (s *Server) Down() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.down
}

// addSegment installs a sealed segment.
func (s *Server) addSegment(seg *Segment) {
	h := &hosted{seg: seg, minTime: seg.MinTime, maxTime: seg.MaxTime}
	h.lastQuery.Store(time.Now().UnixNano())
	s.mu.Lock()
	s.segments[seg.Name] = h
	s.mu.Unlock()
}

// addOffloaded installs a sealed segment in its offloaded state: routing
// metadata only, no resident data — the metadata-only half of a rebalance
// move, where the deep store already holds the bytes and queries reload
// them transparently through the loader.
func (s *Server) addOffloaded(name string, minTime, maxTime int64) {
	h := &hosted{minTime: minTime, maxTime: maxTime}
	h.lastQuery.Store(time.Now().UnixNano())
	s.mu.Lock()
	s.segments[name] = h
	s.mu.Unlock()
}

// Hosts reports whether the server can still serve the named segment:
// resident, offloaded, or retired and kept for in-flight queries. Routing
// counts retired copies so a query whose snapshot predates a rebalance or
// compaction swap can land on the old replica during the retire grace
// window instead of failing — the segment data is immutable, so the retired
// copy answers exactly.
func (s *Server) Hosts(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.segments[name]
	return ok
}

// Segment returns a hosted segment's resident data (nil when absent,
// offloaded or server down).
func (s *Server) Segment(name string) *Segment {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.down {
		return nil
	}
	if h, ok := s.segments[name]; ok {
		return h.seg
	}
	return nil
}

// SetLoader attaches the deep-store fetch used to transparently reload
// offloaded segments during queries. The lifecycle manager installs it; a
// server without a loader fails queries over offloaded segments.
func (s *Server) SetLoader(fn func(name string) (*Segment, error)) {
	s.mu.Lock()
	s.loader = fn
	s.mu.Unlock()
}

// Offload drops a segment's resident data, keeping its time bounds so
// pruning keeps working. The caller must have archived the segment first.
// Reports whether data was actually released.
func (s *Server) Offload(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.segments[name]
	if !ok || !h.retiredAt.IsZero() || h.seg == nil {
		return false
	}
	h.seg = nil
	return true
}

// Retire unroutes a segment (compaction replaced it, or retention expired
// it) while keeping its data briefly resident so queries that routed
// before the swap still finish. PurgeRetired reclaims the memory.
func (s *Server) Retire(name string) {
	s.mu.Lock()
	if h, ok := s.segments[name]; ok && h.retiredAt.IsZero() {
		h.retiredAt = time.Now()
	}
	s.mu.Unlock()
}

// PurgeRetired drops segments retired before the cutoff, returning how many
// were reclaimed.
func (s *Server) PurgeRetired(before time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for name, h := range s.segments {
		if !h.retiredAt.IsZero() && h.retiredAt.Before(before) {
			delete(s.segments, name)
			n++
		}
	}
	return n
}

// Resident reports whether the named segment's data is in memory here.
func (s *Server) Resident(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h, ok := s.segments[name]
	return ok && h.seg != nil
}

// LastQuery returns the most recent query touch of a hosted segment (zero
// when absent) — the lifecycle manager's LRU signal.
func (s *Server) LastQuery(name string) time.Time {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if h, ok := s.segments[name]; ok {
		return time.Unix(0, h.lastQuery.Load())
	}
	return time.Time{}
}

// Reloads returns how many deep-store reloads this server has performed.
func (s *Server) Reloads() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.reloads
}

// ExecOptions tunes one server-side subquery execution.
type ExecOptions struct {
	// Workers bounds the segment-scan worker pool (0 means GOMAXPROCS; 1
	// forces the serial baseline).
	Workers int
	// TrimExact disables bounded top-K trimming for ORDER BY/LIMIT queries:
	// every matching row and every candidate group crosses the wire, so
	// results are byte-identical to a full sort. The default (false) trims
	// like Pinot — fast, and for grouped aggregations potentially inexact
	// under pathological cross-server skew.
	TrimExact bool
	// TrimSize overrides the minimum group budget of trimmed grouped top-K
	// aggregations (0 = DefaultGroupTrimSize); the kept count is
	// max(5·(Limit+Offset), TrimSize).
	TrimSize int
}

// segSnapshot is one query's view of the routed segments on this server:
// resident segment data, with segments outside the query's time bounds
// pruned and offloaded segments transparently reloaded.
type segSnapshot struct {
	segs     []*Segment
	pruned   int
	reloaded int
	scanHist *obs.Histogram
}

// snapshotSegments runs the scanSegments preamble: under the read
// lock it checks liveness, prunes segments whose time bounds lie outside
// bounds (using hosted metadata, so offloaded segments never touch the deep
// store) and records query touches for the LRU hot-set; then — outside the
// lock, because the deep store may be slow or down — it reloads surviving
// offloaded segments through the attached loader and installs them back as
// resident. A reload failure fails only queries that need the cold segment;
// a query whose time filters prune it is unaffected — the
// graceful-degradation contract under a deep-store outage.
func (s *Server) snapshotSegments(ctx context.Context, segmentNames []string, bounds timeBounds) (*segSnapshot, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	now := time.Now().UnixNano()
	s.mu.RLock()
	if s.down {
		s.mu.RUnlock()
		return nil, fmt.Errorf("%w: %s", ErrServerDown, s.name)
	}
	snap := &segSnapshot{segs: make([]*Segment, 0, len(segmentNames))}
	var offloaded []string
	for _, name := range segmentNames {
		h, ok := s.segments[name]
		if !ok {
			s.mu.RUnlock()
			return nil, fmt.Errorf("%w: %s on %s", ErrSegmentUnavailable, name, s.name)
		}
		// Time pruning: the bounds live in the hosted metadata, so an
		// out-of-window offloaded segment is skipped without touching the
		// deep store — pruning composes with tiering.
		if !bounds.overlaps(h.minTime, h.maxTime) {
			snap.pruned++
			continue
		}
		h.lastQuery.Store(now) // atomic: concurrent snapshots share the read lock
		if h.seg == nil {
			offloaded = append(offloaded, name)
			continue
		}
		snap.segs = append(snap.segs, h.seg)
	}
	loader := s.loader
	snap.scanHist = s.scanHist
	reloadHist := s.reloadHist
	s.mu.RUnlock()

	for _, name := range offloaded {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if loader == nil {
			return nil, fmt.Errorf("%w: %s offloaded on %s with no loader", ErrSegmentUnavailable, name, s.name)
		}
		reloadStart := time.Now()
		seg, err := loader(name)
		if err != nil {
			return nil, fmt.Errorf("%w: reloading %s on %s: %v", ErrSegmentUnavailable, name, s.name, err)
		}
		reloadHist.Observe(time.Since(reloadStart))
		s.mu.Lock()
		if h, ok := s.segments[name]; ok && h.seg == nil {
			h.seg = seg
			s.reloads++
		}
		s.mu.Unlock()
		snap.reloaded++
		snap.segs = append(snap.segs, seg)
	}
	return snap, nil
}

// scanSegments runs a routed server's share of a scatter over the named
// sealed segments hosted here, masked by valid (segment name → upsert
// validity and its version, taken with the routing snapshot; absent means
// every row is valid). Segments whose time bounds lie outside bounds are
// pruned before any scan is scheduled (and before any deep-store reload);
// offloaded segments that survive pruning are transparently reloaded
// through the attached loader and installed back as resident. The
// survivors scan into out, up to opts.Workers at once (0 means GOMAXPROCS; 1 is serial, in routed order, with no goroutine
// overhead — a stream's order, and the baseline E16 compares against),
// until out has had enough, a scan fails or ctx ends (checked between
// segment scans). Each scan is a sample in the server's scan histogram and
// a segment.scan span; the fault-injection delay sleeps inside the timed
// window so slow-query capture attributes it to this scan. The returned
// stats sum the scans' and the snapshot's (segments pruned, reloaded).
func (s *Server) scanSegments(ctx context.Context, segmentNames []string, valid map[string]validity, bounds timeBounds, opts ExecOptions, out producer) (ExecStats, error) {
	snap, err := s.snapshotSegments(ctx, segmentNames, bounds)
	if err != nil {
		return ExecStats{}, err
	}
	stats := ExecStats{SegmentsPruned: snap.pruned, SegmentsReloaded: snap.reloaded}
	parentSpan := obs.SpanFromContext(ctx)
	// Workers pull segment indexes from a shared counter. The first failure
	// cancels pctx, which stops every worker before its next segment; a sink
	// that has had enough exhausts the counter.
	pctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var mu sync.Mutex
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < len(snap.segs) && pctx.Err() == nil; i = int(next.Add(1)) - 1 {
			sp := parentSpan.Child("segment.scan")
			start := time.Now()
			if delay := s.scanDelay.Load(); delay > 0 {
				time.Sleep(time.Duration(delay))
			}
			seg := snap.segs[i]
			v := valid[seg.Name]
			st, more, err := out.scan(pctx, scanUnit{seg: seg, valid: v.bits, version: v.version})
			snap.scanHist.Observe(time.Since(start))
			if sp.Active() {
				sp.SetAttr("segment", seg.Name)
				if err != nil {
					sp.SetAttr("error", err.Error())
				} else {
					sp.SetRows(st.RowsScanned)
					switch {
					case st.SegmentsCached > 0:
						sp.SetAttr("path", "cached")
					case st.StarTreeServed > 0:
						sp.SetAttr("path", "startree")
					}
				}
				sp.End()
			}
			mu.Lock()
			stats.Add(st)
			mu.Unlock()
			if err != nil {
				cancel(err)
			} else if !more {
				next.Store(int64(len(snap.segs)))
			}
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, len(snap.segs)); workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return stats, err // the round ended around this server
	}
	return stats, context.Cause(pctx) // a scan's failure, or nil
}

// MemBytes approximates the server's resident segment memory. Offloaded
// segments contribute nothing — the bound the lifecycle manager enforces.
func (s *Server) MemBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, h := range s.segments {
		if h.seg != nil {
			n += h.seg.MemBytes()
		}
	}
	return n
}
