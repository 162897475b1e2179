// Package matview implements broker-side incrementally-maintained
// materialized views: standing aggregate query shapes whose answers are
// kept current by folding each ingested row's partial-aggregate state into
// a merged view state (the same associative/commutative algebra the
// scatter-gather pipeline merges — SUM/COUNT/MIN/MAX as running numerics,
// AVG as SUM+COUNT, DISTINCTCOUNT as a value set, group-by keys by value)
// instead of re-executing the query. This generalizes the paper's §5.2
// Flink pre-aggregation to the serving layer: where the PR 5 result cache
// loses every entry on any ingest — exactly when dashboard traffic is
// heaviest — a registered view keeps serving at hit latency under a
// sustained write rate, because maintenance cost is O(new rows), not
// O(table).
//
// # Incremental maintenance and the mutation feed
//
// The Registry subscribes to Deployment.AddMutationHook. Appends merge
// incrementally. Non-monotonic mutations — an upsert supersede, a retention
// drop — are retractions, and mergeable aggregate states cannot subtract
// (MIN/MAX/DISTINCTCOUNT fundamentally so): the view falls back to a
// background re-materialization via Broker.MaterializePartial while
// serving its last consistent snapshot within Config.MaxStaleness; past the
// bound, the broker falls through to normal execution. Seals, compactions,
// offloads and recoveries move or rewrite segments without changing the
// visible row set, so they need no view work at all.
//
// # Correctness protocol
//
// Every visible-data mutation carries a Seq — the generation value bumped
// inside the same deployment critical section that changed row visibility —
// and MaterializePartial returns the generation read inside its routing
// snapshot's critical section. The snapshot therefore contains exactly the
// mutations with Seq <= snapGen, so a re-materialization reconciles
// losslessly: queued events at or below snapGen are dropped (already in the
// snapshot), appends above it replay onto the fresh state, and a retraction
// above it means the snapshot is itself already stale — loop and
// re-materialize. A view with a live state and an empty queue is exact: its
// answer is byte-identical to a cold execution at the current generation,
// which the randomized differential harness in this package asserts across
// interleaved ingests, seals, compactions and upserts.
package matview

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metadata"
	"repro/internal/olap"
	"repro/internal/record"
)

// Config tunes a Registry.
type Config struct {
	// MaxStaleness bounds how stale a served answer may be while a view is
	// re-materializing after a retraction. Within the bound the last
	// consistent snapshot is served with ExecStats.ViewStalenessMs set;
	// past it — or always, when 0 — the broker falls through to normal
	// execution until the re-materialization completes.
	MaxStaleness time.Duration
}

// Stats snapshots a registry's counters.
type Stats struct {
	// Views is the number of registered shapes.
	Views int
	// Hits counts fresh serves: the view was exact at serve time.
	Hits int64
	// StaleHits counts snapshot serves during a re-materialization, within
	// the staleness bound.
	StaleHits int64
	// Misses counts fall-throughs: the shape is registered but was dirty
	// past the bound, so the broker executed normally.
	Misses int64
	// RowsMerged counts rows folded incrementally into view states.
	RowsMerged int64
	// Rematerializations counts full re-executions forced by retractions
	// (including each retry when a retraction landed mid-materialize).
	Rematerializations int64
}

// Registry maintains materialized views over one deployment and serves
// them to brokers via the olap.ViewServer interface. Wire it with
// BrokerOptions.Views; maintenance is fed by the deployment's mutation
// hook, so every broker over the deployment may share one registry.
type Registry struct {
	d      *olap.Deployment
	schema *metadata.Schema
	// cold is a plain broker (no cache, no admission) that executes
	// (re)materializations.
	cold *olap.Broker
	cfg  Config

	mu    sync.RWMutex
	views map[string]*View

	hits, staleHits, misses, rowsMerged, remats atomic.Int64
}

// NewRegistry creates a registry over the deployment and subscribes it to
// the deployment's mutation feed.
func NewRegistry(d *olap.Deployment, cfg Config) *Registry {
	r := &Registry{
		d:      d,
		schema: d.Table().Schema,
		cold:   olap.NewBroker(d),
		cfg:    cfg,
		views:  make(map[string]*View),
	}
	d.AddMutationHook(r.onMutation)
	// Pull gauges on the deployment registry: view counters plus the two
	// maintenance-health signals (undrained mutation backlog, worst-case
	// staleness of any dirty view). Evaluated only at snapshot time.
	reg := d.Metrics()
	reg.SetGaugeFunc("matview_views", func() float64 { return float64(r.Stats().Views) })
	reg.SetGaugeFunc("matview_hits_total", func() float64 { return float64(r.hits.Load()) })
	reg.SetGaugeFunc("matview_stale_hits_total", func() float64 { return float64(r.staleHits.Load()) })
	reg.SetGaugeFunc("matview_misses_total", func() float64 { return float64(r.misses.Load()) })
	reg.SetGaugeFunc("matview_rows_merged_total", func() float64 { return float64(r.rowsMerged.Load()) })
	reg.SetGaugeFunc("matview_remat_total", func() float64 { return float64(r.remats.Load()) })
	reg.SetGaugeFunc("matview_drain_lag_rows", func() float64 { return float64(r.DrainLag()) })
	reg.SetGaugeFunc("matview_staleness_ms", func() float64 { return float64(r.MaxStalenessMs()) })
	return r
}

// DrainLag returns the total number of queued, not-yet-applied mutations
// across all views — the registry's maintenance backlog.
func (r *Registry) DrainLag() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	lag := 0
	// Lock order mu → qmu matches onMutation and serve.
	for _, v := range r.views {
		v.qmu.Lock()
		lag += len(v.pending)
		v.qmu.Unlock()
	}
	return lag
}

// MaxStalenessMs returns the age in milliseconds of the oldest dirty episode
// across all views (0 when every view is clean) — how far behind the most
// stale served answer can be.
func (r *Registry) MaxStalenessMs() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var oldest time.Time
	for _, v := range r.views {
		v.qmu.Lock()
		dirtyAt := v.dirtyAt
		v.qmu.Unlock()
		if !dirtyAt.IsZero() && (oldest.IsZero() || dirtyAt.Before(oldest)) {
			oldest = dirtyAt
		}
	}
	if oldest.IsZero() {
		return 0
	}
	return time.Since(oldest).Milliseconds()
}

// Register adds a standing aggregate shape and synchronously materializes
// its initial state, so the first broker lookup already hits. Registering
// the same shape twice returns the existing view. The request (and its
// query) must not be mutated afterwards.
func (r *Registry) Register(ctx context.Context, req *olap.QueryRequest) (*View, error) {
	if req == nil || req.Query == nil {
		return nil, fmt.Errorf("matview: nil query request")
	}
	if len(req.Query.Aggs) == 0 {
		return nil, fmt.Errorf("matview: only aggregate query shapes can be registered")
	}
	key := olap.ViewKey(r.d.Table().Name, req.Query)

	r.mu.Lock()
	if v, ok := r.views[key]; ok {
		r.mu.Unlock()
		return v, nil
	}
	// MaterializePartial forces exact trimming on the registered shape.
	v := &View{reg: r, key: key, q: req.Query, req: req}
	// Enter the map before materializing: from here on the mutation hook
	// queues every event, and the seq reconciliation in install() sorts
	// out which ones the initial snapshot already covers.
	r.views[key] = v
	r.mu.Unlock()

	p, snapGen, err := r.cold.MaterializePartial(ctx, req)
	if err != nil {
		r.mu.Lock()
		delete(r.views, key)
		r.mu.Unlock()
		return nil, err
	}
	v.install(p, snapGen, false)
	return v, nil
}

// Unregister removes a shape; subsequent broker lookups execute normally.
func (r *Registry) Unregister(req *olap.QueryRequest) bool {
	if req == nil || req.Query == nil {
		return false
	}
	key := olap.ViewKey(r.d.Table().Name, req.Query)
	r.mu.Lock()
	_, ok := r.views[key]
	delete(r.views, key)
	r.mu.Unlock()
	return ok
}

// View returns the registered view for a shape, or nil.
func (r *Registry) View(req *olap.QueryRequest) *View {
	if req == nil || req.Query == nil {
		return nil
	}
	key := olap.ViewKey(r.d.Table().Name, req.Query)
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.views[key]
}

// Stats snapshots the registry counters.
func (r *Registry) Stats() Stats {
	r.mu.RLock()
	n := len(r.views)
	r.mu.RUnlock()
	return Stats{
		Views:              n,
		Hits:               r.hits.Load(),
		StaleHits:          r.staleHits.Load(),
		Misses:             r.misses.Load(),
		RowsMerged:         r.rowsMerged.Load(),
		Rematerializations: r.remats.Load(),
	}
}

// ServeView implements olap.ViewServer: it applies any queued mutations to
// the view's state, finalizes (or reuses) the snapshot, and returns it.
// During a re-materialization it returns the last consistent snapshot with
// its staleness, or ok=false past the bound.
func (r *Registry) ServeView(key string) (*olap.QueryResponse, int64, bool) {
	r.mu.RLock()
	v := r.views[key]
	r.mu.RUnlock()
	if v == nil {
		return nil, 0, false
	}
	return v.serve()
}

// onMutation is the deployment hook: it runs inside the deployment critical
// section, so it only appends to per-view queues (and spawns the
// re-materialization worker on a retraction) — never merges, finalizes, or
// calls back into the deployment.
func (r *Registry) onMutation(m olap.ViewMutation) {
	r.mu.RLock()
	for _, v := range r.views {
		v.observe(m)
	}
	r.mu.RUnlock()
}

// View is one registered shape's incrementally-maintained state.
//
// Locking: qmu guards the hook-facing fields (the event queue and the
// worker flags) and is the only lock the deployment's mutation hook takes,
// so ingest never waits behind a finalize; mu guards the merged state and
// snapshots. Lock order: mu before qmu.
type View struct {
	reg *Registry
	key string
	q   *olap.Query        // normalized shape (request Time folded in)
	req *olap.QueryRequest // materialization request

	qmu      sync.Mutex
	pending  []olap.ViewMutation
	rematOn  bool      // re-materialization worker running
	draining bool      // background drain goroutine running
	dirtyAt  time.Time // when the current dirty episode began (zero = clean)

	mu      sync.Mutex
	state   *olap.Partial // merged partial; nil while dirty
	seq     int64         // every mutation with Seq <= seq is applied to state
	snap    *olap.QueryResponse
	snapSeq int64
	last    *olap.QueryResponse // last consistent snapshot, for stale serving
}

// Key returns the view's canonical olap.ViewKey.
func (v *View) Key() string { return v.key }

// observe queues one mutation. Runs inside the deployment critical section.
func (v *View) observe(m olap.ViewMutation) {
	v.qmu.Lock()
	v.pending = append(v.pending, m)
	kickRemat := false
	if m.Retract {
		if v.dirtyAt.IsZero() {
			v.dirtyAt = time.Now()
		}
		if !v.rematOn {
			v.rematOn = true
			kickRemat = true
		}
	}
	// Appends drain eagerly in the background: maintenance rides the write
	// side, so by the time a query arrives the serve path is usually just a
	// snapshot return at cache-hit latency. The draining flag coalesces a
	// burst into one drainer, which loops until the queue is empty — this
	// also keeps per-view memory bounded for views nobody queries.
	kickDrain := false
	if !m.Retract && !v.draining {
		v.draining = true
		kickDrain = true
	}
	v.qmu.Unlock()
	if kickRemat {
		go v.rematerialize()
	}
	if kickDrain {
		go v.drainAsync()
	}
}

// drainAsync folds queued appends into the state off the read path and
// pre-finalizes the snapshot, so subsequent serves return it without doing
// any aggregation work. It loops until the queue is empty (appends that
// land while it holds mu are picked up by the next pass) and stops as soon
// as the view goes dirty — the re-materialization worker owns that case.
func (v *View) drainAsync() {
	for {
		v.mu.Lock()
		v.applyPendingLocked()
		v.refreshSnapLocked()
		clean := v.state != nil
		v.mu.Unlock()
		v.qmu.Lock()
		if !clean || len(v.pending) == 0 {
			v.draining = false
			v.qmu.Unlock()
			return
		}
		v.qmu.Unlock()
	}
}

// refreshSnapLocked re-finalizes the memoized response after the state
// advanced, memoized by seq. A finalize failure marks the view dirty (the
// shape finalized at registration, so this is a state problem, not a shape
// problem) and reports false. No-op while dirty. Caller holds v.mu.
func (v *View) refreshSnapLocked() bool {
	if v.state == nil {
		return false
	}
	if v.snap != nil && v.snapSeq == v.seq {
		return true
	}
	res, err := v.state.Finalize(v.q)
	if err != nil {
		v.markDirtyLocked()
		return false
	}
	// The serve does no scanning: a view answer carries no execution
	// counters of its own (the broker sets ViewHit/ViewStalenessMs and
	// samples its gauges).
	res.Stats = olap.ExecStats{}
	v.snap = res
	v.snapSeq = v.seq
	v.last = v.snap
	return true
}

// serve is the broker-facing read path.
func (v *View) serve() (*olap.QueryResponse, int64, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.applyPendingLocked()
	if v.state != nil {
		if !v.refreshSnapLocked() {
			v.reg.misses.Add(1)
			return nil, 0, false
		}
		v.reg.hits.Add(1)
		//lint:ignore statscopy documented ViewServer contract: the returned response is shared and the broker hands each caller a struct copy (respondView)
		return v.snap, 0, true
	}
	// Dirty: serve the last consistent snapshot within the bound. A read
	// also re-kicks the worker if it gave up (rematMaxRetries during an
	// outage), so views self-heal on the next query once the cluster does.
	v.qmu.Lock()
	dirtyAt := v.dirtyAt
	kick := !v.rematOn
	if kick {
		v.rematOn = true
	}
	v.qmu.Unlock()
	if kick {
		go v.rematerialize()
	}
	if v.last != nil && v.reg.cfg.MaxStaleness > 0 && !dirtyAt.IsZero() {
		stale := time.Since(dirtyAt)
		if stale <= v.reg.cfg.MaxStaleness {
			ms := stale.Milliseconds()
			if ms <= 0 {
				ms = 1 // a stale serve is always explicit, even under 1ms
			}
			v.reg.staleHits.Add(1)
			//lint:ignore statscopy same ViewServer contract as the fresh path: broker copies before attaching per-query stats
			return v.last, ms, true
		}
	}
	v.reg.misses.Add(1)
	return nil, 0, false
}

// Fresh reports whether the view is exact at the current generation
// (queued mutations applied, no re-materialization pending). Probing
// freshness also refreshes the memoized response, so a serve right after
// a true Fresh is a pure snapshot return.
func (v *View) Fresh() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.applyPendingLocked()
	v.refreshSnapLocked()
	return v.state != nil
}

// markDirtyLocked drops the live state and starts a dirty episode. Caller
// holds v.mu.
func (v *View) markDirtyLocked() {
	v.state = nil
	v.snap = nil
	v.qmu.Lock()
	if v.dirtyAt.IsZero() {
		v.dirtyAt = time.Now()
	}
	kick := !v.rematOn
	if kick {
		v.rematOn = true
	}
	v.qmu.Unlock()
	if kick {
		go v.rematerialize()
	}
}

// applyPendingLocked folds queued mutations into the live state: runs of
// appends merge batched through the partial-aggregate algebra; a
// retraction drops the state and leaves the remaining events queued for
// the re-materialization worker to reconcile by seq. Caller holds v.mu.
func (v *View) applyPendingLocked() {
	if v.state == nil {
		// Dirty: leave the queue intact — install() needs the events above
		// the snapshot generation to replay, and discarding anything here
		// could lose an append that raced the materialize.
		return
	}
	v.qmu.Lock()
	events := v.pending
	v.pending = nil
	v.qmu.Unlock()
	for i := 0; i < len(events); {
		m := events[i]
		if m.Seq <= v.seq {
			i++ // already covered by a (re)materialized snapshot
			continue
		}
		if m.Retract {
			// Push the rest back for install(); the retract itself is
			// consumed (its only meaning is "state is now invalid").
			v.qmu.Lock()
			v.pending = append(append([]olap.ViewMutation(nil), events[i+1:]...), v.pending...)
			v.qmu.Unlock()
			v.markDirtyLocked()
			return
		}
		// Batch the run of consecutive appends into one partial.
		j := i
		rows := make([]record.Row, 0, len(events)-i)
		for j < len(events) && !events[j].Retract {
			if events[j].Seq > v.seq {
				rows = append(rows, events[j].Row)
			}
			j++
		}
		p, err := olap.PartialOfRows(v.reg.schema, rows, v.q)
		if err != nil {
			v.qmu.Lock()
			v.pending = append(append([]olap.ViewMutation(nil), events[j:]...), v.pending...)
			v.qmu.Unlock()
			v.markDirtyLocked()
			return
		}
		v.state.Merge(p)
		v.seq = events[j-1].Seq
		v.snap = nil
		v.reg.rowsMerged.Add(int64(len(rows)))
		i = j
	}
}

// install adopts a materialized partial taken at snapGen: queued events at
// or below snapGen are already inside it; appends above it replay; a
// retraction above it means the snapshot is stale too — report false so the
// worker loops. fromRemat marks the re-materialization worker, which owns
// the rematOn flag.
func (v *View) install(p *olap.Partial, snapGen int64, fromRemat bool) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.qmu.Lock()
	if v.state != nil {
		// Someone already made the view consistent (e.g. Register's initial
		// materialize racing the worker); the live state is at least as new
		// as any snapshot still in flight plus its replayed appends.
		if fromRemat {
			v.rematOn = false
		}
		v.qmu.Unlock()
		return true
	}
	filtered := v.pending[:0:0]
	stillRetract := false
	for _, m := range v.pending {
		if m.Seq <= snapGen {
			continue
		}
		if m.Retract {
			stillRetract = true
		}
		filtered = append(filtered, m)
	}
	v.pending = filtered
	if stillRetract {
		v.qmu.Unlock()
		return false
	}
	if fromRemat {
		v.rematOn = false
	}
	v.dirtyAt = time.Time{}
	v.qmu.Unlock()
	v.state = p
	v.seq = snapGen
	v.snap = nil
	// Replay the appends that landed after the snapshot.
	v.applyPendingLocked()
	return true
}

// rematMaxRetries bounds the worker's retry loop against persistent
// materialization errors (e.g. every replica of a segment down). The view
// stays dirty — the broker keeps falling through to normal execution, which
// surfaces the same error to callers — and the next retraction re-kicks the
// worker.
const rematMaxRetries = 50

// rematerialize is the background worker that restores a view after a
// retraction: execute the shape cold, reconcile by seq, retry if another
// retraction landed mid-materialize.
func (v *View) rematerialize() {
	r := v.reg
	//lint:ignore ctxflow a re-materialization outlives the mutation that starts it; rematMaxRetries, not a caller, ends it
	ctx := context.Background()
	errs := 0
	for {
		r.remats.Add(1)
		p, snapGen, err := r.cold.MaterializePartial(ctx, v.req)
		if err != nil {
			errs++
			if errs >= rematMaxRetries {
				v.qmu.Lock()
				v.rematOn = false
				v.qmu.Unlock()
				return
			}
			time.Sleep(time.Duration(errs) * time.Millisecond)
			continue
		}
		if v.install(p, snapGen, true) {
			return
		}
	}
}
