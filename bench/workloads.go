package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/fedsql"
)

// workload is one of the benchmark's four traffic mixes. why is the reason
// it exists, copied into BENCHMARK.json.
type workload struct {
	name string
	why  string
	size sizing
	// loadBatch is the produce batch of the preload.
	loadBatch int
	// warmOps is the untimed warm-up, in ops.
	warmOps int
	// tailQ is the quantile op.tail_ms reports: the highest of p99, p95 and
	// p90 that a run of this workload leaves at least ten samples beyond.
	tailQ float64
	// shapes are checked against the reference after quiescence and, with
	// checkEveryOp (read-only workloads), on every pass.
	shapes       []shape
	checkEveryOp bool
	// run drives the timed phase for d (or, when ops > 0, for that many
	// ops: the warm-up) and logs every op into rc.
	run func(rc *runCtx, d time.Duration, ops int)
}

// scaled shrinks a workload's data for the harness tests.
func (w workload) scaled(f float64) workload {
	w.size.preloadRows = int64(float64(w.size.preloadRows)*f) / 1000 * 1000
	w.size.retainRows = int64(float64(w.size.retainRows)*f) / 1000 * 1000
	w.size.dayRows = int64(float64(w.size.dayRows) * f)
	w.warmOps = 2
	return w
}

var workloads = []workload{
	{
		name:      "fresh_paced",
		why:       "Freshness path at ~10 % utilisation (open loop, 100 batches/s x 100 rows): the 1 ms sleep-polls between stream, flow and OLAP ingest dominate and the query path does almost nothing.",
		size:      sizing{preloadRows: 160_000, retainRows: 80_000, dayRows: 1000},
		loadBatch: 500, warmOps: 50, tailQ: 0.99, shapes: ingestShapes,
		run: runFresh,
	},
	{
		name:      "ingest_drain",
		why:       "The same layers driven for throughput (closed loop, 8 x 500-row batches in flight): codec, per-row Ingest, seal, P2P backup, windows; a change that helps one ingest workload and hurts the other shows.",
		size:      sizing{preloadRows: 160_000, retainRows: 80_000, dayRows: 1000},
		loadBatch: 500, warmOps: 100, tailQ: 0.99, shapes: ingestShapes,
		run: runDrain,
	},
	{
		name:      "dash_mixed",
		why:       "Reads beside writes: a dashboard page (four short indexed queries, result cache on) due 5 times a second while 5 000 rows/s are ingested; parse/plan/route/merge cost, invalidation, consuming scans.",
		size:      sizing{preloadRows: 160_000, retainRows: 80_000, dayRows: 1000, cached: true},
		loadBatch: 500, warmOps: 5, tailQ: 0.90, shapes: dashShapes,
		run: runDash,
	},
	{
		name:      "adhoc_scan",
		why:       "Read-only full scans, cache off: top-10 over 5 000 groups, federated join, archive scan with engine-side aggregation, two-dimension group-by; segment kernels and fedsql work, stream/flow do none.",
		size:      sizing{preloadRows: 120_000, dayRows: 15_000},
		loadBatch: 500, warmOps: 5, tailQ: 0.90, shapes: adhocShapes, checkEveryOp: true,
		run: runAdhoc,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opLog collects what the timed phase observed. Ops are logged from the
// goroutine that completes them (the watcher for produce ops, the client
// for query ops), hence the lock.
type opLog struct {
	mu        sync.Mutex
	latMs     []float64
	attempted int64
	failed    int64
	errs      []error // first few failures, for the report

	// Traced detail.
	shapeMs   map[string][]float64
	hopAckMs  []float64
	hopFlowMs []float64
	hopOlapMs []float64
	lateMs    []float64 // how late the open-loop generator issued each op
	query     fedsql.QueryStats
	peakKB    float64
}

func newOpLog() *opLog { return &opLog{shapeMs: map[string][]float64{}} }

// fail logs an op that was attempted and failed.
func (l *opLog) fail(err error) {
	l.mu.Lock()
	l.attempted++
	l.failed++
	if len(l.errs) < 5 {
		l.errs = append(l.errs, err)
	}
	l.mu.Unlock()
}

// runCtx is what a workload's run function works with.
type runCtx struct {
	w   workload
	p   *pipeline
	log *opLog
	// refs holds the reference answers over the preload, for the workload
	// that checks every pass (nil otherwise).
	refs   *references
	nextOp int64
}

// produceOp produces one batch as op and hands it to the watcher. due is
// when the op was due; for a closed loop that is now.
func (rc *runCtx) produceOp(due time.Time, rows int) error {
	p := rc.p
	p.w.acquire()
	op := rc.nextOp
	rc.nextOp++
	span := int32(-1)
	if p.tr != nil {
		span = p.tr.begin("op", -1, op)
		p.target.parent, p.target.op = span, op
	}
	first := p.nextRow
	end, err := p.produce(rows)
	if err != nil {
		return err
	}
	p.w.submit(pending{op: op, span: span, firstRow: first, due: due, acked: time.Now(), endPassed: end})
	return nil
}

// onLanded logs a produce op when the watcher reports it visible.
func (rc *runCtx) onLanded(l landed) {
	log := rc.log
	if rc.p.tr != nil {
		rc.p.tr.end(l.span)
	}
	if !l.ok {
		log.fail(fmt.Errorf("op %d: not visible after %v", l.op, opTimeout))
		return
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	log.attempted++
	log.latMs = append(log.latMs, ms(l.visible.Sub(l.due)))
	log.hopAckMs = append(log.hopAckMs, ms(l.acked.Sub(l.due)))
	log.hopFlowMs = append(log.hopFlowMs, ms(l.inClean.Sub(l.acked)))
	log.hopOlapMs = append(log.hopOlapMs, ms(l.visible.Sub(l.inClean)))
}

// pace is the open-loop producer: one batch of rows due every interval,
// each handed to the watcher timed from the moment it was due, until done
// says so; then it waits for the batches still in flight.
func (rc *runCtx) pace(rows int, interval time.Duration, done func(k int, sinceStart time.Duration) bool) {
	fn := rc.onLanded
	rc.p.w.onDone.Store(&fn)
	start := time.Now()
	for k := 0; !done(k, time.Duration(k)*interval); k++ {
		due := start.Add(time.Duration(k) * interval)
		sleepUntil(due)
		rc.log.mu.Lock()
		rc.log.lateMs = append(rc.log.lateMs, ms(time.Since(due)))
		rc.log.mu.Unlock()
		if err := rc.produceOp(due, rows); err != nil {
			rc.log.fail(err)
			break
		}
	}
	rc.p.w.drain()
}

// runFresh is fresh_paced: a 100-row batch every 10 ms, and in the timed
// phase a second goroutine that asks the table once a second for a batch
// that landed a second ago.
func runFresh(rc *runCtx, d time.Duration, ops int) {
	const rows, interval = 100, 10 * time.Millisecond
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if ops == 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc.probeLoop(stop, rows)
		}()
	}
	rc.pace(rows, interval, func(k int, sinceStart time.Duration) bool {
		if ops > 0 {
			return k >= ops
		}
		return sinceStart >= d
	})
	close(stop)
	wg.Wait()
}

// probeLoop confirms once a second, with a real query, that a batch the
// watcher reported visible a second ago is fully in the table. Batches are
// aligned to event time (rows rows span rows/rowsPerMs ms), so the batch is
// exactly one ts range.
func (rc *runCtx) probeLoop(stop <-chan struct{}, rows int) {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	first := int64(-1) // first row of the batch to probe
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		if first >= 0 {
			var want int64
			for i := first; i < first+int64(rows); i++ {
				if passes(rc.p.row(i)) {
					want++
				}
			}
			sql := fmt.Sprintf("SELECT COUNT(*) AS n FROM pinot.orders WHERE ts >= %d AND ts <= %d",
				eventTime(first), eventTime(first+int64(rows)-1))
			res, err := rc.p.plat.SQL.Query(sql)
			switch {
			case err != nil:
				rc.log.fail(fmt.Errorf("probe: %w", err))
			case len(res.Rows) != 1 || res.Rows[0][0] != want:
				rc.log.fail(fmt.Errorf("probe: batch at row %d has %v rows visible, want %d", first, res.Rows, want))
			default:
				rc.log.mu.Lock()
				rc.log.attempted++
				rc.log.mu.Unlock()
			}
		}
		// Next second's target: the newest batch known visible now.
		first = rc.p.w.lastLanded.Load()
	}
}

// runDrain is the closed loop: the produce window is kept full of 500-row
// batches, each timed from produce to visible.
func runDrain(rc *runCtx, d time.Duration, ops int) {
	fn := rc.onLanded
	rc.p.w.onDone.Store(&fn)
	start := time.Now()
	for k := 0; (ops == 0 && time.Since(start) < d) || k < ops; k++ {
		if err := rc.produceOp(time.Now(), 500); err != nil {
			rc.log.fail(err)
			break
		}
	}
	rc.p.w.drain()
}

// The dashboard: pages due every 200 ms (5 a second), beside a background
// ingest of 5 000 rows/s as 200 batches of 25.
//
// Open loop. A page costs ten times more just before a seal (two consuming
// segments of 25 000 rows, scanned row by row: 80 ms) than just after one
// (9 ms). A closed-loop client loads 100 pages a second in the cheap part
// of that cycle and 12 in the dear part, so every per-op average weighted
// the cycle by how fast the machine happened to be in each part: on one
// seed, 23-39 pages/s and 166k-230k allocations per page. Pages on a clock
// sample the cycle evenly in time, as independent viewers of a dashboard
// would, and are timed from the moment they were due.
//
// The ingest cadence. At 20 batches a second the table sat unchanged for
// most of every 50 ms, pages that fell between two batches were served from
// the result cache in 3 ms and the rest took 25 ms — two modes. A batch
// every 5 ms invalidates every entry before its panel comes round again, so
// every page is a miss.
//
// The rates. At 2 000 rows/s a partition takes 29 s to fill a segment and a
// run sees less than one seal cycle; at 5 000 rows/s the cycle is 12 s and a
// run covers most of two. At 8 pages a second a page due just before a seal
// (over 125 ms on a slow day) queued behind its predecessor, the median
// latency took in the backlog and identical runs spread by 0.26; at 5 a
// second pages do not queue and the median is the median cost of a page.
const (
	dashPageEvery = 200 * time.Millisecond
	dashInterval  = 5 * time.Millisecond
	dashRows      = 25
)

// runDash is the dashboard clock loading pages while a paced producer
// ingests in the background. Only page loads are ops; a produced batch that
// never lands still counts as a failure.
func runDash(rc *runCtx, d time.Duration, ops int) {
	ingest := &runCtx{w: rc.w, p: rc.p, log: newOpLog(), nextOp: 1 << 40}
	var wg sync.WaitGroup
	stopIngest := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		ingest.pace(dashRows, dashInterval, func(int, time.Duration) bool {
			select {
			case <-stopIngest:
				return true
			default:
				return false
			}
		})
	}()
	rc.queryLoop(d, ops, dashPageEvery)
	close(stopIngest)
	wg.Wait()
	rc.log.mu.Lock()
	rc.log.failed += ingest.log.failed
	rc.log.attempted += ingest.log.failed
	rc.log.errs = append(rc.log.errs, ingest.log.errs...)
	rc.log.lateMs = append(rc.log.lateMs, ingest.log.lateMs...)
	rc.log.hopAckMs = append(rc.log.hopAckMs, ingest.log.hopAckMs...)
	rc.log.hopFlowMs = append(rc.log.hopFlowMs, ingest.log.hopFlowMs...)
	rc.log.hopOlapMs = append(rc.log.hopOlapMs, ingest.log.hopOlapMs...)
	rc.log.mu.Unlock()
}

// runAdhoc is one analyst running passes over the four scan shapes, each
// answer checked against the reference.
func runAdhoc(rc *runCtx, d time.Duration, ops int) { rc.queryLoop(d, ops, 0) }

// queryLoop runs passes over the workload's shapes for d (or for ops
// passes): back to back when every is 0, else one pass due every interval.
// A pass is the op. Closed loop, its latency is the sum of its queries; on
// a clock, it runs from the moment the pass was due. It fails if any query
// errors, times out or — on workloads that check every op — answers
// wrongly.
func (rc *runCtx) queryLoop(d time.Duration, ops int, every time.Duration) {
	p, log := rc.p, rc.log
	checked := rc.w.checkEveryOp
	start := time.Now()
	finished := func(k int, due time.Time) bool {
		switch {
		case ops > 0:
			return k >= ops
		case every > 0:
			return due.Sub(start) >= d
		default:
			return time.Since(start) >= d
		}
	}
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * every)
		if finished(k, due) {
			break
		}
		if every > 0 {
			sleepUntil(due)
			log.mu.Lock()
			log.lateMs = append(log.lateMs, ms(time.Since(due)))
			log.mu.Unlock()
		}
		op := rc.nextOp
		rc.nextOp++
		opSpan := int32(-1)
		if p.tr != nil {
			opSpan = p.tr.begin("op", -1, op)
		}
		var pass time.Duration
		var failure error
		for _, s := range rc.w.shapes {
			sql := s.sql(p, 0)
			ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
			qSpan := int32(-1)
			if p.tr != nil {
				qSpan = p.tr.begin("fedsql.query", opSpan, op)
				ctx = withSpan(ctx, qSpan, op)
			}
			qStart := time.Now()
			res, err := p.plat.SQL.QueryCtx(ctx, sql)
			took := time.Since(qStart)
			if p.tr != nil {
				p.tr.end(qSpan)
			}
			cancel()
			pass += took
			if err == nil && checked {
				err = check(rc.refs.queries[s.name], rc.refs.answers[s.name], res.Columns, res.Rows)
			}
			if err != nil {
				failure = fmt.Errorf("op %d %s: %w", op, s.name, err)
				break
			}
			log.mu.Lock()
			log.shapeMs[s.name] = append(log.shapeMs[s.name], ms(took))
			log.query.Merge(res.Stats)
			if kb := float64(res.Stats.PeakEngineBytes) / 1024; kb > log.peakKB {
				log.peakKB = kb
			}
			log.mu.Unlock()
		}
		if p.tr != nil {
			p.tr.end(opSpan)
		}
		if failure != nil {
			log.fail(failure)
			continue
		}
		if every > 0 {
			pass = time.Since(due)
		}
		log.mu.Lock()
		log.attempted++
		log.latMs = append(log.latMs, ms(pass))
		log.mu.Unlock()
	}
}
