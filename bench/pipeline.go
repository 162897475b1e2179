package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fedsql"
	"repro/internal/flinksql"
	"repro/internal/flow"
	"repro/internal/metadata"
	"repro/internal/objstore"
	"repro/internal/olap"
	"repro/internal/olap/lifecycle"
	"repro/internal/record"
	"repro/internal/sqlparse"
	"repro/internal/stream"
)

const (
	useCase     = "bench"
	topicRaw    = "raw_orders"
	topicClean  = "orders"
	jobClean    = "clean"
	jobWindow   = "city_window"
	segmentRows = 25_000

	// topicRetention bounds each partition's log. Unbounded, the drain
	// workload's heap reached 2 GB and throughput drifted 20 % between
	// runs. At 8 MiB a partition holds ~40k messages — ten times what the
	// produce window lets be in flight — and both topics are full, so the
	// heap is at its plateau, once 100k rows have been produced.
	topicRetention = 8 << 20

	// produceWindow is the number of batches a producer may have produced
	// but not yet seen query-visible. With retention on and an unthrottled
	// producer, retention outran the clean job and rows were lost; every
	// producer here is windowed and every workload asserts zero loss.
	produceWindow = 8

	// sweepEvery is the retention cadence in produced rows: sweeps are
	// driven by the producer, not a timer, so they fall at the same points
	// of every run.
	sweepEvery = 20_000

	// pollEvery is the visibility watcher's nominal poll interval. What it
	// achieves is reported as gen.watch_resolution_us and is nearer 1 ms:
	// the runtime's timers wake a process with an idle core through a
	// netpoll wait rounded up to a millisecond. Sleeping in
	// the kernel instead did give ~0.5 ms, but 5 000 thread wake-ups a
	// second halved the drain workload's throughput (220 -> 90-140
	// batches/s), so the watcher stays on the runtime's timers.
	pollEvery = 200 * time.Microsecond

	// opTimeout fails an op that is not visible (or answered) in time.
	opTimeout = 5 * time.Second

	// flushJumpMs is how far past the last row the closing flush batch is
	// stamped, so that every window holding real rows fires.
	flushJumpMs = 60_000
	flushRows   = 100

	cleanSQL  = "SELECT order_id, restaurant_id, city, status, amount, ts FROM " + topicRaw + " WHERE status != '" + droppedStatus + "'"
	windowSQL = "SELECT city, COUNT(*) AS n FROM " + topicClean + " GROUP BY city, TUMBLE(ts, 1000)"
)

// sizing is what differs between workloads in the common set-up.
type sizing struct {
	// preloadRows go through the whole pipeline before anything is timed.
	preloadRows int64
	// retainRows is the table's event-time retention, expressed in rows of
	// the raw stream (0 keeps everything). The preload exceeds it by more
	// than two segments, so the table is at its plateau when timing starts.
	retainRows int64
	// dayRows is the size of the archived hive.orders_day.
	dayRows int64
	// cached registers a second Pinot catalog with the broker result cache
	// on and routes the workload's queries through it.
	cached bool
}

// pipeline is the Fig 2 wiring every workload runs against: one stream
// cluster, the platform with two OLAP servers, the raw and clean streams,
// the two streaming SQL jobs, the OLAP table with event-time retention and
// the two archive tables.
type pipeline struct {
	size    sizing
	g       *gen
	tr      *tracer // nil in untraced runs
	cluster *stream.Cluster
	plat    *core.Platform
	store   objstore.Store
	table   *olap.Deployment
	life    *lifecycle.Manager
	catalog string // Pinot catalog the workload's queries name
	codec   *record.Codec
	prod    *stream.Producer
	target  *tracedTarget // nil in untraced runs

	// Producer state, owned by the one producing goroutine.
	nextRow    int64
	passed     int64
	sinceSweep int64
	flushFrom  int64 // first row of the closing flush batch, -1 before it
	sweepMs    []float64
	genNs      int64 // traced runs: time spent generating and encoding rows

	// eventNow is the event time of the newest produced row: the retention
	// clock, and what "the last N seconds" means to the dashboard.
	eventNow atomic.Int64
	// safeFrom is the newest retention cutoff any sweep used. Rows at or
	// after it can never have been in an expired segment, so the reference
	// check restricts itself to them.
	safeFrom atomic.Int64

	windowRows    atomic.Int64 // sum of the counts city_window emitted
	windowResults atomic.Int64
	lateMu        sync.Mutex
	lateOps       []*tracedOp // traced runs: window operators, for late counts

	sentMu    sync.Mutex
	sent      []sentBatch // traced runs: when each batch was produced
	emitLagMs []float64   // traced runs: window close → result, under sentMu

	w *watcher
}

type sentBatch struct {
	firstRow int64
	at       time.Time
}

// newPipeline builds and starts the wiring; nothing is produced yet.
func newPipeline(g *gen, size sizing, tr *tracer) (*pipeline, error) {
	p := &pipeline{size: size, g: g, tr: tr, flushFrom: -1, catalog: "pinot"}
	var err error
	p.cluster, err = stream.NewCluster(stream.ClusterConfig{Name: "main", Nodes: 1})
	if err != nil {
		return nil, err
	}
	p.store = objstore.NewMemStore()
	if tr != nil {
		p.store = &tracedStore{inner: p.store, t: tr}
	}
	p.plat, err = core.NewPlatform(core.Config{Clusters: []*stream.Cluster{p.cluster}, Storage: p.store, OLAPServers: 2})
	if err != nil {
		p.cluster.Close()
		return nil, err
	}
	if err := p.wire(); err != nil {
		p.close()
		return nil, err
	}
	p.w = startWatcher(p)
	return p, nil
}

func (p *pipeline) wire() error {
	topic := stream.TopicConfig{Partitions: 2, RetentionBytes: topicRetention}
	var err error
	if p.codec, err = p.plat.CreateStream(useCase, ordersSchema(topicRaw), topic); err != nil {
		return err
	}
	cleanCodec, err := p.plat.CreateStream(useCase, ordersSchema(topicClean), topic)
	if err != nil {
		return err
	}
	p.table, err = p.plat.CreateOLAPTable(useCase, olap.TableConfig{
		Name:        topicClean,
		SegmentRows: segmentRows,
		Indexes:     olap.IndexConfig{InvertedColumns: []string{"city", "status"}},
	}, topicClean, olap.BackupP2P)
	if err != nil {
		return err
	}
	life := lifecycle.Config{DeleteExpiredArchives: true, Now: func() time.Time { return time.UnixMilli(p.eventNow.Load()) }}
	if p.size.retainRows > 0 {
		life.Retention = time.Duration(p.size.retainRows/rowsPerMs) * time.Millisecond
	}
	p.life = lifecycle.New(p.table, life)

	if err := p.deploySQL(jobClean, cleanSQL, flow.NewTopicSink(p.plat.Streams, topicClean, cleanCodec)); err != nil {
		return err
	}
	if err := p.deploySQL(jobWindow, windowSQL, &flow.FuncSink{Fn: p.onWindow}); err != nil {
		return err
	}

	var target stream.ProducerTarget = p.plat.Streams
	if p.tr != nil {
		p.target = &tracedTarget{inner: target, t: p.tr, parent: -1, op: -1}
		target = p.target
	}
	p.prod = stream.NewProducer(target, "bench-producer", "", nil)

	hive := fedsql.NewArchiveConnector("hive", p.store)
	if err := p.archive(hive, restaurantsSchema(), numRestaurants, p.g.restaurant); err != nil {
		return err
	}
	day := func(i int64) record.Record { return p.g.order(streamDay, i) }
	if err := p.archive(hive, ordersSchema("orders_day"), p.size.dayRows, day); err != nil {
		return err
	}
	p.register(hive)
	if p.size.cached {
		cached := fedsql.NewPinotConnector("pinotc")
		cached.CacheMaxBytes = 64 << 20
		cached.AddTable(p.table)
		p.register(cached)
		p.catalog = "pinotc"
	} else if p.tr != nil {
		// The platform's own Pinot catalog is reachable only through the
		// engine, so the traced run re-registers an identical one wrapped.
		plain := fedsql.NewPinotConnector("pinot")
		plain.AddTable(p.table)
		p.register(plain)
	}
	return nil
}

// register adds a catalog to the platform's SQL engine, wrapped in traced
// runs. Registering an existing name replaces it.
func (p *pipeline) register(c fedsql.Connector) {
	if p.tr != nil {
		c = traceConnector(c, p.tr)
	}
	p.plat.SQL.Register(c)
}

// deploySQL deploys a streaming SQL job. Untraced runs go through
// Platform.DeployStreamingSQL. Traced runs build the same job from the same
// compiled plan through Platform.DeployJob, with the source, every operator
// and the sink wrapped.
func (p *pipeline) deploySQL(job, sql string, sink flow.Sink) error {
	if p.tr == nil {
		return p.plat.DeployStreamingSQL(useCase, job, sql, sink)
	}
	return p.plat.DeployJob(useCase, job, func(parallelism int) (*flow.Job, error) {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			return nil, err
		}
		plan, err := flinksql.Compile(stmt, parallelism)
		if err != nil {
			return nil, err
		}
		codec, err := p.plat.Codec(plan.Table)
		if err != nil {
			return nil, err
		}
		cluster, err := p.plat.Streams.Lookup(plan.Table)
		if err != nil {
			return nil, err
		}
		src, err := flow.NewStreamSource(cluster, plan.Table, codec, flow.StreamSourceConfig{TimeField: plan.TimeColumn})
		if err != nil {
			return nil, err
		}
		for i := range plan.Stages {
			build := plan.Stages[i].New
			plan.Stages[i].New = func() flow.Operator {
				op := &tracedOp{inner: build(), t: p.tr}
				if _, ok := op.inner.(lateCounter); ok {
					p.lateMu.Lock()
					p.lateOps = append(p.lateOps, op)
					p.lateMu.Unlock()
				}
				return op
			}
		}
		return flow.NewJob(flow.JobSpec{
			Name:            job,
			Sources:         []flow.SourceSpec{{Name: plan.Table, Source: &tracedSource{inner: src, t: p.tr}}},
			Stages:          plan.Stages,
			Sink:            flow.SinkSpec{Sink: &tracedSink{inner: sink, t: p.tr}},
			CheckpointStore: p.plat.Storage,
		})
	})
}

// archive writes n rows as raw logs, compacts them into one columnar part
// and registers the dataset with the hive catalog.
func (p *pipeline) archive(hive *fedsql.ArchiveConnector, schema *metadata.Schema, n int64, row func(int64) record.Record) error {
	codec, err := record.NewCodec(schema)
	if err != nil {
		return err
	}
	w := objstore.NewRawLogWriter(p.store, schema.Name, codec)
	const chunk = 5000
	for from := int64(0); from < n; from += chunk {
		rows := make([]record.Record, 0, chunk)
		for i := from; i < from+chunk && i < n; i++ {
			rows = append(rows, row(i))
		}
		if err := w.Append(rows); err != nil {
			return err
		}
	}
	if _, err := objstore.NewCompactor(p.store, schema.Name, codec).Compact(); err != nil {
		return err
	}
	hive.AddTable(schema.Name, schema)
	return nil
}

// onWindow is city_window's sink: it adds up the emitted counts and, in
// traced runs, measures how long after the window's last row was produced
// the result came out.
func (p *pipeline) onWindow(e flow.Event) error {
	p.windowRows.Add(e.Data.Long("n"))
	p.windowResults.Add(1)
	if p.tr == nil || !p.tr.on.Load() {
		return nil
	}
	// The window [start, end) could close once a row stamped >= end was
	// produced; find when that row's batch went out.
	closer := (e.Data.Long("window_end") - eventT0) * rowsPerMs
	p.sentMu.Lock()
	defer p.sentMu.Unlock()
	i := sort.Search(len(p.sent), func(i int) bool { return p.sent[i].firstRow > closer }) - 1
	if i >= 0 {
		p.emitLagMs = append(p.emitLagMs, ms(time.Since(p.sent[i].at)))
	}
	return nil
}

// tsOf is the event time the pipeline stamps on row i: the generator's,
// except that the closing flush batch jumps ahead — all of it to one
// instant, so that no flush row can be late relative to another and the
// late count stays a count of real rows.
func (p *pipeline) tsOf(i int64) int64 {
	if p.flushFrom >= 0 && i >= p.flushFrom {
		return eventTime(p.flushFrom) + flushJumpMs
	}
	return eventTime(i)
}

// row is row i as produced (and as the reference evaluator regenerates it).
func (p *pipeline) row(i int64) record.Record {
	r := p.g.liveOrder(i)
	r["ts"] = p.tsOf(i)
	return r
}

// produce generates, encodes and publishes the next n rows and returns the
// cumulative number of produced rows the clean job keeps — the table's
// ingested count at which this batch is fully query-visible.
func (p *pipeline) produce(n int) (int64, error) {
	msgs := make([]stream.Message, n)
	var ts int64
	genStart := time.Now()
	for k := range msgs {
		r := p.row(p.nextRow + int64(k))
		if passes(r) {
			p.passed++
		}
		payload, err := p.codec.Encode(r)
		if err != nil {
			return 0, err
		}
		ts = r.Long("ts")
		msgs[k] = stream.Message{Value: payload, Timestamp: ts}
	}
	if p.tr != nil && p.tr.on.Load() {
		now := time.Now()
		p.genNs += int64(now.Sub(genStart))
		p.sentMu.Lock()
		p.sent = append(p.sent, sentBatch{firstRow: p.nextRow, at: now})
		p.sentMu.Unlock()
	}
	p.nextRow += int64(n)
	if p.flushFrom < 0 {
		p.eventNow.Store(ts)
	}
	if err := p.prod.ProduceBatch(topicRaw, msgs); err != nil {
		return 0, err
	}
	p.sinceSweep += int64(n)
	if p.size.retainRows > 0 && p.sinceSweep >= sweepEvery {
		p.sinceSweep = 0
		start := time.Now()
		p.life.Sweep()
		p.sweepMs = append(p.sweepMs, ms(time.Since(start)))
		p.safeFrom.Store(ts - p.size.retainRows/rowsPerMs)
	}
	return p.passed, nil
}

// load pushes rows through the pipeline as fast as the produce window
// allows and waits until all of them are query-visible.
func (p *pipeline) load(rows int64, batch int) error {
	for done := int64(0); done < rows; done += int64(batch) {
		p.w.acquire()
		now := time.Now()
		end, err := p.produce(batch)
		if err != nil {
			return err
		}
		p.w.submit(pending{op: -1, span: -1, due: now, acked: time.Now(), endPassed: end})
	}
	if lost := p.w.drain(); lost > 0 {
		return fmt.Errorf("load: %d batches never became visible", lost)
	}
	return nil
}

// lateEvents is the number of rows city_window dropped as late.
func (p *pipeline) lateEvents() int64 {
	if p.tr == nil {
		st, err := p.plat.Jobs.Status(jobWindow)
		if err != nil {
			return 0
		}
		return st.Metrics.LateEvents
	}
	p.lateMu.Lock()
	defer p.lateMu.Unlock()
	var n int64
	for _, op := range p.lateOps {
		n += op.late.Load()
	}
	return n
}

// quiesce ends production: it sends the flush batch that closes every
// window holding real rows and waits until the table and city_window have
// caught up. The error reports rows that went missing on either path.
func (p *pipeline) quiesce() error {
	realPassed := p.passed
	p.flushFrom = p.nextRow
	if _, err := p.produce(flushRows); err != nil {
		return err
	}
	deadline := time.Now().Add(2 * opTimeout)
	var ingested, windowed int64
	for {
		ingested, _, _ = p.table.Stats()
		windowed = p.windowRows.Load() + p.lateEvents()
		if (ingested == p.passed && windowed == realPassed) || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	p.table.WaitUploads()
	if ingested != p.passed || windowed != realPassed {
		return fmt.Errorf("rows lost: clean job kept %d rows, table ingested %d; city_window counted %d (%d late) of %d",
			p.passed, ingested, windowed, p.lateEvents(), realPassed)
	}
	return nil
}

// close stops everything the pipeline started.
func (p *pipeline) close() {
	if p.w != nil {
		p.w.stop()
	}
	p.plat.Close()
	if p.table != nil {
		p.table.WaitUploads()
	}
	p.cluster.Close()
}

// ---- visibility watcher ----

// pending is one produced batch waiting to become query-visible.
type pending struct {
	op        int64
	span      int32     // the op's span in traced runs, else -1
	firstRow  int64     // index of the batch's first row
	due       time.Time // when the op was due (open loop) or started (closed loop)
	acked     time.Time // when ProduceBatch returned
	endPassed int64     // table ingested count at which the batch is fully visible
}

// landed is what the watcher reports for a batch.
type landed struct {
	pending
	inClean time.Time // all its rows were in the clean stream
	visible time.Time // all its rows were in the table
	ok      bool      // false: not visible within opTimeout
}

// watcher polls the table's ingested count and completes pending batches in
// order. It owns the produce window: acquire blocks while produceWindow
// batches are unacknowledged, where acknowledged means query-visible.
type watcher struct {
	p      *pipeline
	slots  chan struct{}
	in     chan pending
	done   chan struct{}
	onDone atomic.Pointer[func(landed)]

	outstanding atomic.Int64
	lost        atomic.Int64
	// lastLanded is the first row of the newest batch seen visible.
	lastLanded atomic.Int64

	// Harness and lag figures for the traced run.
	polls, pollNs              atomic.Int64
	sourceLagMax, ingestLagMax atomic.Int64
	sampleLag                  atomic.Bool
}

func startWatcher(p *pipeline) *watcher {
	w := &watcher{
		p:     p,
		slots: make(chan struct{}, produceWindow),
		// in is sized to the window: a producer holding a slot never
		// blocks on submit.
		in:   make(chan pending, produceWindow),
		done: make(chan struct{}),
	}
	go w.run()
	return w
}

func (w *watcher) acquire() { w.slots <- struct{}{} }

func (w *watcher) submit(pd pending) {
	w.outstanding.Add(1)
	w.in <- pd
}

// drain waits until every submitted batch has landed or timed out and
// returns how many timed out since the last drain.
func (w *watcher) drain() int64 {
	for w.outstanding.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
	return w.lost.Swap(0)
}

func (w *watcher) stop() {
	close(w.in)
	<-w.done
}

func (w *watcher) run() {
	defer close(w.done)
	type item struct {
		pending
		inClean time.Time
	}
	var queue []item
	clean := [2]stream.TopicPartition{{Topic: topicClean, Partition: 0}, {Topic: topicClean, Partition: 1}}
	for {
		if len(queue) == 0 {
			pd, ok := <-w.in
			if !ok {
				return
			}
			queue = append(queue, item{pending: pd})
		}
	more:
		for {
			select {
			case pd, ok := <-w.in:
				if !ok {
					return
				}
				queue = append(queue, item{pending: pd})
			default:
				break more
			}
		}
		pollStart := time.Now()
		ingested, _, _ := w.p.table.Stats()
		var cleanHigh int64
		for _, tp := range clean {
			_, high, _ := w.p.cluster.Watermarks(tp)
			cleanHigh += high
		}
		now := time.Now()
		for i := range queue {
			if queue[i].inClean.IsZero() && cleanHigh >= queue[i].endPassed {
				queue[i].inClean = now
			}
		}
		for len(queue) > 0 {
			head := queue[0]
			visible := ingested >= head.endPassed
			if !visible && now.Sub(head.acked) < opTimeout {
				break
			}
			if visible {
				w.lastLanded.Store(head.firstRow)
			} else {
				w.lost.Add(1)
			}
			if fn := w.onDone.Load(); fn != nil {
				(*fn)(landed{pending: head.pending, inClean: head.inClean, visible: now, ok: visible})
			}
			queue = queue[1:]
			w.outstanding.Add(-1)
			<-w.slots
		}
		if w.sampleLag.Load() {
			if lag := cleanHigh - ingested; lag > w.ingestLagMax.Load() {
				w.ingestLagMax.Store(lag)
			}
			if w.polls.Load()%25 == 0 {
				if st, err := w.p.plat.Jobs.Status(jobClean); err == nil && st.Metrics.SourceLag > w.sourceLagMax.Load() {
					w.sourceLagMax.Store(st.Metrics.SourceLag)
				}
			}
		}
		if len(queue) > 0 {
			time.Sleep(pollEvery)
			w.polls.Add(1)
			w.pollNs.Add(int64(time.Since(pollStart)))
		}
	}
}
