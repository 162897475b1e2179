package olap

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/obs"
)

// Streaming execution: instead of gathering every server's full selection
// partial before the broker answers, ExecuteStream pulls column-major row
// batches from the servers as they are produced. The consumer sees row one
// while the slowest server is still scanning, and the broker's resident
// state is O(batches in flight), not O(result). Aggregations and ordered
// queries still need every row before the first output row is known, so
// they fall back to Execute internally and the stream chunks the finalized
// response — same contract, materialized cost.

// RowBatch is one column-major batch of streamed rows: Cols[c][r] is the
// value of Columns[c] at batch row r, nil for SQL NULL. Batches hold at
// most BatchRows rows and are pool-recycled: a batch handed out by
// QueryStream.Next is valid only until the following Next or Close call.
type RowBatch struct {
	Columns []string
	Cols    [][]any
	Len     int
}

// Row copies batch row r into a fresh row slice (for consumers that need
// rows to outlive the batch).
func (rb *RowBatch) Row(r int) []any {
	row := make([]any, len(rb.Cols))
	for c := range rb.Cols {
		row[c] = rb.Cols[c][r]
	}
	return row
}

// batchPool recycles RowBatch buffers between the segment gather kernels
// (producers) and the stream consumer, so a steady-state scan allocates no
// per-batch memory.
type batchPool struct{ p sync.Pool }

func newBatchPool() *batchPool { return &batchPool{} }

// get returns an empty batch shaped for the given columns, reusing backing
// arrays from recycled batches when available.
func (bp *batchPool) get(cols []string) *RowBatch {
	rb, _ := bp.p.Get().(*RowBatch)
	if rb == nil {
		rb = &RowBatch{}
	}
	rb.Columns = cols
	if len(rb.Cols) != len(cols) {
		rb.Cols = make([][]any, len(cols))
	}
	for ci := range rb.Cols {
		rb.Cols[ci] = rb.Cols[ci][:0]
	}
	rb.Len = 0
	return rb
}

func (bp *batchPool) put(rb *RowBatch) {
	if rb != nil {
		bp.p.Put(rb)
	}
}

// streamSelect scans this segment as column-major batches; see
// scanSet.streamSelect.
func (s *Segment) streamSelect(ctx context.Context, q *Query, valid *Bitmap, pool *batchPool, yield func(*RowBatch) bool) (ExecStats, bool, error) {
	stats, more, err := s.scan().streamSelect(ctx, q, valid, pool, yield)
	stats.SegmentsScanned = 1
	return stats, more, err
}

// streamSelect scans the set as column-major batches: the filter kernels
// produce selection vectors (newSelStream), and the gather kernel decodes
// only the selected rows of the selected columns into a pooled batch.
// Returns whether the consumer wants more (yield never returned false).
// Early termination skips the remaining windows entirely — unlike
// executeSelect there is no parity drain, so the stats cover only the work
// actually done.
func (sc *scanSet) streamSelect(ctx context.Context, q *Query, valid *Bitmap, pool *batchPool, yield func(*RowBatch) bool) (ExecStats, bool, error) {
	cols, scols, err := sc.selectColumns(q)
	if err != nil {
		return ExecStats{}, false, err
	}
	ss, err := sc.newSelStream(sc.timeFilters(q), valid)
	if err != nil {
		return ExecStats{}, false, err
	}
	var stats ExecStats
	more := true
	for sel := ss.next(); sel != nil; sel = ss.next() {
		if err := ctx.Err(); err != nil {
			stats.RowsScanned, stats.UpsertFiltered = ss.kept, ss.dropped
			return stats, false, err
		}
		rb := pool.get(cols)
		for ci, c := range scols {
			out := rb.Cols[ci][:0]
			for _, ri := range sel {
				out = append(out, c.value(int(ri)))
			}
			rb.Cols[ci] = out
		}
		rb.Len = len(sel)
		stats.RowsShipped += int64(rb.Len)
		if !yield(rb) {
			more = false
			break
		}
	}
	stats.RowsScanned, stats.UpsertFiltered = ss.kept, ss.dropped
	return stats, more, nil
}

// QueryStream is the pull-based result of Broker.ExecuteStream. Exactly
// one consumer calls Next until it returns io.EOF (or an error) and then
// Close; Close is also safe to call early (mid-stream cancellation) and
// always waits for every producer goroutine to exit before returning, so a
// closed stream leaks nothing.
type QueryStream struct {
	cols   []string
	ch     chan *RowBatch
	errc   chan error
	statsc chan ExecStats
	done   chan struct{} // closed when all producers have exited
	cancel context.CancelFunc
	pool   *batchPool

	// Consumer-side state; Next/Close are single-consumer by contract.
	prev      *RowBatch
	skip      int // OFFSET rows still to drop
	remaining int // LIMIT rows still to emit; -1 = unlimited
	stats     ExecStats
	route     RouteInfo
	trimK     int
	finished  bool
	err       error
}

// Columns reports the column order of every batch.
func (s *QueryStream) Columns() []string { return s.cols }

// Next returns the next batch of rows, io.EOF at end of stream, or the
// first producer error. The returned batch is recycled by the following
// Next or Close call.
func (s *QueryStream) Next(ctx context.Context) (*RowBatch, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.finished {
		return nil, io.EOF
	}
	if s.prev != nil {
		s.pool.put(s.prev)
		s.prev = nil
	}
	for {
		// Fail fast on a producer error even while batches are queued: the
		// query failed, partial delivery must not read as success.
		select {
		case err := <-s.errc:
			return nil, s.fail(err)
		default:
		}
		select {
		case <-ctx.Done():
			return nil, s.fail(ctx.Err())
		case rb, ok := <-s.ch:
			if !ok {
				s.shutdown()
				select {
				case err := <-s.errc:
					s.finished = true
					s.err = err
					return nil, err
				default:
				}
				s.finished = true
				return nil, io.EOF
			}
			if s.skip >= rb.Len {
				s.skip -= rb.Len
				s.pool.put(rb)
				continue
			}
			if s.skip > 0 {
				for ci := range rb.Cols {
					rb.Cols[ci] = rb.Cols[ci][s.skip:rb.Len]
				}
				rb.Len -= s.skip
				s.skip = 0
			}
			if s.remaining >= 0 {
				if rb.Len > s.remaining {
					for ci := range rb.Cols {
						rb.Cols[ci] = rb.Cols[ci][:s.remaining]
					}
					rb.Len = s.remaining
				}
				s.remaining -= rb.Len
				if rb.Len == 0 {
					// LIMIT satisfied: stop the producers and end the stream.
					s.pool.put(rb)
					s.shutdown()
					s.finished = true
					return nil, io.EOF
				}
			}
			s.prev = rb
			return rb, nil
		}
	}
}

// fail records a terminal error, tears the producers down and returns it.
func (s *QueryStream) fail(err error) error {
	s.shutdown()
	s.finished = true
	s.err = err
	return err
}

// Close cancels any remaining production, waits for every producer
// goroutine to exit, and releases the stream. Idempotent; safe mid-stream.
func (s *QueryStream) Close() error {
	if s.prev != nil {
		s.pool.put(s.prev)
		s.prev = nil
	}
	s.shutdown()
	s.finished = true
	return nil
}

// shutdown cancels producers, drains the batch channel so none of them
// stays blocked, waits for them to exit, and folds their stats in. Stats
// after an early shutdown cover only the work actually done.
func (s *QueryStream) shutdown() {
	if s.cancel == nil {
		return
	}
	s.cancel()
	s.cancel = nil
	for rb := range s.ch { // coordinator closes ch once every producer exits
		s.pool.put(rb)
	}
	<-s.done
	for {
		select {
		case st := <-s.statsc:
			s.stats.Add(st)
		default:
			return
		}
	}
}

// Stats reports the execution stats gathered so far; complete once Next
// returned io.EOF or the stream was closed. Early termination (LIMIT,
// Close) reports only the work actually done — that is the point.
func (s *QueryStream) Stats() ExecStats {
	st := s.stats
	st.ServersContacted = s.route.ServersContacted
	st.PartitionsPruned = s.route.PartitionsPruned
	return st
}

// Route reports how the streamed request was routed.
func (s *QueryStream) Route() RouteInfo { return s.route }

// TrimK mirrors QueryResponse.TrimK for the fallback path (0 on the native
// streaming path: unordered selections never trim).
func (s *QueryStream) TrimK() int { return s.trimK }

// ExecuteStream runs one typed request as a pull-based batch stream.
// Selection queries without ORDER BY stream natively: one producer per
// routed server (Server.StreamOn) plus one per routed consuming partition,
// all feeding a small bounded channel the consumer pulls from — first rows
// arrive while the slowest server is still scanning, and broker-resident
// state stays O(batches in flight). LIMIT/OFFSET apply at the consumer,
// which cancels the producers as soon as the budget is met. Aggregations
// and ordered queries cannot emit row one before seeing every input row,
// so they execute through Broker.Execute (cache, views, admission and
// trimming included) and the stream chunks the finalized rows; the native
// path bypasses cache, views and admission — a stream is consumed once,
// not shared. The caller must Close the returned stream on every path.
func (b *Broker) ExecuteStream(ctx context.Context, req *QueryRequest) (*QueryStream, error) {
	if req != nil && req.Query != nil && (len(req.Query.Aggs) > 0 || len(req.Query.OrderBy) > 0) {
		return b.materializedStream(ctx, req)
	}
	ctx, cancel, q, router, err := b.prepare(ctx, req)
	if err != nil {
		return nil, err
	}
	// The stream outlives this call: its Close (or end of stream) releases
	// both the timeout and the producers.
	ctx, stop := context.WithCancel(ctx)
	cancelAll := func() {
		stop()
		cancel()
	}
	sp, err := b.planScatter(ctx, req, q, router)
	if err != nil {
		cancelAll()
		return nil, err
	}
	plan, servers, consuming, execOpts := sp.plan, sp.servers, sp.consuming, sp.opts
	cols := q.Select
	if len(cols) == 0 {
		cols = selectable(sp.snapshot.schema)
	}

	units := len(servers) + len(consuming)
	qs := &QueryStream{
		cols: append([]string(nil), cols...),
		// A small buffer decouples producers from the consumer without
		// re-materializing the result in channel slack.
		ch:        make(chan *RowBatch, 2),
		errc:      make(chan error, units),
		statsc:    make(chan ExecStats, units),
		done:      make(chan struct{}),
		cancel:    cancelAll,
		pool:      newBatchPool(),
		skip:      q.Offset,
		remaining: -1,
		route: RouteInfo{
			Router:           router.Name(),
			ReplicaGroup:     plan.ReplicaGroup,
			SegmentsRouted:   plan.SegmentCount(),
			ServersContacted: sp.contacted,
			PartitionsPruned: plan.PartitionsPruned,
		},
	}
	if q.Limit > 0 {
		qs.remaining = q.Limit
	}
	send := func(rb *RowBatch) bool {
		select {
		case qs.ch <- rb:
			return true
		case <-ctx.Done():
			qs.pool.put(rb)
			return false
		}
	}

	var wg sync.WaitGroup
	for _, si := range servers {
		wg.Add(1)
		go func(si int, segs []string) {
			defer wg.Done()
			sp, sctx := obs.StartSpan(ctx, "server.stream")
			sp.SetAttr("server", b.d.serverAt(si).Name())
			st, err := b.d.serverAt(si).StreamOn(sctx, q, segs, execOpts, qs.pool, send)
			if err == nil {
				// A send aborted by ctx (timeout) is silent truncation, not
				// success; Close/LIMIT shutdowns never read errc again.
				err = ctx.Err()
			}
			if err != nil {
				sp.SetAttr("error", err.Error())
				qs.errc <- err
			}
			sp.SetRows(st.RowsScanned)
			sp.End()
			qs.statsc <- st
		}(si, plan.Assignment[si])
	}
	for _, cs := range consuming {
		wg.Add(1)
		go func(cs consumingScan) {
			defer wg.Done()
			st, err := b.streamConsuming(ctx, cs, q, qs.pool, send)
			if err == nil {
				err = ctx.Err()
			}
			if err != nil {
				qs.errc <- err
			}
			qs.statsc <- st
		}(cs)
	}
	go func() {
		wg.Wait()
		close(qs.ch)
		close(qs.done)
	}()
	return qs, nil
}

// streamConsuming streams one consuming partition's snapshotted stores
// through the same filter and gather kernels the sealed segments stream
// through: batches of at most BatchRows rows, decoded only for the rows
// that matched, and a consumer that stops (LIMIT met, stream closed) stops
// the scan at the next window.
func (b *Broker) streamConsuming(ctx context.Context, cs consumingScan, q *Query, pool *batchPool, send func(*RowBatch) bool) (ExecStats, error) {
	sp, sctx := obs.StartSpan(ctx, "consuming.stream")
	defer sp.End()
	if b.d.serverAt(cs.owner).Down() {
		err := fmt.Errorf("%w: consuming partition %d owner %s", ErrServerDown, cs.part, b.d.serverAt(cs.owner).Name())
		cs.annotate(sp, 0, err)
		return ExecStats{}, err
	}
	var stats ExecStats
	for _, u := range cs.units {
		st, more, err := u.rows.streamSelect(sctx, q, u.valid, pool, send)
		stats.Add(st)
		if err != nil {
			cs.annotate(sp, stats.RowsScanned, err)
			return stats, err
		}
		if !more {
			break
		}
	}
	cs.annotate(sp, stats.RowsScanned, nil)
	return stats, nil
}

// materializedStream is the fallback for query shapes that cannot stream
// (aggregations, ORDER BY): execute fully — through the broker's cache,
// views, admission and top-K trimming — and chunk the finalized rows. The
// batches copy out of the response, so shared cached rows stay untouched.
func (b *Broker) materializedStream(ctx context.Context, req *QueryRequest) (*QueryStream, error) {
	resp, err := b.Execute(ctx, req)
	if err != nil {
		return nil, err
	}
	qs := &QueryStream{
		cols:      resp.Columns,
		ch:        make(chan *RowBatch, 1),
		errc:      make(chan error, 1),
		statsc:    make(chan ExecStats, 1),
		done:      make(chan struct{}),
		pool:      newBatchPool(),
		remaining: -1, // Execute already applied ORDER BY/LIMIT/OFFSET
		stats:     resp.Stats,
		trimK:     resp.TrimK,
		route:     resp.Route,
	}
	// Stats are already complete; keep Stats() assembly uniform.
	qs.route.ServersContacted = resp.Stats.ServersContacted
	qs.route.PartitionsPruned = resp.Stats.PartitionsPruned
	ctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	qs.cancel = cancel
	go func() {
		defer close(qs.ch)
		defer close(qs.done)
		for off := 0; off < len(resp.Rows); off += BatchRows {
			end := off + BatchRows
			if end > len(resp.Rows) {
				end = len(resp.Rows)
			}
			rb := qs.pool.get(resp.Columns)
			for ci := range resp.Columns {
				out := rb.Cols[ci][:0]
				for _, row := range resp.Rows[off:end] {
					out = append(out, row[ci])
				}
				rb.Cols[ci] = out
			}
			rb.Len = end - off
			select {
			case qs.ch <- rb:
			case <-ctx.Done():
				qs.pool.put(rb)
				return
			}
		}
	}()
	return qs, nil
}
