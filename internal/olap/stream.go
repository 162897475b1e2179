package olap

import (
	"context"
	"errors"
	"io"
	"sync"

	"repro/internal/record"
)

// Streaming execution: the batch sink of the scatter (request.go). Instead
// of folding every producer's rows into a partial before the broker answers,
// an unordered selection's producers push column-major row batches onto one
// small bounded channel the consumer pulls from: it sees row one while the
// slowest server is still scanning, and the broker's resident state is
// O(batches in flight), not O(result). Aggregations and ordered queries need
// every row before the first output row is known: they fold.

// ErrNotStreamable is returned by ExecuteStream for a query whose first
// output row depends on every input row (an aggregation, an ORDER BY): it has
// nothing to stream; run it through Execute.
var ErrNotStreamable = errors.New("olap: aggregations and ordered queries do not stream")

// streamable reports whether a query's rows can be emitted as they are
// found: a selection without ORDER BY.
func streamable(q *Query) bool { return len(q.Aggs) == 0 && len(q.OrderBy) == 0 }

// batchPool recycles batch buffers between the segment gather kernels
// (producers) and the stream consumer, so a steady-state scan allocates no
// per-batch memory; a broker's streams share one.
type batchPool struct{ p sync.Pool }

// get returns an empty batch shaped for the given columns, reusing backing
// arrays from recycled batches when available; the gather retypes each
// vector by its column.
func (bp *batchPool) get(cols []string) *record.Batch {
	rb, _ := bp.p.Get().(*record.Batch)
	if rb == nil {
		rb = &record.Batch{}
	}
	rb.Reset(cols)
	return rb
}

func (bp *batchPool) put(rb *record.Batch) {
	if rb != nil {
		bp.p.Put(rb)
	}
}

// streamSelect scans the set as column-major batches: the filter kernels
// produce selection vectors (newSelStream), and the gather kernel decodes
// only the selected rows of the selected columns into the typed vectors of a
// pooled batch (colView.gather).
// Returns whether the consumer wants more (yield never returned false).
// Early termination skips the remaining windows entirely, so the stats cover
// only the work actually done.
func (sc *scanSet) streamSelect(ctx context.Context, q *Query, valid *Bitmap, pool *batchPool, yield func(*record.Batch) bool) (ExecStats, bool, error) {
	cols, scols, err := sc.selectColumns(q)
	if err != nil {
		return ExecStats{}, false, err
	}
	ss, err := sc.newSelStream(unitFilters(q.Filters, sc.schema, sc.minTime, sc.maxTime), valid)
	if err != nil {
		return ExecStats{}, false, err
	}
	defer ss.release()
	var shipped int64
	more := true
	for sel := ss.next(); sel != nil; sel = ss.next() {
		rb := pool.get(cols)
		for ci, c := range scols {
			rb.Cols[ci].Reset(c.typ)
			c.gather(&rb.Cols[ci], sel, ss.s.block[:])
		}
		rb.Len = len(sel)
		shipped += int64(rb.Len)
		if more = yield(rb) && ctx.Err() == nil; !more {
			break
		}
	}
	return ExecStats{RowsScanned: ss.kept, UpsertFiltered: ss.dropped, RowsShipped: shipped}, more, ctx.Err()
}

// batchSink is the sink of unordered selections: every unit streams its
// matching rows as pooled batches onto one bounded channel. The producers
// only add up their stats; LIMIT/OFFSET apply at the consumer (QueryStream).
type batchSink struct {
	q    *Query
	pool *batchPool
	// ch is small on purpose: it decouples producers from the consumer
	// without re-materializing the result in channel slack.
	ch chan *record.Batch

	mu    sync.Mutex
	stats ExecStats
}

func (b *batchSink) close()                 { close(b.ch) }
func (b *batchSink) producer(bool) producer { return b }

func (b *batchSink) scan(ctx context.Context, u scanUnit) (ExecStats, bool, error) {
	rows := u.rows
	if u.seg != nil {
		rows = u.seg.scan()
	}
	st, more, err := rows.streamSelect(ctx, b.q, u.valid, b.pool, func(rb *record.Batch) bool {
		select {
		case b.ch <- rb:
			return true
		case <-ctx.Done():
			b.pool.put(rb)
			return false
		}
	})
	if u.seg != nil {
		st.SegmentsScanned = 1
	}
	return st, more, err
}

func (b *batchSink) finish(st ExecStats, err error) error {
	b.mu.Lock()
	b.stats.Add(st)
	b.mu.Unlock()
	return err
}

// QueryStream is the pull-based result of Broker.ExecuteStream. Exactly
// one consumer calls Next until it returns io.EOF (or an error) and then
// Close; Close is also safe to call early (mid-stream cancellation) and
// always waits for every producer goroutine to exit before returning, so a
// closed stream leaks nothing.
type QueryStream struct {
	cols []string
	sink *batchSink
	// ctx is the scatter round's: it ends, with the cause, when a producer
	// fails or the request's deadline passes (or, causeless, on stop).
	ctx   context.Context
	stop  context.CancelCauseFunc
	route RouteInfo

	// Consumer-side state; Next/Close are single-consumer by contract.
	prev      *record.Batch
	skip      int   // OFFSET rows still to drop
	remaining int   // LIMIT rows still to emit; -1 = unlimited
	err       error // sticky end of stream: io.EOF, or what failed it
}

// Columns reports the column order of every batch.
func (s *QueryStream) Columns() []string { return s.cols }

// Next returns the next batch of rows, io.EOF at end of stream, or the
// first producer error. The returned batch is recycled by the following
// Next or Close call. A LIMIT ends the stream — and stops the producers — on
// the batch that spends it.
func (s *QueryStream) Next(ctx context.Context) (*record.Batch, error) {
	if s.err != nil {
		return nil, s.err
	}
	s.sink.pool.put(s.prev)
	s.prev = nil
	for {
		// Fail fast on a producer error or the request's deadline even while
		// batches are queued: partial delivery must not read as success. The
		// same check once the channel is closed turns a send the deadline
		// aborted into an error, never a silent truncation.
		if err := context.Cause(s.ctx); err != nil {
			return nil, s.end(err)
		}
		select {
		case <-ctx.Done():
			return nil, s.end(ctx.Err())
		case <-s.ctx.Done():
		case rb, ok := <-s.sink.ch:
			if !ok {
				if err := context.Cause(s.ctx); err != nil {
					return nil, s.end(err)
				}
				return nil, s.end(io.EOF)
			}
			// OFFSET drops rows from the front, LIMIT from the back.
			from := min(s.skip, rb.Len)
			s.skip -= from
			to := rb.Len
			if s.remaining >= 0 {
				to = min(to, from+s.remaining)
				if s.remaining -= to - from; s.remaining == 0 {
					s.end(io.EOF)
				}
			}
			if from == to {
				s.sink.pool.put(rb)
				continue
			}
			rb.Slice(from, to)
			s.prev = rb
			return rb, nil
		}
	}
}

// end stops the producers and makes err what every further Next returns.
func (s *QueryStream) end(err error) error {
	s.stop(nil)
	s.err = err
	return err
}

// Close cancels any remaining production, drains the batch channel until the
// last producer to exit closes it, and releases the stream. Idempotent; safe
// mid-stream.
func (s *QueryStream) Close() error {
	if s.err == nil {
		s.end(io.EOF)
	}
	s.sink.pool.put(s.prev)
	s.prev = nil
	for rb := range s.sink.ch {
		s.sink.pool.put(rb)
	}
	return nil
}

// Stats reports the execution stats of the producers that have finished:
// complete once the scan ran out (io.EOF without a LIMIT) and after Close.
// Early termination (LIMIT, Close) reports only the work actually done.
func (s *QueryStream) Stats() ExecStats {
	s.sink.mu.Lock()
	st := s.sink.stats
	s.sink.mu.Unlock()
	st.ServersContacted = s.route.ServersContacted
	st.PartitionsPruned = s.route.PartitionsPruned
	return st
}

// Route reports how the streamed request was routed.
func (s *QueryStream) Route() RouteInfo { return s.route }

// ExecuteStream runs one unordered selection as a pull-based batch stream:
// one scatter round into the batch sink — first rows arrive while the
// slowest server is still scanning, and broker-resident state stays
// O(batches in flight). LIMIT/OFFSET apply at the consumer, which stops the
// producers once the budget is met. A stream is consumed once, not shared: it
// bypasses the result cache, views and admission, and a server failing
// mid-flight fails it (no re-route). Aggregations and ordered queries return
// ErrNotStreamable. The caller must Close the stream on every path.
func (b *Broker) ExecuteStream(ctx context.Context, req *QueryRequest) (*QueryStream, error) {
	if err := b.prepare(ctx, req); err != nil {
		return nil, err
	}
	if !streamable(req.Query) {
		return nil, ErrNotStreamable
	}
	return b.openStream(ctx, req, req.Query)
}

// selection is a copy of the columns a selection answers with: its SELECT
// list, or every selectable column for SELECT *.
func (b *Broker) selection(q *Query) []string {
	if len(q.Select) > 0 {
		return append([]string(nil), q.Select...)
	}
	return selectable(b.d.cfg.Schema)
}

// openStream starts one routing round into a batch sink and returns its
// consumer side.
func (b *Broker) openStream(ctx context.Context, req *QueryRequest, q *Query) (*QueryStream, error) {
	sp, err := b.planScatter(ctx, req, q, "batch")
	if err != nil {
		return nil, err
	}
	qs := &QueryStream{
		cols:      b.selection(q),
		sink:      &batchSink{q: q, pool: &b.pool, ch: make(chan *record.Batch, 2)},
		skip:      q.Offset,
		remaining: -1,
		route:     sp.route(),
	}
	if q.Limit > 0 {
		qs.remaining = q.Limit
	}
	sp.opts.Workers = 1 // a stream keeps each server's segments in routed order
	qs.ctx, qs.stop = b.scatter(ctx, sp, qs.sink)
	return qs, nil
}
