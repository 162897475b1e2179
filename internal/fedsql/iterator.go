package fedsql

import (
	"context"
	"io"

	"repro/internal/record"
)

// BatchRows is the row capacity of a batch from the broker stream and the
// in-memory source — matching the OLAP layer's scan window, so a batch
// crosses the connector boundary exactly as the segment kernels produced it.
// The archive's batches are one part each and a join's follow its probe
// side's, so consumers must not assume the bound.
const BatchRows = 4096

// Batch is one column-major batch of typed column vectors crossing the
// connector boundary — the OLAP layer's scan batch, so a broker stream's
// batches cross as they are — valid only until the iterator's following Next
// or Close call. Its resident size (record.Batch.Size, read from the vector
// lengths) is the unit the engine tracks as PeakEngineBytes.
type Batch = record.Batch

// RowIterator is the engine's one data contract: a pull-based stream of row
// batches. Table scans, pushed-down aggregates, subquery results and join
// outputs all reach the engine as one. Exactly one consumer calls Next until
// io.EOF (or an error) and must Close on every path — Close is idempotent,
// safe mid-stream, and releases backend resources (the repolint iterclose
// analyzer enforces the discipline). Stats is complete once Next returned
// io.EOF or after Close.
type RowIterator interface {
	// Columns is the column order of every batch.
	Columns() []string
	// Next returns the next batch, or io.EOF at end of stream. The batch is
	// valid only until the following Next or Close call. A column keeps one
	// type from batch to batch; only an untyped, all-NULL vector may stand
	// in for it (record.Vector).
	Next(ctx context.Context) (*Batch, error)
	// Stats reports what the scan did; complete after io.EOF or Close. An
	// early-closed iterator reports only the work actually done.
	Stats() QueryStats
	// Close releases the iterator. Idempotent; required on all paths.
	Close() error
}

// StreamingConnector is Connector v3, the one surface the engine executes
// through: backends hand their results over as batch iterators. A catalog
// registered without it is refused when a query scans it; nothing adapts
// Connector's slice-returning Scan/AggregateScan.
type StreamingConnector interface {
	Connector
	// OpenScan starts the row-scan fragment as a batch stream.
	OpenScan(ctx context.Context, table string, pd Pushdown) (RowIterator, error)
	// OpenAggregateScan starts a whole aggregate query and returns its
	// finalized per-group rows; backends that cannot aggregate return
	// ErrPushdownUnsupported and the engine aggregates an OpenScan itself.
	OpenAggregateScan(ctx context.Context, table string, aq AggregateQuery) (RowIterator, error)
}

// drainRecords consumes a just-opened iterator (or passes on the error that
// opening it returned) into the v2 slice shape, NULLs omitted — the body of
// every in-tree Scan/AggregateScan, and an edge where batch rows are boxed.
// The caller receives a materialized result, so the stats say so: Streamed
// is cleared and PeakEngineBytes covers every batch drained.
func drainRecords(ctx context.Context, it RowIterator, err error) ([]record.Record, QueryStats, error) {
	if err != nil {
		return nil, QueryStats{}, err
	}
	defer it.Close()
	var recs []record.Record
	var total int64
	for {
		b, err := it.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, QueryStats{}, err
		}
		total += b.Size()
		for r := 0; r < b.Len; r++ {
			rec := make(record.Record, len(b.Columns))
			for ci, c := range b.Columns {
				if v := b.Cols[ci].Box(r); v != nil {
					rec[c] = v
				}
			}
			recs = append(recs, rec)
		}
	}
	stats := it.Stats()
	stats.Streamed = false
	stats.BatchesStreamed = 0
	if total > stats.PeakEngineBytes {
		stats.PeakEngineBytes = total
	}
	return recs, stats, nil
}

// batchIterator is the one in-memory source: it serves a batch that is whole
// before the first pull — a subquery's result, an engine-side aggregation's
// groups, a pushed-down aggregate's response — in views of at most BatchRows
// rows, copying nothing and writing nothing. It reports exec=materialized
// (Streamed stays false) and counts the whole batch into PeakEngineBytes:
// every row was resident before the first batch was pulled, which is what
// streaming scans avoid.
type batchIterator struct {
	data  Batch
	pos   int
	stats QueryStats
	view  Batch
}

func newBatchIterator(data Batch, stats QueryStats) RowIterator {
	stats.PeakEngineBytes += data.Size()
	return &batchIterator{data: data, stats: stats,
		view: Batch{Columns: data.Columns, Cols: make([]record.Vector, len(data.Cols))}}
}

func (m *batchIterator) Columns() []string { return m.data.Columns }

func (m *batchIterator) Next(ctx context.Context) (*Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if m.pos >= m.data.Len {
		return nil, io.EOF
	}
	end := min(m.pos+BatchRows, m.data.Len)
	copy(m.view.Cols, m.data.Cols)
	m.view.Len = m.data.Len
	m.view.Slice(m.pos, end)
	m.stats.BatchesStreamed++
	m.pos = end
	return &m.view, nil
}

func (m *batchIterator) Stats() QueryStats { return m.stats }

func (m *batchIterator) Close() error {
	m.data, m.pos = Batch{}, 0
	return nil
}
