// Package backfill implements the Kappa+ architecture of §7: reusing the
// exact stream-processing operator logic of a flow job, but reading archived
// data from the object store's columnar archive (the Hive stand-in) instead
// of the stream layer — each part's columns replayed as the rows a
// StreamSource delivers, cells under the archive's own schema. It addresses
// the issues the paper lists for running streaming logic over batch data:
//
//   - identifying the start/end boundary of the bounded input (event-time
//     bounds filter the archive);
//   - handling the higher throughput of historic reads with throttling;
//   - tolerating out-of-order offline data with a larger buffering window
//     (watermark lateness).
//
// Because Kafka retention is only a few days (§7), the plain Kappa
// architecture is infeasible at Uber — this package is the replacement.
package backfill

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/flow"
	"repro/internal/metadata"
	"repro/internal/objstore"
	"repro/internal/record"
)

// Config bounds and paces one backfill run.
type Config struct {
	// StartMs/EndMs bound the reprocessed event-time range [StartMs, EndMs).
	// Zero values mean unbounded on that side.
	StartMs, EndMs int64
	// RatePerSec throttles the archive read; 0 is unthrottled.
	RatePerSec int
	// LatenessMs widens the watermark buffer for out-of-order offline data.
	// Default 60000 (one minute), larger than typical streaming lateness.
	LatenessMs int64
	// Batch is the source batch size. Default 256.
	Batch int
}

func (c Config) withDefaults() Config {
	if c.LatenessMs <= 0 {
		c.LatenessMs = 60_000
	}
	if c.Batch <= 0 {
		c.Batch = 256
	}
	return c
}

// Result summarizes a completed backfill.
type Result struct {
	// RowsRead is the number of archived rows within the time boundary.
	RowsRead int
	// RowsSkipped is the number outside the boundary.
	RowsSkipped int
	// EventsOut is the number of events the job's sink received.
	EventsOut int64
	// Elapsed is the wall-clock run time.
	Elapsed time.Duration
}

// Run executes the given streaming stages over archived data for `dataset`,
// writing results to sink. The stages are exactly the ones a live streaming
// job would use — "using Kappa+ we can execute the same code with minor
// config changes on both streaming or batch data sources".
func Run(jobName string, store objstore.Store, dataset string, schema *metadata.Schema, stages []flow.StageSpec, sink flow.Sink, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	src, err := newArchiveSource(store, dataset, schema, cfg)
	if err != nil {
		return Result{}, err
	}
	job, err := flow.NewJob(flow.JobSpec{
		Name:    jobName + "-backfill",
		Sources: []flow.SourceSpec{{Name: dataset, Source: src}},
		Stages:  stages,
		Sink:    flow.SinkSpec{Sink: sink},
	})
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	if err := job.Run(); err != nil {
		return Result{}, err
	}
	return Result{
		RowsRead:    src.read,
		RowsSkipped: src.skipped,
		EventsOut:   job.Metrics().EventsOut,
		Elapsed:     time.Since(start),
	}, nil
}

// archiveSource replays the archive's parts in order as one bounded source.
// It decodes a part only once the job has taken every row of the last, and
// replays it through a flow.BoundedSource (throttle and lateness included),
// so a backfill holds one part's rows, not the archive's. The watermark is
// the highest any part's source reached.
type archiveSource struct {
	dataset string
	reader  *objstore.ArchiveReader
	parts   []string
	schema  *metadata.Schema
	names   []string
	cols    []record.Vector
	cfg     Config

	mu            sync.Mutex
	part          int                 // parts decoded
	cur           *flow.BoundedSource // the last part decoded
	floor         int64               // the watermark the parts before it reached
	read, skipped int                 // rows of the parts decoded, inside and outside the boundary
}

func newArchiveSource(store objstore.Store, dataset string, schema *metadata.Schema, cfg Config) (*archiveSource, error) {
	reader := objstore.NewArchiveReader(store, dataset, schema)
	parts, err := reader.Parts()
	if err != nil {
		return nil, fmt.Errorf("backfill: reading archive %q: %w", dataset, err)
	}
	names := schema.FieldNames()
	return &archiveSource{dataset: dataset, reader: reader, parts: parts, schema: schema, names: names,
		cols: make([]record.Vector, len(names)), cfg: cfg, floor: -cfg.LatenessMs}, nil
}

// decode makes the next part the current one: its rows inside the time
// boundary, cells under the archive's schema, in one slab; a NULL time is 0.
func (s *archiveSource) decode() error {
	n, err := s.reader.ReadColumns(s.parts[s.part], s.names, s.cols)
	if err != nil {
		return fmt.Errorf("backfill: reading archive %q: %w", s.dataset, err)
	}
	nf, at := len(s.names), s.schema.FieldIndex(s.schema.TimeField)
	// A skipped row's cells are the next row's.
	cells := make([]record.Value, n*nf)
	rows := make([]record.Row, 0, n)
	for i := range n {
		row := record.Row{Schema: s.schema, Vals: cells[:nf:nf]}
		for c := range s.cols {
			row.Vals[c] = s.cols[c].Value(i)
		}
		if t := row.Long(at); s.cfg.StartMs != 0 && t < s.cfg.StartMs || s.cfg.EndMs != 0 && t >= s.cfg.EndMs {
			s.skipped++
			continue
		}
		rows = append(rows, row)
		cells = cells[nf:]
	}
	if s.cur != nil {
		s.floor = max(s.floor, s.cur.Watermark())
	}
	s.cur = flow.NewBoundedSource(rows, s.schema.TimeField, s.cfg.Batch)
	s.cur.SetLateness(s.cfg.LatenessMs)
	s.cur.SetRate(s.cfg.RatePerSec)
	s.part++
	s.read += len(rows)
	return nil
}

// Next implements flow.Source: the current part's next batch, decoding the
// next part with rows once it has none left; the batch that empties the
// last part ends the source.
func (s *archiveSource) Next(maxWait time.Duration) ([]flow.Event, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.cur == nil || s.cur.Lag() == 0 {
		if s.part == len(s.parts) {
			return nil, true, nil
		}
		if err := s.decode(); err != nil {
			return nil, false, err
		}
	}
	events, _, err := s.cur.Next(maxWait)
	return events, s.cur.Lag() == 0 && s.part == len(s.parts), err
}

// Watermark implements flow.Source.
func (s *archiveSource) Watermark() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur == nil {
		return s.floor
	}
	return max(s.floor, s.cur.Watermark())
}

// errNoCheckpoint refuses a checkpoint: Run's job takes none — it runs to
// its end or fails — so the source keeps no position to restore.
var errNoCheckpoint = errors.New("backfill: a backfill job is not checkpointed")

// Position implements flow.Source; see errNoCheckpoint.
func (s *archiveSource) Position() ([]byte, error) { return nil, errNoCheckpoint }

// Seek implements flow.Source; see errNoCheckpoint.
func (s *archiveSource) Seek([]byte) error { return errNoCheckpoint }
