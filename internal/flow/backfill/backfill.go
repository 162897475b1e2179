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
	"fmt"
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
	rows, skipped, err := readArchive(store, dataset, schema, cfg)
	if err != nil {
		return Result{}, fmt.Errorf("backfill: reading archive %q: %w", dataset, err)
	}
	src := flow.NewBoundedSource(rows, schema.TimeField, cfg.Batch)
	src.SetLateness(cfg.LatenessMs)
	src.SetRate(cfg.RatePerSec)
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
		RowsRead:    len(rows),
		RowsSkipped: skipped,
		EventsOut:   job.Metrics().EventsOut,
		Elapsed:     time.Since(start),
	}, nil
}

// readArchive reads the archive's parts in order into the rows inside the
// time boundary, cells under the archive's schema, and counts the rows
// outside it; a NULL time is 0.
func readArchive(store objstore.Store, dataset string, schema *metadata.Schema, cfg Config) (rows []record.Row, skipped int, err error) {
	reader := objstore.NewArchiveReader(store, dataset, schema)
	parts, err := reader.Parts()
	if err != nil {
		return nil, 0, err
	}
	names := schema.FieldNames()
	nf, at := len(names), schema.FieldIndex(schema.TimeField)
	cols := make([]record.Vector, nf)
	for _, p := range parts {
		n, err := reader.ReadColumns(p, names, cols)
		if err != nil {
			return nil, 0, err
		}
		// One slab of cells per part; a skipped row's are the next row's.
		cells := make([]record.Value, n*nf)
		for i := range n {
			row := record.Row{Schema: schema, Vals: cells[:nf:nf]}
			for c := range cols {
				row.Vals[c] = cols[c].Value(i)
			}
			if t := row.Long(at); cfg.StartMs != 0 && t < cfg.StartMs || cfg.EndMs != 0 && t >= cfg.EndMs {
				skipped++
				continue
			}
			rows = append(rows, row)
			cells = cells[nf:]
		}
	}
	return rows, skipped, nil
}
