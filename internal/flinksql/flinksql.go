// Package flinksql compiles SQL into dataflow jobs — the FlinkSQL layer of
// §4.2.1: "the SQL processor compiles the queries to reliable, efficient,
// distributed Flink applications", letting non-engineers run streaming
// pipelines. A query compiles into a logical plan (filter → key-extract →
// window aggregate, or filter → project), which maps onto flow stages.
//
// The compiled WHERE, GROUP BY key, window and projection work on
// schema-bound rows (flow.Event.Row) and have no map form: each payload is
// decoded once, by the source, and a row is boxed into a map only where a
// user function or sink wants one. The WHERE stage filters with sqlparse.Compiled, the
// typed predicate the federated engine shares, which answers what
// sqlparse.Predicate.Matches answers on the boxed value.
//
// The same compiled stages execute in two modes (§7 "SQL based" backfill):
// streaming over a live topic (DataStream) or bounded over the archived
// dataset (DataSet / Kappa+), so one query backfills itself.
package flinksql

import (
	"fmt"
	"slices"

	"repro/internal/flow"
	"repro/internal/flow/backfill"
	"repro/internal/metadata"
	"repro/internal/objstore"
	"repro/internal/record"
	"repro/internal/sqlparse"
	"repro/internal/stream"
)

// Plan is a compiled query: flow stages plus output metadata.
type Plan struct {
	// Stages are the operator stages implementing the query.
	Stages []flow.StageSpec
	// Table is the FROM table (topic / archived dataset name).
	Table string
	// TimeColumn is the window time column (empty for non-windowed).
	TimeColumn string
	// OutputColumns are the result column names in projection order.
	OutputColumns []string
}

// Compile turns a parsed statement into a logical plan: WHERE, then either
// the GROUP BY key and the window, whose rows are the output — group
// columns, aggregates, window_start and window_end, in OutputColumns'
// order — or the projection. Streaming SQL restrictions: aggregates require
// a TUMBLE/HOP window (unbounded group-by over an unbounded stream never
// emits) and distinct output names; joins are not supported in this layer
// (use fedsql for interactive joins or flow's IntervalJoinOp directly);
// ORDER BY is not supported on unbounded output.
func Compile(stmt *sqlparse.SelectStmt, parallelism int) (*Plan, error) {
	if stmt.From == nil || stmt.From.Join != nil || stmt.From.Sub != nil {
		return nil, fmt.Errorf("flinksql: FROM must be a single table (joins/subqueries belong to the fedsql layer)")
	}
	if len(stmt.OrderBy) > 0 {
		return nil, fmt.Errorf("flinksql: ORDER BY is not defined on an unbounded stream")
	}
	if parallelism <= 0 {
		parallelism = 1
	}
	plan := &Plan{Table: stmt.From.Name}

	var stages []flow.StageSpec
	// WHERE → filter stage.
	if len(stmt.Where) > 0 {
		stages = append(stages, whereStage(stmt.Where, parallelism))
	}

	if stmt.HasAggregates() {
		if stmt.Window == nil {
			return nil, fmt.Errorf("flinksql: aggregates over an unbounded stream require a TUMBLE/HOP window in GROUP BY")
		}
		for _, it := range stmt.Items {
			if it.Func == sqlparse.FuncNone && !slices.Contains(stmt.GroupBy, it.Column) {
				return nil, fmt.Errorf("flinksql: projection %q is neither aggregated nor grouped", it.Column)
			}
		}
		plan.TimeColumn = stmt.Window.TimeColumn
		groupBy := append([]string(nil), stmt.GroupBy...)
		// Key-extraction stage: composite key from the group-by columns.
		stages = append(stages, keyStage(groupBy, parallelism))
		var aggs []flow.Aggregation
		for _, it := range stmt.Items {
			if it.Func == sqlparse.FuncNone {
				continue
			}
			aggs = append(aggs, flow.Aggregation{
				Kind:  it.Func.Agg(),
				Field: it.Column,
				As:    it.OutputName(),
			})
		}
		// Window aggregation stage, keyed by the composite key the stage
		// before set on each event: its rows are the query's output.
		size, slide := stmt.Window.SizeMs, stmt.Window.SlideMs
		window := func() *flow.WindowAggOp {
			op := flow.NewWindowAggOp(size, slide, "", aggs...)
			op.CarryColumns = groupBy
			return op
		}
		var err error
		if plan.OutputColumns, err = window().Columns(); err != nil {
			return nil, fmt.Errorf("flinksql: %w", err)
		}
		stages = append(stages, flow.StageSpec{
			Name:        "window",
			Parallelism: parallelism,
			KeyBy:       flow.KeyByEventKey,
			New:         func() flow.Operator { return window() },
		})
		plan.Stages = stages
		return plan, nil
	}

	// Plain selection: projection only.
	star := false
	var outCols []string
	renames := map[string]string{}
	for _, it := range stmt.Items {
		if it.Star {
			star = true
			continue
		}
		outCols = append(outCols, it.OutputName())
		renames[it.OutputName()] = it.Column
	}
	plan.OutputColumns = outCols
	if !star {
		stages = append(stages, projectStage(outCols, renames, parallelism))
	} else if len(stages) == 0 {
		// SELECT * with no WHERE still needs one stage (jobs require >= 1).
		stages = append(stages, flow.StageSpec{Name: "identity", Parallelism: parallelism, New: func() flow.Operator { return flow.PassOp{} }})
	}
	plan.Stages = stages
	return plan, nil
}

// FromTable returns the FROM table of a single-table query — how the
// platform resolves which stream a SQL job reads before compiling it.
func FromTable(sql string) (string, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return "", err
	}
	if stmt.From == nil || stmt.From.Name == "" {
		return "", fmt.Errorf("flinksql: query has no FROM table")
	}
	return stmt.From.Name, nil
}

// StreamJobConfig wires a compiled query to live infrastructure.
type StreamJobConfig struct {
	// Parallelism is the per-stage instance count. Default 1.
	Parallelism int
	// LatenessMs is the source watermark lag.
	LatenessMs int64
	// CheckpointStore enables checkpointing.
	CheckpointStore objstore.Store
}

// StreamJob compiles sql and builds a streaming flow job reading the FROM
// table as a topic on cluster — the DataStream mode.
func StreamJob(name, sql string, cluster *stream.Cluster, codec *record.Codec, sink flow.Sink, cfg StreamJobConfig) (*flow.Job, *Plan, error) {
	plan, err := compileSQL(sql, cfg.Parallelism)
	if err != nil {
		return nil, nil, err
	}
	src, err := flow.NewStreamSource(cluster, plan.Table, codec, flow.StreamSourceConfig{
		TimeField:  plan.TimeColumn,
		LatenessMs: cfg.LatenessMs,
	})
	if err != nil {
		return nil, nil, err
	}
	job, err := flow.NewJob(flow.JobSpec{
		Name:            name,
		Sources:         []flow.SourceSpec{{Name: plan.Table, Source: src}},
		Stages:          plan.Stages,
		Sink:            flow.SinkSpec{Sink: sink},
		CheckpointStore: cfg.CheckpointStore,
	})
	if err != nil {
		return nil, nil, err
	}
	return job, plan, nil
}

// BackfillJob compiles sql and runs it over the archived FROM dataset — the
// DataSet mode of §7: "the FlinkSQL compiler will translate the SQL query to
// two different Flink jobs". The statement is identical to the streaming
// one; only the source binding changes.
func BackfillJob(name, sql string, store objstore.Store, schema *metadata.Schema, sink flow.Sink, cfg backfill.Config) (backfill.Result, *Plan, error) {
	plan, err := compileSQL(sql, 1)
	if err != nil {
		return backfill.Result{}, nil, err
	}
	res, err := backfill.Run(name, store, plan.Table, schema, plan.Stages, sink, cfg)
	return res, plan, err
}

// compileSQL parses and compiles sql.
func compileSQL(sql string, parallelism int) (*Plan, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return Compile(stmt, parallelism)
}
