package main

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/olap"
	"repro/internal/record"
)

// The query shapes. Each is written twice, once as the SQL the program
// runs and once as a refQuery for the reference evaluator. from > 0 adds
// "ts >= from" to both: workloads that expire segments can only be checked
// over rows no sweep could have dropped (see pipeline.safeFrom).

// dashCity is the city the dashboard's per-city panels filter on, and
// d4WindowMs the event-time span of its "recent" panel (60 s of event time
// at the synthetic rate of rowsPerMs would outlast the table, so the panel
// looks at the last 10 s, about a quarter of the retained rows).
const (
	dashCity   = "city_03"
	d4WindowMs = 10_000
)

type shape struct {
	name string
	sql  func(p *pipeline, from int64) string
	ref  func(p *pipeline, from int64) refQuery
	// olap is the same query in the OLAP layer's own form, for shapes that
	// touch only the table; the execute probe runs it on a broker directly.
	olap func(p *pipeline) *olap.Query
}

func tsClause(from int64, lead string) string {
	if from <= 0 {
		return ""
	}
	return lead + "ts >= " + strconv.FormatInt(from, 10)
}

// liveScan yields every produced row the clean job kept with ts >= from.
func liveScan(p *pipeline, from int64) func(func(record.Record)) {
	return func(yield func(record.Record)) {
		first := (from - eventT0) * rowsPerMs
		if first < 0 {
			first = 0
		}
		for i := first; i < p.nextRow; i++ {
			if r := p.row(i); passes(r) && r.Long("ts") >= from {
				yield(r)
			}
		}
	}
}

func dayScan(p *pipeline) func(func(record.Record)) {
	return func(yield func(record.Record)) {
		for i := int64(0); i < p.size.dayRows; i++ {
			yield(p.g.order(streamDay, i))
		}
	}
}

func (p *pipeline) lookupLive(id string) (record.Record, bool) {
	i, err := strconv.ParseInt(strings.TrimPrefix(id, "o"), 10, 64)
	if err != nil || i < 0 || i >= p.nextRow {
		return nil, false
	}
	return p.row(i), true
}

var (
	countSum     = []refAgg{{aggCount, "", "n"}, {aggSum, "amount", "total"}}
	olapSum      = []olap.AggSpec{{Kind: olap.AggSum, Column: "amount", As: "total"}}
	olapCountSum = []olap.AggSpec{{Kind: olap.AggCount, As: "n"}, {Kind: olap.AggSum, Column: "amount", As: "total"}}

	// The dashboard's page: four panels issued in order.
	dashShapes = []shape{
		{
			name: "D1", // filtered group-by over an indexed dimension
			sql: func(p *pipeline, from int64) string {
				return "SELECT city, COUNT(*) AS n, SUM(amount) AS total FROM " + p.catalog +
					".orders WHERE status = 'delivered'" + tsClause(from, " AND ") + " GROUP BY city"
			},
			ref: func(p *pipeline, from int64) refQuery {
				return refQuery{scan: liveScan(p, from), groupBy: []string{"city"}, aggs: countSum,
					where: func(r record.Record) bool { return r["status"] == "delivered" }}
			},
			olap: func(*pipeline) *olap.Query {
				return &olap.Query{Table: topicClean, GroupBy: []string{"city"}, Aggs: olapCountSum,
					Filters: []olap.Filter{{Column: "status", Op: olap.OpEq, Value: "delivered"}}}
			},
		},
		{
			name: "D2", // selective row scan, any 100 matching rows
			sql: func(p *pipeline, from int64) string {
				return "SELECT order_id, restaurant_id, amount, ts FROM " + p.catalog +
					".orders WHERE city = '" + dashCity + "' AND status = 'placed' AND amount >= 100" +
					tsClause(from, " AND ") + " LIMIT 100"
			},
			ref: func(p *pipeline, from int64) refQuery {
				return refQuery{scan: liveScan(p, from), sel: []string{"order_id", "restaurant_id", "amount", "ts"},
					limit: 100, lookup: p.lookupLive,
					where: func(r record.Record) bool {
						return r["city"] == dashCity && r["status"] == "placed" && r.Double("amount") >= 100 && r.Long("ts") >= from
					}}
			},
			olap: func(*pipeline) *olap.Query {
				return &olap.Query{Table: topicClean, Select: []string{"order_id", "restaurant_id", "amount", "ts"}, Limit: 100,
					Filters: []olap.Filter{{Column: "city", Op: olap.OpEq, Value: dashCity},
						{Column: "status", Op: olap.OpEq, Value: "placed"}, {Column: "amount", Op: olap.OpGe, Value: 100.0}}}
			},
		},
		{
			name: "D3", // one city's top-10 restaurants by revenue
			sql: func(p *pipeline, from int64) string {
				return "SELECT restaurant_id, SUM(amount) AS total FROM " + p.catalog +
					".orders WHERE city = '" + dashCity + "'" + tsClause(from, " AND ") +
					" GROUP BY restaurant_id ORDER BY total DESC LIMIT 10"
			},
			ref: func(p *pipeline, from int64) refQuery {
				return refQuery{scan: liveScan(p, from), groupBy: []string{"restaurant_id"},
					aggs: []refAgg{{aggSum, "amount", "total"}}, topBy: "total", limit: 10,
					where: func(r record.Record) bool { return r["city"] == dashCity }}
			},
			olap: func(*pipeline) *olap.Query {
				return &olap.Query{Table: topicClean, GroupBy: []string{"restaurant_id"}, Aggs: olapSum,
					Filters: []olap.Filter{{Column: "city", Op: olap.OpEq, Value: dashCity}},
					OrderBy: []olap.OrderSpec{{Column: "total", Desc: true}}, Limit: 10}
			},
		},
		{
			name: "D4", // group-by over the most recent event-time window
			sql: func(p *pipeline, from int64) string {
				return "SELECT city, COUNT(*) AS n, SUM(amount) AS total FROM " + p.catalog +
					".orders WHERE ts >= " + strconv.FormatInt(d4From(p, from), 10) + " GROUP BY city"
			},
			ref: func(p *pipeline, from int64) refQuery {
				return refQuery{scan: liveScan(p, d4From(p, from)), groupBy: []string{"city"}, aggs: countSum}
			},
			olap: func(p *pipeline) *olap.Query {
				return &olap.Query{Table: topicClean, GroupBy: []string{"city"}, Aggs: olapCountSum,
					Filters: []olap.Filter{{Column: "ts", Op: olap.OpGe, Value: float64(d4From(p, 0))}}}
			},
		},
	}

	// The analyst's pass: four full scans, no cache.
	adhocShapes = []shape{
		{
			name: "A1", // full-table top-10 over 5 000 groups
			sql: func(p *pipeline, from int64) string {
				return "SELECT restaurant_id, SUM(amount) AS total FROM pinot.orders" + tsClause(from, " WHERE ") +
					" GROUP BY restaurant_id ORDER BY total DESC LIMIT 10"
			},
			ref: func(p *pipeline, from int64) refQuery {
				return refQuery{scan: liveScan(p, from), groupBy: []string{"restaurant_id"},
					aggs: []refAgg{{aggSum, "amount", "total"}}, topBy: "total", limit: 10}
			},
			olap: func(*pipeline) *olap.Query {
				return &olap.Query{Table: topicClean, GroupBy: []string{"restaurant_id"}, Aggs: olapSum,
					OrderBy: []olap.OrderSpec{{Column: "total", Desc: true}}, Limit: 10}
			},
		},
		{
			name: "A2", // federated join of one status's orders with an archived dimension
			sql: func(p *pipeline, from int64) string {
				return "SELECT r.cuisine, COUNT(*) AS n, SUM(o.amount) AS total FROM pinot.orders o" +
					" JOIN hive.restaurants r ON o.restaurant_id = r.restaurant_id" +
					" WHERE o.status = 'picked_up'" + tsClause(from, " AND o.") + " GROUP BY r.cuisine"
			},
			ref: func(p *pipeline, from int64) refQuery {
				live := liveScan(p, from)
				return refQuery{groupBy: []string{"cuisine"}, aggs: countSum,
					where: func(r record.Record) bool { return r["status"] == "picked_up" },
					scan: func(yield func(record.Record)) {
						live(func(r record.Record) {
							r["cuisine"] = p.g.cuisineOf(r.Long("restaurant_id"))
							yield(r)
						})
					}}
			},
		},
		{
			name: "A3", // archive row scan with engine-side aggregation
			sql: func(*pipeline, int64) string {
				return "SELECT city, COUNT(*) AS n, SUM(amount) AS total FROM hive.orders_day GROUP BY city"
			},
			ref: func(p *pipeline, _ int64) refQuery {
				return refQuery{scan: dayScan(p), groupBy: []string{"city"}, aggs: countSum}
			},
		},
		{
			name: "A4", // full-scan two-dimension group-by
			sql: func(p *pipeline, from int64) string {
				return "SELECT city, status, COUNT(*) AS n, AVG(amount) AS mean, MAX(amount) AS top FROM pinot.orders" +
					tsClause(from, " WHERE ") + " GROUP BY city, status"
			},
			ref: func(p *pipeline, from int64) refQuery {
				return refQuery{scan: liveScan(p, from), groupBy: []string{"city", "status"},
					aggs: []refAgg{{aggCount, "", "n"}, {aggAvg, "amount", "mean"}, {aggMax, "amount", "top"}}}
			},
			olap: func(*pipeline) *olap.Query {
				return &olap.Query{Table: topicClean, GroupBy: []string{"city", "status"},
					Aggs: []olap.AggSpec{{Kind: olap.AggCount, As: "n"}, {Kind: olap.AggAvg, Column: "amount", As: "mean"},
						{Kind: olap.AggMax, Column: "amount", As: "top"}}}
			},
		},
	}

	// The ingest workloads run no queries of their own; after quiescence
	// they are checked with one group-by over everything still retained.
	ingestShapes = []shape{{
		name: "V1",
		sql: func(p *pipeline, from int64) string {
			return "SELECT city, COUNT(*) AS n, SUM(amount) AS total FROM pinot.orders" + tsClause(from, " WHERE ") + " GROUP BY city"
		},
		ref: func(p *pipeline, from int64) refQuery {
			return refQuery{scan: liveScan(p, from), groupBy: []string{"city"}, aggs: countSum}
		},
	}}
)

// d4From is the lower bound of the dashboard's recent window: d4WindowMs
// before the newest produced row, and never before from.
func d4From(p *pipeline, from int64) int64 {
	if recent := p.eventNow.Load() - d4WindowMs; recent > from {
		return recent
	}
	return from
}

// verify runs each shape restricted to rows that cannot have expired and
// compares the answer with the reference. It returns one error per shape
// that differs.
func verify(p *pipeline, shapes []shape) []error {
	from := p.safeFrom.Load()
	var errs []error
	for _, s := range shapes {
		q := s.ref(p, from)
		res, err := p.plat.SQL.Query(s.sql(p, from))
		if err == nil {
			err = check(q, evaluate(q), res.Columns, res.Rows)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", s.name, err))
		}
	}
	return errs
}

// references are the reference answers over exactly the preload — what a
// read-only workload's table holds for the whole timed phase.
type references struct {
	queries map[string]refQuery
	answers map[string]refAnswer
}

// preloadReferences evaluates the workload's shapes over the preload. Rows
// are a function of the seed, so a model pipeline that has produced the
// preload and nothing else stands in for the real one; the answers are
// computed once per run, outside every set-up.
func preloadReferences(w workload, g *gen) *references {
	if !w.checkEveryOp {
		return nil
	}
	model := &pipeline{g: g, size: w.size, nextRow: w.size.preloadRows, flushFrom: -1}
	refs := &references{queries: map[string]refQuery{}, answers: map[string]refAnswer{}}
	for _, s := range w.shapes {
		q := s.ref(model, 0)
		refs.queries[s.name], refs.answers[s.name] = q, evaluate(q)
	}
	return refs
}
