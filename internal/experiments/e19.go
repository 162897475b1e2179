package experiments

import (
	"reflect"
	"time"

	"repro/internal/olap"
)

// ---- E19: bounded top-K execution — ORDER BY/LIMIT pushdown (§4.3) ----

// E19 measures the bounded top-K execution path against exact full-sort
// execution (TrimExact) on the dashboard query shape the paper's OLAP layer
// is optimized for: GROUP BY high-cardinality ORDER BY agg DESC LIMIT 10,
// plus the equivalent ordered selection.
//
//   - groups shipped: with trimming, each server sends at most
//     max(Limit*5, TrimSize) candidate groups to the broker instead of every
//     group it holds — orders of magnitude fewer for high-card group-bys;
//   - rows shipped: ordered selections keep their best Limit+Offset rows
//     per segment instead of materializing every match;
//   - exactness: the group-by key is unique per row here, so every group
//     lives in exactly one segment and the trimmed result must equal the
//     exact one bit for bit (the experiment panics otherwise).
func E19(rowsN int) []Row {
	if rowsN <= 0 {
		rowsN = 60_000
	}
	// 8 segments across 2 servers; order_id is unique per row, so the
	// grouped query below has rowsN candidate groups.
	d, _ := sealedOrders(rowsN, rowsN/8, 2, 2, 1)
	b := olap.NewBroker(d)

	grouped := &olap.Query{
		GroupBy: []string{"order_id"},
		Aggs:    []olap.AggSpec{{Kind: olap.AggSum, Column: "amount", As: "revenue"}},
		OrderBy: []olap.OrderSpec{{Column: "revenue", Desc: true}},
		Limit:   10,
	}
	selection := &olap.Query{
		Select:  []string{"order_id", "amount"},
		OrderBy: []olap.OrderSpec{{Column: "order_id", Desc: true}},
		Limit:   10,
	}

	const iters = 10
	run := func(q *olap.Query, exact bool) (*olap.QueryResponse, time.Duration) {
		req := &olap.QueryRequest{Query: q, TrimExact: exact}
		resp := mustExecute(b, req)
		start := time.Now()
		for i := 0; i < iters; i++ {
			resp = mustExecute(b, req)
		}
		return resp, time.Since(start) / iters
	}

	exactG, exactGLat := run(grouped, true)
	trimG, trimGLat := run(grouped, false)
	exactS, _ := run(selection, true)
	trimS, _ := run(selection, false)

	// Unique group keys make trimming provably exact here: verify it.
	match := 1.0
	if !reflect.DeepEqual(trimG.Rows, exactG.Rows) || !reflect.DeepEqual(trimS.Rows, exactS.Rows) {
		match = 0
	}

	exactShipped := float64(exactG.Stats.GroupsShipped + exactS.Stats.RowsShipped)
	trimShipped := float64(trimG.Stats.GroupsShipped + trimS.Stats.RowsShipped)
	return []Row{
		{"candidate_groups", float64(rowsN), "groups"},
		{"exact_groups_shipped", float64(exactG.Stats.GroupsShipped), "groups"},
		{"trim_groups_shipped", float64(trimG.Stats.GroupsShipped), "groups"},
		{"groups_reduction", float64(exactG.Stats.GroupsShipped) / float64(trimG.Stats.GroupsShipped), "x"},
		{"groups_trimmed", float64(trimG.Stats.GroupsTrimmed), "groups"},
		{"exact_rows_shipped", float64(exactS.Stats.RowsShipped), "rows"},
		{"trim_rows_shipped", float64(trimS.Stats.RowsShipped), "rows"},
		{"rows_reduction", float64(exactS.Stats.RowsShipped) / float64(trimS.Stats.RowsShipped), "x"},
		{"rows_heap_kept", float64(trimS.Stats.RowsHeapKept), "rows"},
		{"shipped_reduction", exactShipped / trimShipped, "x"},
		{"exact_group_query_us", float64(exactGLat.Microseconds()), "us"},
		{"trim_group_query_us", float64(trimGLat.Microseconds()), "us"},
		{"latency_ratio", float64(exactGLat) / float64(trimGLat), "x"},
		{"topk_exact_match", match, "bool"},
	}
}
