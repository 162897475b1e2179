package olap

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/metadata"
	"repro/internal/objstore"
	"repro/internal/obs"
	"repro/internal/record"
)

// A filter on the time column stays exact on consuming (unsealed) rows: a
// store the bounds overlap is scanned, and the filter applies row by row.
func TestTimeFilterOnConsumingSegment(t *testing.T) {
	d, _ := newDeployment(t, 1, 1, false, BackupP2P, nil)
	rows := orderRows(30) // below the 50-row seal threshold: stays consuming
	for _, r := range rows {
		if err := d.Ingest(0, r); err != nil {
			t.Fatal(err)
		}
	}
	from, to := int64(1700000000000+5*1000), int64(1700000000000+14*1000)
	q := &Query{
		Filters: []Filter{{Column: "ts", Op: OpBetween, Value: from, Value2: to}},
		Aggs:    []AggSpec{{Kind: AggCount}},
	}
	res, err := NewBroker(d).Execute(context.Background(), &QueryRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for _, r := range rows {
		if ts := r.Long("ts"); ts >= from && ts <= to {
			want++
		}
	}
	if got := res.Rows[0][0].(int64); got != want {
		t.Errorf("filtered consuming count = %d, want %d", got, want)
	}
}

// A consuming store whose times a time filter misses is skipped as a sealed
// segment is pruned: its scan span examines no row, and the answer is the
// same as with the store scanned.
func TestTimeFilterSkipsConsumingStore(t *testing.T) {
	d, _ := newDeployment(t, 1, 1, false, BackupP2P, nil)
	rows := orderRows(30) // below the 50-row seal threshold: stays consuming
	for _, r := range rows {
		if err := d.Ingest(0, r); err != nil {
			t.Fatal(err)
		}
	}
	tracer := obs.NewTracer(obs.TracerConfig{Recent: 1})
	b := NewBrokerWithOptions(d, BrokerOptions{Tracer: tracer})
	last := rows[len(rows)-1].Long("ts")
	for _, c := range []struct {
		filter Filter
		count  int64
		rowsIn string
	}{
		{Filter{Column: "ts", Op: OpGt, Value: last}, 0, "0"},
		{Filter{Column: "ts", Op: OpLt, Value: rows[0].Long("ts")}, 0, "0"},
		{Filter{Column: "ts", Op: OpGe, Value: last}, 1, "30"},
		{Filter{Column: "ts", Op: OpBetween, Value: last + 1, Value2: last - 1}, 0, "0"},
	} {
		q := &Query{Filters: []Filter{c.filter}, Aggs: []AggSpec{{Kind: AggCount}}}
		res, err := b.Execute(t.Context(), &QueryRequest{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].(int64); got != c.count {
			t.Errorf("%v: COUNT(*) = %d, want %d", c.filter, got, c.count)
		}
		sp := tracer.Recent()[0].Find("consuming.scan")
		if sp == nil {
			t.Fatalf("%v: no consuming.scan span", c.filter)
		}
		rowsIn := ""
		for _, a := range sp.Attrs {
			if a.Key == "rows_in" {
				rowsIn = a.Value
			}
		}
		if rowsIn != c.rowsIn {
			t.Errorf("%v: rows_in = %q, want %s", c.filter, rowsIn, c.rowsIn)
		}
	}
}

// An ordered selection whose every unit is pruned answers no rows under its
// columns, not an error that its ORDER BY column is missing.
func TestPrunedSelectionKeepsItsColumns(t *testing.T) {
	d, _ := newDeployment(t, 1, 1, false, BackupP2P, nil)
	ingestOrders(t, d, 50, 1) // one sealed segment, no consuming rows
	for _, sel := range [][]string{nil, {"city", "amount"}} {
		q := &Query{Select: sel, Filters: []Filter{{Column: "ts", Op: OpLt, Value: int64(0)}}, OrderBy: []OrderSpec{{Column: "amount"}}, Limit: 5}
		res, err := NewBroker(d).Execute(t.Context(), &QueryRequest{Query: q})
		if err != nil {
			t.Fatalf("SELECT %v: %v", sel, err)
		}
		if want := NewBroker(d).selection(q); len(res.Rows) != 0 || !reflect.DeepEqual(res.Columns, want) || res.Stats.SegmentsPruned != 1 {
			t.Errorf("SELECT %v = %v under %v, %d pruned; want no rows under %v, 1 pruned", sel, res.Rows, res.Columns, res.Stats.SegmentsPruned, want)
		}
	}
}

// A time filter that holds the whole segment is dropped from its scan, so
// the star-tree still answers; one that cuts the segment bypasses the tree
// (pre-aggregates cannot apply it). Both answer as a tree-less segment does.
func TestStarTreeVsTimeFilter(t *testing.T) {
	rows := orderRows(400)
	seg, err := BuildSegment("st", ordersSchema(), rows, IndexConfig{
		StarTree: &StarTreeConfig{Dimensions: []string{"city"}, Metrics: []string{"amount"}},
	}, -1)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := BuildSegment("plain", ordersSchema(), rows, IndexConfig{}, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		filter Filter
		tree   bool
	}{
		{"containing between", Filter{Column: "ts", Op: OpBetween, Value: seg.MinTime, Value2: seg.MaxTime}, true},
		{"containing lower bound", Filter{Column: "ts", Op: OpGe, Value: float64(seg.MinTime - 1)}, true},
		{"cutting between", Filter{Column: "ts", Op: OpBetween, Value: seg.MinTime, Value2: seg.MinTime + 100*1000}, false},
		{"cutting strict bound", Filter{Column: "ts", Op: OpLt, Value: seg.MaxTime}, false},
	} {
		q := &Query{GroupBy: []string{"city"}, Aggs: []AggSpec{{Kind: AggSum, Column: "amount"}}, Filters: []Filter{c.filter}}
		got, err := seg.Execute(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if served := got.Stats.StarTreeServed == 1; served != c.tree {
			t.Errorf("%s: star-tree served = %v, want %v", c.name, served, c.tree)
		}
		want, err := plain.Execute(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("%s: star-tree segment differs from a tree-less one:\n got %v\nwant %v", c.name, got.Rows, want.Rows)
		}
	}
}

// Server-level pruning: segments outside a time filter's bounds are skipped
// before any scan and reported, and an all-pruned query still finalizes
// correctly.
func TestServerTimePruning(t *testing.T) {
	d, _ := newDeployment(t, 1, 1, false, BackupP2P, objstore.NewMemStore())
	ingestOrders(t, d, 200, 1) // 4 sealed segments of 50 rows
	q := &Query{
		Filters: []Filter{{Column: "ts", Op: OpBetween, Value: 0, Value2: 1}}, // far before all data
		Aggs:    []AggSpec{{Kind: AggCount}},
	}
	res, err := NewBroker(d).Execute(context.Background(), &QueryRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SegmentsPruned != 4 || res.Stats.SegmentsScanned != 0 {
		t.Errorf("pruned=%d scanned=%d, want 4/0", res.Stats.SegmentsPruned, res.Stats.SegmentsScanned)
	}
	if got := res.Rows[0][0].(int64); got != 0 {
		t.Errorf("all-pruned count = %d, want 0", got)
	}
	// Pruning every segment hides no error: a column the table lacks, in
	// any role, fails before any segment is pruned.
	for _, c := range []struct {
		role string
		q    Query
	}{
		{"filter", Query{Filters: append(q.Filters, Filter{Column: "ghost", Op: OpEq, Value: 1}), Aggs: q.Aggs}},
		{"group-by", Query{Filters: q.Filters, GroupBy: []string{"ghost"}, Aggs: q.Aggs}},
		{"aggregation", Query{Filters: q.Filters, Aggs: []AggSpec{{Kind: AggSum, Column: "ghost"}}}},
		{"select", Query{Filters: q.Filters, Select: []string{"ghost"}}},
	} {
		var unknown *UnknownColumnError
		if _, err := NewBroker(d).Execute(context.Background(), &QueryRequest{Query: &c.q}); !errors.As(err, &unknown) || unknown.Role != c.role {
			t.Errorf("all-pruned query with an unknown %s column: err = %v, want an UnknownColumnError of that role", c.role, err)
		}
	}
}

// A NULL time lies in no range: `ts BETWEEN 0 AND 20` over times {NULL, 5,
// 10} counts 2 on a sealed segment, on a consuming store and through the
// broker over both, although the range holds the rows' time bounds (a NULL
// time counts as 0 in them).
func TestNullTimeLiesInNoRange(t *testing.T) {
	schema := &metadata.Schema{
		Name: "events",
		Fields: []metadata.Field{
			{Name: "id", Type: metadata.TypeString},
			{Name: "ts", Type: metadata.TypeTimestamp, Nullable: true},
		},
		TimeField: "ts",
	}
	rows := []record.Record{{"id": "a"}, {"id": "b", "ts": int64(5)}, {"id": "c", "ts": int64(10)}}
	q := &Query{Filters: []Filter{{Column: "ts", Op: OpBetween, Value: 0, Value2: 20}}, Aggs: []AggSpec{{Kind: AggCount}}}
	count := func(where string, res *QueryResponse, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if got := res.Rows[0][0]; got != int64(2) {
			t.Errorf("%s: count = %v, want 2", where, got)
		}
	}
	seg, err := BuildSegment("s", schema, rows, IndexConfig{}, -1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := seg.Execute(q, nil)
	count("sealed segment", res, err)
	m := newMutableSegment("m", schema, len(rows), nil)
	for _, r := range rows {
		if _, err := m.add(r); err != nil {
			t.Fatal(err)
		}
	}
	p, err := m.snapshot().executePartial(q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err = p.Finalize(q)
	count("consuming store", res, err)

	d, err := NewDeployment(DeploymentConfig{
		Table:        TableConfig{Name: "events", Schema: schema, SegmentRows: 50},
		Servers:      []*Server{NewServer("s0")},
		SegmentStore: objstore.NewMemStore(),
		Backup:       BackupP2P,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.IngestBatch(0, rows); err != nil {
		t.Fatal(err)
	}
	b := NewBroker(d)
	broker := func(where string) {
		t.Helper()
		resp, err := b.Execute(context.Background(), &QueryRequest{Query: q})
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		count(where, resp, nil)
	}
	broker("broker, consuming")
	if err := d.Seal(0); err != nil {
		t.Fatal(err)
	}
	broker("broker, sealed")
}
