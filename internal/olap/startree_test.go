package olap

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/metadata"
	"repro/internal/record"
)

func starConfig(maxLeaf int) IndexConfig {
	return IndexConfig{
		StarTree: &StarTreeConfig{
			Dimensions:     []string{"city", "status"},
			Metrics:        []string{"amount"},
			MaxLeafRecords: maxLeaf,
		},
	}
}

func TestStarTreeEligibility(t *testing.T) {
	seg := buildTestSegment(t, orderRows(100), starConfig(1))
	tree := seg.Tree
	if tree == nil {
		t.Fatal("star tree not built")
	}
	eligible := []*Query{
		{GroupBy: []string{"city"}, Aggs: []AggSpec{{Kind: AggSum, Column: "amount"}}},
		{GroupBy: []string{"city", "status"}, Aggs: []AggSpec{{Kind: AggCount}}},
		{Filters: []Filter{{Column: "city", Op: OpEq, Value: "sf"}}, Aggs: []AggSpec{{Kind: AggSum, Column: "amount"}}},
	}
	for i, q := range eligible {
		if !tree.Eligible(q, q.Filters) {
			t.Errorf("query %d should be star-tree eligible", i)
		}
	}
	ineligible := []*Query{
		{Select: []string{"city"}},
		{GroupBy: []string{"items"}, Aggs: []AggSpec{{Kind: AggCount}}},                                  // non-tree dim
		{Filters: []Filter{{Column: "amount", Op: OpGt, Value: 5.0}}, Aggs: []AggSpec{{Kind: AggCount}}}, // range filter
		{Aggs: []AggSpec{{Kind: AggSum, Column: "items"}}},                                               // non-tree metric
	}
	for i, q := range ineligible {
		if tree.Eligible(q, q.Filters) {
			t.Errorf("query %d should NOT be star-tree eligible", i)
		}
	}
}

func TestStarTreeMatchesScan(t *testing.T) {
	rows := orderRows(500)
	plain := buildTestSegment(t, rows, IndexConfig{})
	for _, maxLeaf := range []int{1, 10, 100, 10000} {
		starred := buildTestSegment(t, rows, starConfig(maxLeaf))
		queries := []*Query{
			{GroupBy: []string{"city"}, Aggs: []AggSpec{{Kind: AggSum, Column: "amount"}, {Kind: AggCount}}},
			{GroupBy: []string{"city", "status"}, Aggs: []AggSpec{{Kind: AggCount}}},
			{GroupBy: []string{"status"}, Aggs: []AggSpec{{Kind: AggMin, Column: "amount"}, {Kind: AggMax, Column: "amount"}}},
			{Filters: []Filter{{Column: "city", Op: OpEq, Value: "la"}}, GroupBy: []string{"status"}, Aggs: []AggSpec{{Kind: AggSum, Column: "amount"}}},
			{Filters: []Filter{{Column: "city", Op: OpEq, Value: "la"}, {Column: "status", Op: OpEq, Value: "placed"}}, Aggs: []AggSpec{{Kind: AggCount}}},
			{Aggs: []AggSpec{{Kind: AggSum, Column: "amount"}}},
		}
		for qi, q := range queries {
			want, err := plain.Execute(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := starred.Execute(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats.StarTreeServed != 1 {
				t.Errorf("maxLeaf=%d q%d: not served by star-tree", maxLeaf, qi)
			}
			if !reflect.DeepEqual(rowsOf(got), rowsOf(want)) {
				t.Errorf("maxLeaf=%d q%d:\n got %v\nwant %v", maxLeaf, qi, rowsOf(got), rowsOf(want))
			}
		}
	}
}

func TestStarTreeFilterOnMissingValue(t *testing.T) {
	seg := buildTestSegment(t, orderRows(100), starConfig(10))
	q := &Query{Filters: []Filter{{Column: "city", Op: OpEq, Value: "tokyo"}}, Aggs: []AggSpec{{Kind: AggCount}}}
	r, err := seg.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Batch.Len != 1 || rowsOf(r)[0][0].(int64) != 0 {
		t.Errorf("missing-value star query = %v", rowsOf(r))
	}
}

func TestStarTreeUpsertBypassed(t *testing.T) {
	// A validity bitmap (upsert) must bypass the star-tree (pre-aggregates
	// would include superseded rows).
	seg := buildTestSegment(t, orderRows(100), starConfig(10))
	valid := NewBitmap(seg.NumRows)
	valid.Fill()
	valid.Clear(0)
	q := &Query{Aggs: []AggSpec{{Kind: AggCount}}}
	r, err := seg.Execute(q, valid)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.StarTreeServed != 0 {
		t.Error("star-tree should be bypassed under a validity bitmap")
	}
	if rowsOf(r)[0][0].(int64) != 99 {
		t.Errorf("count = %v, want 99", rowsOf(r)[0][0])
	}
}

func TestStarTreeSmallerLeafMoreNodes(t *testing.T) {
	rows := orderRows(1000)
	small := buildTestSegment(t, rows, starConfig(1))
	big := buildTestSegment(t, rows, starConfig(10000))
	if small.Tree.Nodes <= big.Tree.Nodes {
		t.Errorf("maxLeaf=1 nodes %d should exceed maxLeaf=10000 nodes %d",
			small.Tree.Nodes, big.Tree.Nodes)
	}
}

func TestStarTreeHighCardinality(t *testing.T) {
	// Many distinct users, few cities: group-by city via star-tree must
	// still be exact.
	var rows []record.Record
	for i := 0; i < 2000; i++ {
		rows = append(rows, record.Record{
			"order_id": fmt.Sprintf("o%d", i),
			"city":     []string{"sf", "nyc"}[i%2],
			"status":   fmt.Sprintf("u%d", i%97), // high-cardinality dim
			"amount":   1.0,
			"items":    int64(1),
			"ts":       int64(1700000000000 + i),
		})
	}
	plain := buildTestSegment(t, rows, IndexConfig{})
	starred := buildTestSegment(t, rows, starConfig(16))
	q := &Query{GroupBy: []string{"city"}, Aggs: []AggSpec{{Kind: AggSum, Column: "amount"}}}
	want, _ := plain.Execute(q, nil)
	got, err := starred.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rowsOf(got), rowsOf(want)) {
		t.Errorf("high-cardinality star-tree mismatch: %v vs %v", rowsOf(got), rowsOf(want))
	}
}

// A star-tree over a string metric does not answer SUM, AVG, MIN or MAX of
// it: the segment refuses such a query with its tree as it does without,
// and COUNT of the metric is still the tree's.
func TestStarTreeRefusesStringMetric(t *testing.T) {
	cfg := starConfig(10)
	cfg.StarTree.Dimensions, cfg.StarTree.Metrics = []string{"city"}, []string{"amount", "status"}
	rows := orderRows(100)
	for _, seg := range []*Segment{buildTestSegment(t, rows, cfg), buildTestSegment(t, rows, IndexConfig{})} {
		for _, kind := range []AggKind{AggSum, AggAvg, AggMin, AggMax} {
			q := &Query{GroupBy: []string{"city"}, Aggs: []AggSpec{{Kind: kind, Column: "status"}}}
			if r, err := seg.Execute(q, nil); err == nil {
				t.Errorf("tree=%v: %s(status) answered %v", seg.Tree != nil, kind, rowsOf(r))
			}
		}
		r, err := seg.Execute(&Query{Aggs: []AggSpec{{Kind: AggCount, Column: "status"}}}, nil)
		if err != nil || rowsOf(r)[0][0] != int64(100) || r.Stats.StarTreeServed != boolInt(seg.Tree != nil) {
			t.Errorf("tree=%v: COUNT(status) = %v, %v (served by tree %d)", seg.Tree != nil, r, err, r.Stats.StarTreeServed)
		}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestStarTreeBadConfig(t *testing.T) {
	if _, err := BuildSegment("x", ordersSchema(), orderRows(10), IndexConfig{
		StarTree: &StarTreeConfig{Dimensions: []string{"ghost"}, Metrics: []string{"amount"}},
	}, -1); err == nil {
		t.Error("unknown star-tree dimension should fail build")
	}
	if _, err := BuildSegment("x", ordersSchema(), orderRows(10), IndexConfig{
		StarTree: &StarTreeConfig{Dimensions: []string{"city"}, Metrics: []string{"ghost"}},
	}, -1); err == nil {
		t.Error("unknown star-tree metric should fail build")
	}
	// Each dimension can double the tree, and a decoded segment rebuilds its
	// tree from a configuration read from the deep store: a dimension
	// listed twice, or more than maxStarDimensions, fails the build.
	if _, err := BuildSegment("x", ordersSchema(), orderRows(10), IndexConfig{
		StarTree: &StarTreeConfig{Dimensions: []string{"city", "status", "city"}, Metrics: []string{"amount"}},
	}, -1); err == nil {
		t.Error("a star-tree dimension listed twice should fail build")
	}
	wide := &metadata.Schema{Name: "wide"}
	row := record.Record{}
	var dims []string
	for i := range maxStarDimensions + 1 {
		name := fmt.Sprintf("d%d", i)
		wide.Fields = append(wide.Fields, metadata.Field{Name: name, Type: metadata.TypeLong, Dimension: true})
		row[name], dims = int64(i), append(dims, name)
	}
	if _, err := BuildSegment("x", wide, []record.Record{row}, IndexConfig{
		StarTree: &StarTreeConfig{Dimensions: dims, Metrics: []string{"d0"}},
	}, -1); err == nil {
		t.Errorf("a star-tree of %d dimensions should fail build", len(dims))
	}
	if _, err := BuildSegment("x", wide, []record.Record{row}, IndexConfig{
		StarTree: &StarTreeConfig{Dimensions: dims[:maxStarDimensions], Metrics: []string{"d0"}},
	}, -1); err != nil {
		t.Errorf("a star-tree of %d dimensions: %v", maxStarDimensions, err)
	}
}
