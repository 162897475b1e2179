package olap

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/objstore"
)

// Time-windowed queries must stay exact on consuming (unsealed) rows too:
// consuming segments have no prunable bounds, so the window applies as a
// row predicate during the raw-row scan.
func TestTimeWindowOnConsumingSegment(t *testing.T) {
	d, _ := newDeployment(t, 1, 1, false, BackupP2P, nil)
	rows := orderRows(30) // below the 50-row seal threshold: stays consuming
	for _, r := range rows {
		if err := d.Ingest(0, r); err != nil {
			t.Fatal(err)
		}
	}
	from, to := int64(1700000000000+5*1000), int64(1700000000000+14*1000)
	q := &Query{
		Time: &TimeRange{From: from, To: to},
		Aggs: []AggSpec{{Kind: AggCount}},
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
		t.Errorf("windowed consuming count = %d, want %d", got, want)
	}
}

// A time window that only partially overlaps a segment must bypass the
// star-tree (pre-aggregates can't apply the time predicate), while a window
// containing the whole segment keeps the fast path.
func TestStarTreeVsTimeWindow(t *testing.T) {
	rows := orderRows(400)
	seg, err := BuildSegment("st", ordersSchema(), rows, IndexConfig{
		StarTree: &StarTreeConfig{Dimensions: []string{"city"}, Metrics: []string{"amount"}},
	}, -1)
	if err != nil {
		t.Fatal(err)
	}
	base := &Query{GroupBy: []string{"city"}, Aggs: []AggSpec{{Kind: AggSum, Column: "amount"}}}

	full := *base
	full.Time = &TimeRange{From: seg.MinTime, To: seg.MaxTime}
	res, err := seg.Execute(&full, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.StarTreeServed != 1 {
		t.Error("containing window should keep the star-tree fast path")
	}

	partial := *base
	partial.Time = &TimeRange{From: seg.MinTime, To: seg.MinTime + 100*1000}
	got, err := seg.Execute(&partial, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.StarTreeServed != 0 {
		t.Error("partial window must bypass the star-tree")
	}
	explicit := *base
	explicit.Filters = []Filter{{Column: "ts", Op: OpBetween, Value: partial.Time.From, Value2: partial.Time.To}}
	want, err := seg.Execute(&explicit, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Errorf("windowed star-tree segment differs from explicit filter:\n got %v\nwant %v", got.Rows, want.Rows)
	}
}

// Server-level pruning: out-of-window segments are skipped before any scan
// and reported, and an all-pruned query still finalizes correctly.
func TestServerTimePruning(t *testing.T) {
	d, _ := newDeployment(t, 1, 1, false, BackupP2P, objstore.NewMemStore())
	ingestOrders(t, d, 200, 1) // 4 sealed segments of 50 rows
	q := &Query{
		Time: &TimeRange{From: 0, To: 1}, // far before all data
		Aggs: []AggSpec{{Kind: AggCount}},
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
}
