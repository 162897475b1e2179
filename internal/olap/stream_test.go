package olap

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/record"
)

// drainStream pulls every batch, copying rows out (batches are recycled).
func drainStream(t *testing.T, qs *QueryStream) [][]any {
	t.Helper()
	var rows [][]any
	for {
		rb, err := qs.Next(context.Background())
		if err == io.EOF {
			return rows
		}
		if err != nil {
			t.Fatal(err)
		}
		if rb.Len == 0 {
			t.Fatal("stream yielded an empty batch")
		}
		rows = rb.AppendRows(rows)
	}
}

// sortedRows canonicalizes row order for comparing unordered selections.
func sortedRows(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r...)
	}
	sort.Strings(out)
	return out
}

func TestExecuteStreamMatchesExecute(t *testing.T) {
	d, _ := newDeployment(t, 3, 1, false, BackupP2P, nil)
	ingestOrders(t, d, 437, 3) // sealed + consuming mix
	b := NewBroker(d)
	queries := []*Query{
		{},
		{Select: []string{"order_id", "city", "amount"}},
		{Filters: []Filter{{Column: "city", Op: OpEq, Value: "sf"}}},
		{Filters: []Filter{{Column: "amount", Op: OpGt, Value: 25.0}}, Select: []string{"order_id", "amount"}},
		{Filters: []Filter{
			{Column: "city", Op: OpIn, Values: []any{"sf", "nyc"}},
			{Column: "amount", Op: OpBetween, Value: 10.0, Value2: 900.0},
		}},
		{Filters: []Filter{{Column: "city", Op: OpEq, Value: "atlantis"}}}, // empty
	}
	for qi, q := range queries {
		resp, err := b.Execute(context.Background(), &QueryRequest{Query: q})
		if err != nil {
			t.Fatalf("query %d execute: %v", qi, err)
		}
		qs, err := b.ExecuteStream(context.Background(), &QueryRequest{Query: q})
		if err != nil {
			t.Fatalf("query %d stream: %v", qi, err)
		}
		got := drainStream(t, qs)
		if !reflect.DeepEqual(sortedRows(got), sortedRows(rowsOf(resp))) {
			t.Errorf("query %d: streamed rows differ from Execute (%d vs %d rows)", qi, len(got), resp.Batch.Len)
		}
		st := qs.Stats()
		if st.RowsShipped != int64(len(got)) {
			t.Errorf("query %d: RowsShipped = %d, rows pulled = %d", qi, st.RowsShipped, len(got))
		}
		if st.RowsScanned != resp.Stats.RowsScanned {
			t.Errorf("query %d: RowsScanned = %d, Execute saw %d", qi, st.RowsScanned, resp.Stats.RowsScanned)
		}
		if err := qs.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestExecuteStreamUpsertValidity(t *testing.T) {
	d, _ := newDeployment(t, 2, 1, true, BackupP2P, nil)
	for round := 0; round < 12; round++ {
		for k := 0; k < 10; k++ {
			if err := d.Ingest(k%2, orderRowWith(k, round)); err != nil {
				t.Fatal(err)
			}
		}
	}
	b := NewBroker(d)
	q := &Query{Select: []string{"order_id", "amount"}}
	resp, err := b.Execute(context.Background(), &QueryRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := b.ExecuteStream(context.Background(), &QueryRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()
	got := drainStream(t, qs)
	if len(got) != 10 {
		t.Fatalf("streamed %d rows, want 10 live upsert rows", len(got))
	}
	if !reflect.DeepEqual(sortedRows(got), sortedRows(rowsOf(resp))) {
		t.Error("streamed upsert rows differ from Execute")
	}
}

// orderRowWith builds one upsert round's row for key k.
func orderRowWith(k, round int) map[string]any {
	return map[string]any{
		"order_id": fmt.Sprintf("order-%d", k),
		"city":     "sf",
		"status":   "placed",
		"amount":   float64(round),
		"items":    int64(1),
		"ts":       int64(1700000000000 + round),
	}
}

// TestExecuteStreamRefusesFolds: a query whose first row depends on every
// input row has nothing to stream — ExecuteStream says so with a typed error
// instead of materializing it behind the stream's back.
func TestExecuteStreamRefusesFolds(t *testing.T) {
	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ingestOrders(t, d, 300, 2)
	b := NewBroker(d)
	for qi, q := range []*Query{
		{GroupBy: []string{"city"}, Aggs: []AggSpec{{Kind: AggSum, Column: "amount"}, {Kind: AggCount}}},
		{Aggs: []AggSpec{{Kind: AggCount}}},
		{OrderBy: []OrderSpec{{Column: "amount", Desc: true}, {Column: "order_id"}}, Limit: 7},
	} {
		qs, err := b.ExecuteStream(context.Background(), &QueryRequest{Query: q})
		if err == nil {
			qs.Close()
		}
		if !errors.Is(err, ErrNotStreamable) {
			t.Errorf("query %d: ExecuteStream = %v, want ErrNotStreamable", qi, err)
		}
	}
}

func TestExecuteStreamLimitOffset(t *testing.T) {
	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ingestOrders(t, d, 400, 2)
	b := NewBroker(d)
	full, err := b.Execute(context.Background(), &QueryRequest{Query: &Query{Select: []string{"order_id"}}})
	if err != nil {
		t.Fatal(err)
	}
	all := map[string]int{}
	for _, r := range rowsOf(full) {
		all[fmt.Sprint(r[0])]++
	}
	for _, tc := range []struct{ limit, offset, want int }{
		{limit: 25, want: 25},
		{limit: 25, offset: 10, want: 25},
		{offset: 390, want: 10},
		{limit: 1000, want: 400},
	} {
		q := &Query{Select: []string{"order_id"}, Limit: tc.limit, Offset: tc.offset}
		qs, err := b.ExecuteStream(context.Background(), &QueryRequest{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		got := drainStream(t, qs)
		if len(got) != tc.want {
			t.Errorf("limit=%d offset=%d: %d rows, want %d", tc.limit, tc.offset, len(got), tc.want)
		}
		for _, r := range got {
			if all[fmt.Sprint(r[0])] == 0 {
				t.Errorf("limit=%d offset=%d: row %v not in full result", tc.limit, tc.offset, r[0])
			}
		}
		qs.Close()
	}
}

// TestExecuteStreamLimitEndsOnTheSpendingBatch: the batch that spends the
// LIMIT ends the stream — the following Next is io.EOF at once, it does not
// wait for one more batch (one more segment scan) to arrive and be thrown
// away. With every segment scan delayed, that wait is the delay.
func TestExecuteStreamLimitEndsOnTheSpendingBatch(t *testing.T) {
	d, servers := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ingestOrders(t, d, 400, 2) // several sealed segments per server
	const delay = 300 * time.Millisecond
	for _, s := range servers {
		s.SetScanDelay(delay)
		defer s.SetScanDelay(0)
	}
	qs, err := NewBroker(d).ExecuteStream(context.Background(), &QueryRequest{Query: &Query{Select: []string{"order_id"}, Limit: 5}})
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()
	rb, err := qs.Next(context.Background())
	if err != nil || rb.Len != 5 {
		t.Fatalf("first Next = %v rows, err %v; want the 5 LIMIT rows", rb, err)
	}
	start := time.Now()
	if _, err := qs.Next(context.Background()); err != io.EOF {
		t.Fatalf("Next after the LIMIT was spent = %v, want io.EOF", err)
	}
	if took := time.Since(start); took > delay/3 {
		t.Fatalf("Next after the LIMIT was spent took %v: it waited for another segment scan (delay %v)", took, delay)
	}
	qs.Close()
	if st := qs.Stats(); st.RowsShipped < 5 || st.SegmentsScanned == 0 {
		t.Errorf("stats after Close = %+v, want the work actually done", st)
	}
}

func TestExecuteStreamCloseMidStreamLeaksNothing(t *testing.T) {
	d, _ := newDeployment(t, 3, 1, false, BackupP2P, nil)
	ingestOrders(t, d, 1000, 3)
	b := NewBroker(d)
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		qs, err := b.ExecuteStream(context.Background(), &QueryRequest{Query: &Query{}})
		if err != nil {
			t.Fatal(err)
		}
		// Pull one batch, then abandon: Close must stop and reap every
		// producer goroutine.
		if _, err := qs.Next(context.Background()); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if err := qs.Close(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: before=%d after=%d", before, runtime.NumGoroutine())
}

func TestExecuteStreamCancelMidStream(t *testing.T) {
	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ingestOrders(t, d, 500, 2)
	b := NewBroker(d)
	ctx, cancel := context.WithCancel(context.Background())
	qs, err := b.ExecuteStream(ctx, &QueryRequest{Query: &Query{}})
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()
	if _, err := qs.Next(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	for {
		_, err := qs.Next(ctx)
		if err == nil {
			continue // batches buffered before the cancel may still arrive
		}
		if errors.Is(err, context.Canceled) {
			break
		}
		t.Fatalf("post-cancel error = %v, want context.Canceled", err)
	}
	// The error is sticky.
	if _, err := qs.Next(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("sticky error = %v", err)
	}
}

func TestExecuteStreamServerDownFailsAtRouting(t *testing.T) {
	d, servers := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ingestOrders(t, d, 200, 2)
	for p := 0; p < 2; p++ {
		if err := d.Seal(p); err != nil {
			t.Fatal(err)
		}
	}
	servers[0].SetDown(true)
	qs, err := NewBroker(d).ExecuteStream(context.Background(), &QueryRequest{Query: &Query{}})
	if err == nil {
		qs.Close()
	}
	if !errors.Is(err, ErrSegmentUnavailable) {
		t.Fatalf("stream open with a dead unreplicated server = %v, want ErrSegmentUnavailable", err)
	}
}

func TestExecuteStreamTimeoutSurfacesError(t *testing.T) {
	d, servers := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ingestOrders(t, d, 400, 2)
	for _, s := range servers {
		s.SetScanDelay(25 * time.Millisecond)
		defer s.SetScanDelay(0)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	qs, err := NewBroker(d).ExecuteStream(ctx, &QueryRequest{Query: &Query{}})
	if errors.Is(err, context.DeadlineExceeded) {
		return // the deadline passed before the stream opened: an error all the same
	}
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()
	for {
		_, nerr := qs.Next(context.Background())
		if nerr == nil {
			continue
		}
		if errors.Is(nerr, context.DeadlineExceeded) {
			return // truncation surfaced as an error, not a quiet EOF
		}
		t.Fatalf("timed-out stream error = %v, want context.DeadlineExceeded", nerr)
	}
}

func TestStreamSelectSegmentLevel(t *testing.T) {
	// > BatchRows rows so the scan spans several selection windows.
	seg, err := BuildSegment("s", ordersSchema(), orderRows(10000), IndexConfig{}, -1)
	if err != nil {
		t.Fatal(err)
	}
	q := &Query{Select: []string{"city", "amount"}, Filters: []Filter{{Column: "amount", Op: OpGe, Value: 20.5}}}
	want, err := seg.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := &batchPool{}
	var rows [][]any
	st, more, err := seg.scan().streamSelect(context.Background(), q, nil, pool, func(rb *record.Batch) bool {
		rows = rb.AppendRows(rows)
		pool.put(rb)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !more {
		t.Error("full drain should report more=true")
	}
	if !reflect.DeepEqual(sortedRows(rows), sortedRows(rowsOf(want))) {
		t.Errorf("segment stream mismatch: %d rows vs %d", len(rows), want.Batch.Len)
	}
	if st.RowsShipped != int64(len(rows)) {
		t.Errorf("RowsShipped = %d, want %d", st.RowsShipped, len(rows))
	}
	// Early stop: yield false after the first batch halts the scan.
	n := 0
	_, more, err = seg.scan().streamSelect(context.Background(), q, nil, pool, func(rb *record.Batch) bool {
		n += rb.Len
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if more {
		t.Error("early stop should report more=false")
	}
	if n == 0 || n >= want.Batch.Len {
		t.Errorf("early stop consumed %d of %d rows", n, want.Batch.Len)
	}
}
