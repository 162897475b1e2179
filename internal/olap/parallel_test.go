package olap

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/record"
)

// parallelQueries is the query mix the serial-vs-parallel equivalence tests
// run: every aggregation kind (including the merge-sensitive AVG and
// DISTINCTCOUNT), filters, group-bys, and ordered selections.
func parallelQueries() []*Query {
	return []*Query{
		{Aggs: []AggSpec{{Kind: AggCount}}},
		{GroupBy: []string{"city"}, Aggs: []AggSpec{
			{Kind: AggSum, Column: "amount"},
			{Kind: AggMin, Column: "amount"},
			{Kind: AggMax, Column: "amount"},
			{Kind: AggAvg, Column: "amount"},
			{Kind: AggCount},
		}},
		{Aggs: []AggSpec{
			{Kind: AggDistinctCount, Column: "city"},
			{Kind: AggDistinctCount, Column: "order_id"},
		}},
		{
			Filters: []Filter{{Column: "status", Op: OpEq, Value: "delivered"}},
			GroupBy: []string{"city"},
			Aggs:    []AggSpec{{Kind: AggAvg, Column: "amount"}},
			OrderBy: []OrderSpec{{Column: "avg_amount", Desc: true}},
			Limit:   3,
		},
		{Select: []string{"order_id", "amount"}, OrderBy: []OrderSpec{{Column: "order_id"}}, Limit: 20},
	}
}

// TestParallelMatchesSerial checks that the worker-pool scatter produces
// byte-identical results to the serial segment loop for every query shape —
// the end-to-end guarantee that partial-aggregate merging is order-agnostic.
func TestParallelMatchesSerial(t *testing.T) {
	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ingestOrders(t, d, 437, 4) // sealed segments plus a consuming tail
	serial := NewBrokerWithOptions(d, BrokerOptions{Workers: 1})
	parallel := NewBrokerWithOptions(d, BrokerOptions{Workers: 8})
	for qi, q := range parallelQueries() {
		want, err := serial.Execute(context.Background(), &QueryRequest{Query: q})
		if err != nil {
			t.Fatalf("query %d serial: %v", qi, err)
		}
		got, err := parallel.Execute(context.Background(), &QueryRequest{Query: q})
		if err != nil {
			t.Fatalf("query %d parallel: %v", qi, err)
		}
		if len(q.Aggs) == 0 && len(q.OrderBy) == 0 {
			continue // unordered selections may differ in row order
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("query %d mismatch:\n got %v\nwant %v", qi, got.Rows, want.Rows)
		}
	}
}

// TestDistinctCountAcrossSegments checks DISTINCTCOUNT merges as a set
// union: values repeated in many segments count once, and the result
// matches a single-segment oracle.
func TestDistinctCountAcrossSegments(t *testing.T) {
	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ingestOrders(t, d, 300, 3)
	q := &Query{Aggs: []AggSpec{
		{Kind: AggDistinctCount, Column: "city"},
		{Kind: AggDistinctCount, Column: "order_id"},
	}}
	got, err := NewBroker(d).Execute(context.Background(), &QueryRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := BuildSegment("all", ordersSchema(), orderRows(300), IndexConfig{}, -1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Execute(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Errorf("distinctcount mismatch: got %v want %v", got.Rows, want.Rows)
	}
	if cities := got.Rows[0][0].(int64); cities != 4 {
		t.Errorf("distinct cities = %d, want 4", cities)
	}
	if ids := got.Rows[0][1].(int64); ids != 300 {
		t.Errorf("distinct order ids = %d, want 300", ids)
	}
}

// TestPartialMergeAssociativity checks the algebraic property the streaming
// merge relies on: folding segment partials in any grouping or order
// finalizes to the same result.
func TestPartialMergeAssociativity(t *testing.T) {
	rows := orderRows(300)
	segs := make([]*Segment, 3)
	for i := range segs {
		seg, err := BuildSegment("s", ordersSchema(), rows[i*100:(i+1)*100], IndexConfig{}, -1)
		if err != nil {
			t.Fatal(err)
		}
		segs[i] = seg
	}
	q := &Query{GroupBy: []string{"city"}, Aggs: []AggSpec{
		{Kind: AggAvg, Column: "amount"},
		{Kind: AggMin, Column: "amount"},
		{Kind: AggDistinctCount, Column: "status"},
	}}
	partial := func(i int) *Partial {
		p, err := segs[i].ExecutePartial(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	finalize := func(p *Partial) [][]any {
		res, err := p.Finalize(q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows
	}
	// (a ⊕ b) ⊕ c
	left := partial(0)
	left.Merge(partial(1))
	left.Merge(partial(2))
	// a ⊕ (b ⊕ c)
	right := partial(1)
	right.Merge(partial(2))
	outer := partial(0)
	outer.Merge(right)
	// c ⊕ a ⊕ b (commutation)
	perm := partial(2)
	perm.Merge(partial(0))
	perm.Merge(partial(1))

	want := finalize(left)
	if got := finalize(outer); !reflect.DeepEqual(got, want) {
		t.Errorf("associativity violated:\n got %v\nwant %v", got, want)
	}
	if got := finalize(perm); !reflect.DeepEqual(got, want) {
		t.Errorf("commutativity violated:\n got %v\nwant %v", got, want)
	}
}

// TestQueryCancellation checks a cancelled context aborts the scatter
// before (or during) execution and surfaces context.Canceled.
func TestQueryCancellation(t *testing.T) {
	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ingestOrders(t, d, 200, 2)
	b := NewBroker(d)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := b.Execute(ctx, &QueryRequest{Query: &Query{Aggs: []AggSpec{{Kind: AggCount}}}})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled query returned %v, want context.Canceled", err)
	}
	// An expired deadline surfaces as DeadlineExceeded (or, for a query
	// racing the deadline, success — both are acceptable outcomes; what
	// must not happen is a hang or a partial result with a nil error).
	tctx, tcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer tcancel()
	res, err := b.Execute(tctx, &QueryRequest{Query: &Query{Aggs: []AggSpec{{Kind: AggCount}}}})
	if err == nil {
		if res.Rows[0][0].(int64) != 200 {
			t.Errorf("timed-out query returned partial result %v with nil error", res.Rows)
		}
	} else if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("timeout query returned %v, want context.DeadlineExceeded", err)
	}
}

// TestMidQuerySetDown hammers queries while a server flaps up and down.
// Every query must either succeed with the full count or fail with a
// routing/serving error — never deadlock, race, or return a partial count.
func TestMidQuerySetDown(t *testing.T) {
	d, servers := newDeployment(t, 3, 2, false, BackupP2P, nil)
	ingestOrders(t, d, 400, 4)
	for p := 0; p < 4; p++ {
		if err := d.Seal(p); err != nil {
			t.Fatal(err)
		}
	}
	b := NewBrokerWithOptions(d, BrokerOptions{Workers: 4})
	stop := make(chan struct{})
	var flapper sync.WaitGroup
	flapper.Add(1)
	go func() {
		defer flapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				servers[0].SetDown(false)
				return
			default:
				servers[0].SetDown(i%2 == 0)
			}
		}
	}()
	q := &Query{Aggs: []AggSpec{{Kind: AggCount}}}
	var queriers sync.WaitGroup
	for g := 0; g < 4; g++ {
		queriers.Add(1)
		go func() {
			defer queriers.Done()
			for i := 0; i < 50; i++ {
				res, err := b.Execute(context.Background(), &QueryRequest{Query: q})
				if err != nil {
					if !errors.Is(err, ErrServerDown) && !errors.Is(err, ErrSegmentUnavailable) {
						t.Errorf("unexpected error: %v", err)
					}
					continue
				}
				if got := res.Rows[0][0].(int64); got != 400 {
					t.Errorf("mid-flap count = %d, want 400", got)
				}
			}
		}()
	}
	queriers.Wait()
	close(stop)
	flapper.Wait()
}

// TestEarlyTerminationLimit checks ORDER-BY-agnostic LIMIT selections stop
// the fan-out once enough rows arrive and still return exactly Limit rows.
func TestEarlyTerminationLimit(t *testing.T) {
	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
	ingestOrders(t, d, 800, 4)
	b := NewBrokerWithOptions(d, BrokerOptions{Workers: 4})
	res, err := b.Execute(context.Background(), &QueryRequest{Query: &Query{Select: []string{"order_id"}, Limit: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Errorf("limited selection returned %d rows, want 5", len(res.Rows))
	}
	// The same limit with an ORDER BY must NOT terminate early: the global
	// minimum could live in the last segment scanned.
	ordered, err := b.Execute(context.Background(), &QueryRequest{Query: &Query{Select: []string{"order_id"}, OrderBy: []OrderSpec{{Column: "order_id"}}, Limit: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ordered.Rows) != 5 {
		t.Fatalf("ordered limited selection returned %d rows", len(ordered.Rows))
	}
	if got := ordered.Rows[0][0].(string); got != "o-00000" {
		t.Errorf("ordered limit lost the global minimum: first row %v", got)
	}
}

// TestUpsertInvalidateDuringQuery races upsert ingestion — each update
// supersedes a row in a consuming, sealing or sealed segment — against
// queries, under three maintenance schedules. A supersede masks the old row
// and appends the new one in one d.mu critical section, and routeView takes
// the consuming stores and the sealed validity bitmaps in one too, so every
// answer counts each key exactly once: a query that saw the mask without
// the new row would count a key zero times.
func TestUpsertInvalidateDuringQuery(t *testing.T) {
	const keys, rounds = 40, 60
	for _, tc := range []struct {
		name  string
		setup func(d *Deployment)
		// maintain runs one step of the schedule, in a loop beside ingest.
		maintain func(d *Deployment) error
		// tolerateUnavailable admits ErrSegmentUnavailable: only a purge of
		// retired copies can cause it.
		tolerateUnavailable bool
	}{
		{name: "no maintenance"},
		{name: "compact", maintain: func(d *Deployment) error {
			var part0 []string
			for _, info := range d.SegmentInfos() {
				if info.Partition == 0 {
					part0 = append(part0, info.Name)
				}
			}
			if len(part0) < 2 {
				return nil
			}
			_, err := d.Compact(part0)
			return err
		}},
		{name: "rebalance",
			setup: func(d *Deployment) { d.AddServer(NewServer("server-3")) },
			maintain: func(d *Deployment) error {
				_, err := d.Rebalance(context.Background())
				d.PurgeRetired(0)
				return err
			},
			tolerateUnavailable: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, _ := newDeployment(t, 3, 2, true, BackupP2P, nil)
			ingest := func(round int) error {
				for k := 0; k < keys; k++ {
					r := record.Record{
						"order_id": fmt.Sprintf("order-%d", k),
						"city":     "sf",
						"status":   "placed",
						"amount":   float64(round),
						"items":    int64(1),
						"ts":       int64(1700000000000 + round),
					}
					if err := d.Ingest(k%2, r); err != nil {
						return err
					}
				}
				return nil
			}
			if err := ingest(0); err != nil {
				t.Fatal(err)
			}
			if tc.setup != nil {
				tc.setup(d)
			}
			b := NewBrokerWithOptions(d, BrokerOptions{Workers: 4})
			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(done)
				for round := 1; round <= rounds; round++ { // seals happen mid-stream
					if err := ingest(round); err != nil {
						t.Errorf("ingest: %v", err)
						return
					}
				}
			}()
			if tc.maintain != nil {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						if err := tc.maintain(d); err != nil {
							t.Errorf("maintenance: %v", err)
							return
						}
					}
				}()
			}
			q := &Query{Aggs: []AggSpec{{Kind: AggCount}}}
			var queries, wrong, unavailable int
			low := int64(keys)
			for alive := true; alive; {
				select {
				case <-done:
					alive = false
				default:
				}
				res, err := b.Execute(context.Background(), &QueryRequest{Query: q})
				if tc.tolerateUnavailable && errors.Is(err, ErrSegmentUnavailable) {
					// A purge can take the retired copy a query routed to,
					// twice running: a typed error, never a wrong count.
					unavailable++
					continue
				}
				if err != nil {
					t.Errorf("query: %v", err) // not Fatal: ingest and maintenance still run
					break
				}
				queries++
				if got := res.Rows[0][0].(int64); got != keys {
					wrong++
					low = min(low, got)
				}
			}
			wg.Wait()
			if queries == 0 {
				t.Errorf("no query answered during ingest (%d ErrSegmentUnavailable)", unavailable)
			}
			if wrong > 0 {
				t.Errorf("%d of %d queries mid-ingest did not count %d keys (lowest %d)", wrong, queries, keys, low)
			}
			t.Logf("%d queries answered, %d ErrSegmentUnavailable", queries, unavailable)
			res, err := b.Execute(context.Background(), &QueryRequest{Query: q})
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Rows[0][0].(int64); got != keys {
				t.Errorf("final upsert count = %d, want %d", got, keys)
			}
		})
	}
}

// TestConcurrentIngestAndQuery races ingestion (with seals) against
// parallel queries; counts must be monotonic snapshots, never torn.
func TestConcurrentIngestAndQuery(t *testing.T) {
	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil)
	b := NewBrokerWithOptions(d, BrokerOptions{Workers: 4})
	rows := orderRows(600)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, r := range rows {
			if err := d.Ingest(i%3, r); err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
		}
	}()
	q := &Query{Aggs: []AggSpec{{Kind: AggCount}}}
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		// Counts may transiently dip during a seal (rows leave the consuming
		// map before the sealed segment enters placement), so the mid-flight
		// invariant is only an upper bound; exactness is checked at the end.
		res, err := b.Execute(context.Background(), &QueryRequest{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].(int64); got > 600 {
			t.Fatalf("count overshot: %d > 600", got)
		}
	}
	res, err := b.Execute(context.Background(), &QueryRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].(int64); got != 600 {
		t.Errorf("final count = %d, want 600", got)
	}
}
