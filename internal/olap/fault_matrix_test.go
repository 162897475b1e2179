package olap

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/objstore"
	"repro/internal/record"
)

// The fault matrix over the one scatter: every entry point that runs a
// routing round, under every fault the round can meet. Each cell holds the
// same line — the exact answer over the rows the cell says are visible, or
// the typed error the cell names; never a short result passed off as an
// answer — and after every cell the goroutine count is back where it was.

// faultEntry is one way into the scatter. run returns the rows it got, one
// string each; check holds them against the rows the answer must cover.
type faultEntry struct {
	name   string
	stream bool // a stream is not re-routed mid-flight
	// anyPart: part of the table answers it (an unordered LIMIT), so a fault
	// in another part may lose the race to the exact answer.
	anyPart bool
	// run calls the entry with the entry's query, filtered by where.
	run   func(ctx context.Context, b *Broker, req QueryRequest, where []Filter) ([]string, error)
	check func(got []string, rows []record.Record) error
}

var faultAggQuery = &Query{GroupBy: []string{"city"}, Aggs: []AggSpec{{Kind: AggCount}, {Kind: AggSum, Column: "amount"}}}

// wantAgg is faultAggQuery answered naively.
func wantAgg(rows []record.Record) []string {
	count, sum := map[string]int64{}, map[string]float64{}
	for _, r := range rows {
		count[r.String("city")]++
		sum[r.String("city")] += r.Double("amount")
	}
	var out []string
	for city, n := range count {
		out = append(out, fmt.Sprint([]any{city, n, sum[city]}...))
	}
	sort.Strings(out)
	return out
}

func orderIDs(rows []record.Record) []string {
	ids := make([]string, len(rows))
	for i, r := range rows {
		ids[i] = r.String("order_id")
	}
	sort.Strings(ids)
	return ids
}

func rowStrings(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r...)
	}
	return out
}

func exactly(want func([]record.Record) []string, sorted bool) func([]string, []record.Record) error {
	return func(got []string, rows []record.Record) error {
		if sorted {
			got = append([]string(nil), got...)
			sort.Strings(got)
		}
		if w := want(rows); !reflect.DeepEqual(got, w) {
			return fmt.Errorf("got %d rows %v, want %d rows %v", len(got), got, len(w), w)
		}
		return nil
	}
}

// filtered returns a copy of q whose filters are where.
func filtered(q *Query, where []Filter) *Query {
	q2 := *q
	q2.Filters = where
	return &q2
}

func faultEntries() []faultEntry {
	execute := func(q *Query) func(context.Context, *Broker, QueryRequest, []Filter) ([]string, error) {
		return func(ctx context.Context, b *Broker, req QueryRequest, where []Filter) ([]string, error) {
			req.Query = filtered(q, where)
			resp, err := b.Execute(ctx, &req)
			if err != nil {
				return nil, err
			}
			return rowStrings(resp.Rows), nil
		}
	}
	const limit = 50
	return []faultEntry{
		{name: "Execute/aggregate", run: execute(faultAggQuery), check: exactly(wantAgg, true)},
		{name: "Execute/ordered", run: execute(&Query{Select: []string{"order_id"}, OrderBy: []OrderSpec{{Column: "order_id"}}, Limit: 20}),
			check: exactly(func(rows []record.Record) []string { return orderIDs(rows)[:20] }, false)},
		{name: "Execute/unordered-limit", anyPart: true, run: execute(&Query{Select: []string{"order_id"}, Limit: limit}),
			// Any LIMIT of the visible rows answers it — but LIMIT of them,
			// each once.
			check: func(got []string, rows []record.Record) error {
				visible := map[string]bool{}
				for _, id := range orderIDs(rows) {
					visible[id] = true
				}
				if len(got) != min(limit, len(rows)) {
					return fmt.Errorf("got %d rows, want %d", len(got), min(limit, len(rows)))
				}
				for _, id := range got {
					if !visible[id] {
						return fmt.Errorf("row %q is not visible, or came twice", id)
					}
					visible[id] = false
				}
				return nil
			}},
		{name: "ExecuteStream", stream: true, check: exactly(orderIDs, true),
			run: func(ctx context.Context, b *Broker, req QueryRequest, where []Filter) ([]string, error) {
				req.Query = &Query{Select: []string{"order_id"}, Filters: where}
				qs, err := b.ExecuteStream(ctx, &req)
				if err != nil {
					return nil, err
				}
				defer qs.Close()
				var got []string
				for {
					rb, err := qs.Next(ctx)
					if err == io.EOF {
						return got, nil
					}
					if err != nil {
						return nil, err
					}
					for _, row := range rb.AppendRows(nil) {
						got = append(got, fmt.Sprint(row...))
					}
				}
			}},
		{name: "MaterializePartial", check: exactly(wantAgg, true),
			run: func(ctx context.Context, b *Broker, req QueryRequest, where []Filter) ([]string, error) {
				req.Query = filtered(faultAggQuery, where)
				p, _, err := b.MaterializePartial(ctx, &req)
				if err != nil {
					return nil, err
				}
				res, err := p.Finalize(req.Query)
				if err != nil {
					return nil, err
				}
				return rowStrings(res.Rows), nil
			}},
	}
}

// faultCase is one fault, arranged around one call: the broker, request
// options and filters to call with, the rows an exact answer covers, and the
// error the call must return instead (nil: it must answer).
type faultCase struct {
	ctx     context.Context
	b       *Broker
	req     QueryRequest
	where   []Filter
	rows    []record.Record
	wantErr error
	// racing, when set, runs beside the calls: the entry point is called
	// until racing returns, each answer held to inFlight, and once more
	// afterwards, held exact.
	racing   func()
	inFlight func(got []string) error
}

// downAfterRoute routes with the wrapped strategy and then takes the
// lowest-numbered server of the first plan down: routing saw it live, the
// scatter finds it dead.
type downAfterRoute struct {
	Router
	d    *Deployment
	once sync.Once
}

func (r *downAfterRoute) Route(view *RouteView, q *Query) (*RoutePlan, error) {
	plan, err := r.Router.Route(view, q)
	if err == nil {
		r.once.Do(func() {
			first := -1
			for si := range plan.Assignment {
				if first < 0 || si < first {
					first = si
				}
			}
			r.d.serverAt(first).SetDown(true)
		})
	}
	return plan, err
}

const faultRows, faultPartitions = 400, 4

// sealedFixture is 400 rows over four partitions, every one sealed (a
// consuming partition has no replica to fail over to), on three servers
// with the given replication.
func sealedFixture(t *testing.T, replicas int, store objstore.Store) (*Deployment, []*Server, []record.Record) {
	t.Helper()
	d, servers := newDeployment(t, 3, replicas, false, BackupP2P, store)
	ingestOrders(t, d, faultRows, faultPartitions)
	d.WaitUploads()
	return d, servers, orderRows(faultRows)
}

func faultCases() map[string]func(t *testing.T, e faultEntry) *faultCase {
	slow := func(t *testing.T, servers []*Server) {
		for _, s := range servers {
			s.SetScanDelay(40 * time.Millisecond)
			t.Cleanup(func() { s.SetScanDelay(0) })
		}
	}
	offloaded := func(t *testing.T, pruned bool) *faultCase {
		store := objstore.NewFaultStore(objstore.NewMemStore())
		d, _, rows := sealedFixture(t, 1, store)
		d.AttachLoaders()
		cold := d.SegmentInfos()[0]
		if _, err := d.OffloadSegment(cold.Name); err != nil {
			t.Fatal(err)
		}
		store.SetDown(true)
		c := &faultCase{ctx: context.Background(), b: NewBroker(d), rows: rows, wantErr: ErrSegmentUnavailable}
		if pruned {
			// A filter on ts past the cold segment's bounds prunes it before
			// any reload: the answer is exactly the rows the filter keeps.
			c.where = []Filter{{Column: "ts", Op: OpGt, Value: cold.MaxTime}}
			c.wantErr, c.rows = nil, nil
			for _, r := range rows {
				if r.Long("ts") > cold.MaxTime {
					c.rows = append(c.rows, r)
				}
			}
			if len(c.rows) < faultRows/2 {
				t.Fatalf("the filter keeps %d rows, want at least %d", len(c.rows), faultRows/2)
			}
		}
		return c
	}
	return map[string]func(t *testing.T, e faultEntry) *faultCase{
		"down-at-routing": func(t *testing.T, e faultEntry) *faultCase {
			d, servers, rows := sealedFixture(t, 2, nil)
			servers[0].SetDown(true)
			return &faultCase{ctx: context.Background(), b: NewBroker(d), rows: rows}
		},
		"down-after-routing": func(t *testing.T, e faultEntry) *faultCase {
			d, _, rows := sealedFixture(t, 2, nil)
			c := &faultCase{ctx: context.Background(), rows: rows,
				b: NewBrokerWithOptions(d, BrokerOptions{Router: &downAfterRoute{Router: &RoundRobinRouter{}, d: d}})}
			if e.stream {
				c.wantErr = ErrServerDown // the replica exists, but a stream does not start over
			}
			return c
		},
		"cancelled-mid-scan": func(t *testing.T, e faultEntry) *faultCase {
			d, servers, _ := sealedFixture(t, 1, nil)
			slow(t, servers)
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(10*time.Millisecond, cancel)
			t.Cleanup(func() { timer.Stop(); cancel() })
			return &faultCase{ctx: ctx, b: NewBroker(d), wantErr: context.Canceled}
		},
		"request-timeout": func(t *testing.T, e faultEntry) *faultCase {
			d, servers, _ := sealedFixture(t, 1, nil)
			slow(t, servers)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			t.Cleanup(cancel)
			return &faultCase{ctx: ctx, b: NewBroker(d), wantErr: context.DeadlineExceeded}
		},
		"offloaded-outage-full":   func(t *testing.T, e faultEntry) *faultCase { return offloaded(t, false) },
		"offloaded-outage-pruned": func(t *testing.T, e faultEntry) *faultCase { return offloaded(t, true) },
		"upsert-racing": func(t *testing.T, e faultEntry) *faultCase {
			// 120 keys, sealed and consuming, re-ingested round after round
			// while the calls run: every round supersedes every key (clearing
			// sealed validity bits, sealing mid-way). A routing snapshot and the
			// servers' validity snapshots are not one atomic cut, so in flight
			// a key may be seen in neither or both of two versions (the bound
			// TestUpsertInvalidateDuringQuery documents); what may not happen is
			// an error, a key that never existed, or — once the writer is done —
			// anything but the exact answer.
			const keys = 120
			d, _ := newDeployment(t, 2, 1, true, BackupP2P, nil)
			rows := orderRows(keys)
			write := func() {
				for _, r := range orderRows(keys) {
					if err := d.Ingest(int(r.Long("items"))%2, r); err != nil {
						t.Errorf("ingest: %v", err)
					}
				}
			}
			write()
			return &faultCase{ctx: context.Background(), b: NewBrokerWithOptions(d, BrokerOptions{Workers: 4}), rows: rows,
				racing: func() {
					for round := 0; round < 6; round++ {
						write()
					}
				},
				inFlight: func(got []string) error {
					if len(got) == 0 || len(got) > keys+1 {
						return fmt.Errorf("%d rows in flight, want 1..%d", len(got), keys+1)
					}
					return nil
				}}
		},
	}
}

func TestScatterFaultMatrix(t *testing.T) {
	cases := faultCases()
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, e := range faultEntries() {
			t.Run(name+"/"+e.name, func(t *testing.T) {
				c := cases[name](t, e)
				before := runtime.NumGoroutine()
				if c.racing != nil {
					done := make(chan struct{})
					go func() {
						defer close(done)
						c.racing()
					}()
					for racing := true; racing; {
						select {
						case <-done:
							racing = false
						default:
						}
						got, err := e.run(c.ctx, c.b, c.req, c.where)
						if err != nil {
							t.Fatalf("in flight: %v", err)
						}
						if err := c.inFlight(got); err != nil {
							t.Fatalf("in flight: %v", err)
						}
					}
				}
				got, err := e.run(c.ctx, c.b, c.req, c.where)
				switch {
				case c.wantErr != nil && !(e.anyPart && err == nil && e.check(got, c.rows) == nil):
					if !errors.Is(err, c.wantErr) {
						t.Fatalf("got %d rows, err %v; want error %v", len(got), err, c.wantErr)
					}
				case err != nil:
					t.Fatalf("err %v, want the exact answer", err)
				default:
					if err := e.check(got, c.rows); err != nil {
						t.Fatal(err)
					}
				}
				// The shared leak check: whatever the cell left running — scans
				// a failed fold did not wait for — ends on its own, promptly.
				deadline := time.Now().Add(2 * time.Second)
				for runtime.NumGoroutine() > before {
					if time.Now().After(deadline) {
						t.Fatalf("goroutines: %d before the call, %d after", before, runtime.NumGoroutine())
					}
					time.Sleep(5 * time.Millisecond)
				}
			})
		}
	}
}
