package olap

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/objstore"
	"repro/internal/record"
	"repro/internal/stream"
)

// hookEvent is what a mutation hook saw, with the row reduced to its key.
type hookEvent struct {
	Seq       int64
	Partition int
	Key       string
	Retract   bool
}

// recordHooks registers a hook that records every mutation and checks the
// delivery contract: inside d.mu, Seq strictly increasing.
func recordHooks(t *testing.T, d *Deployment) *[]hookEvent {
	t.Helper()
	var events []hookEvent
	d.AddMutationHook(func(m ViewMutation) {
		if d.mu.TryLock() {
			d.mu.Unlock()
			t.Error("mutation hook delivered outside d.mu")
		}
		if n := len(events); n > 0 && m.Seq <= events[n-1].Seq {
			t.Errorf("hook Seq %d after %d", m.Seq, events[n-1].Seq)
		}
		var key string // the zero Row of a coarse retraction has none
		if m.Row.Vals != nil {
			key = string(m.Row.Vals[d.keyField].B)
		}
		events = append(events, hookEvent{m.Seq, m.Partition, key, m.Retract})
	})
	return &events
}

// tableState is everything a reader can tell two deployments apart by.
type tableState struct {
	Ingested, Sealed int64
	Generation       int64
	Segments         []string // name/partition/rows of every sealed segment
	Rows             [][]any  // every live row, sorted
	ByCity           [][]any
}

func stateOf(t *testing.T, d *Deployment) tableState {
	t.Helper()
	var s tableState
	s.Ingested, s.Sealed, _ = d.Stats()
	s.Generation = d.Generation()
	for _, si := range d.SegmentInfos() {
		s.Segments = append(s.Segments, fmt.Sprintf("%s/%d/%d", si.Name, si.Partition, si.NumRows))
	}
	sort.Strings(s.Segments)
	b := NewBroker(d)
	sel, err := b.Execute(context.Background(), &QueryRequest{Query: &Query{Select: []string{"order_id", "amount", "ts"}}})
	if err != nil {
		t.Fatal(err)
	}
	s.Rows = rowsOf(sel)
	sort.Slice(s.Rows, func(i, j int) bool { return fmt.Sprint(s.Rows[i]) < fmt.Sprint(s.Rows[j]) })
	agg, err := b.Execute(context.Background(), &QueryRequest{Query: &Query{GroupBy: []string{"city"}, Aggs: []AggSpec{{Kind: AggCount}, {Kind: AggSum, Column: "amount"}}}})
	if err != nil {
		t.Fatal(err)
	}
	s.ByCity = rowsOf(agg)
	return s
}

// IngestBatch must be indistinguishable from feeding the same rows to
// Ingest one at a time: same rows and segments (seal boundaries fall
// mid-batch: SegmentRows is 50, batches run to 120), same generation, same
// hook sequence with one strictly increasing Seq per row.
func TestIngestBatchMatchesRowAtATime(t *testing.T) {
	for _, upsert := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			rows := orderRows(600)
			if upsert {
				// Keys repeat, often within one batch; each key stays on
				// one partition, as the stream's key hashing guarantees.
				for i, r := range rows {
					r["order_id"] = fmt.Sprintf("o-%d", rng.Intn(40))
					r["amount"] = float64(i)
				}
			}
			partitionOf := func(r record.Record) int {
				if !upsert {
					return rng.Intn(2)
				}
				return int(r.String("order_id")[2]) % 2
			}

			one, _ := newDeployment(t, 2, 1, upsert, BackupP2P, nil)
			batched, _ := newDeployment(t, 2, 1, upsert, BackupP2P, nil)
			oneHooks, batchedHooks := recordHooks(t, one), recordHooks(t, batched)
			for len(rows) > 0 {
				size := 1 + rng.Intn(120)
				if size > len(rows) {
					size = len(rows)
				}
				byPartition := map[int][]record.Record{}
				for _, r := range rows[:size] {
					p := partitionOf(r)
					byPartition[p] = append(byPartition[p], r)
				}
				rows = rows[size:]
				for p := 0; p < 2; p++ {
					for _, r := range byPartition[p] {
						if err := one.Ingest(p, r); err != nil {
							t.Fatal(err)
						}
					}
					if n, err := batched.IngestBatch(p, byPartition[p]); err != nil || n != len(byPartition[p]) {
						t.Fatalf("IngestBatch = %d, %v; want %d", n, err, len(byPartition[p]))
					}
				}
			}
			if got, want := stateOf(t, batched), stateOf(t, one); !reflect.DeepEqual(got, want) {
				t.Errorf("upsert=%v seed=%d: batched table differs\n got %+v\nwant %+v", upsert, seed, got, want)
			}
			if !reflect.DeepEqual(*batchedHooks, *oneHooks) {
				t.Errorf("upsert=%v seed=%d: hook sequences differ (%d vs %d events)", upsert, seed, len(*batchedHooks), len(*oneHooks))
			}
			if len(*batchedHooks) != 600 {
				t.Errorf("upsert=%v seed=%d: %d hook deliveries for 600 rows", upsert, seed, len(*batchedHooks))
			}
			if _, sealed, _ := batched.Stats(); sealed < 4 && !upsert {
				t.Errorf("only %d seals: no boundary fell inside a batch", sealed)
			}
		}
	}
}

// The same primary key twice in one upsert batch: the second supersedes the
// first inside the batch, as a retraction.
func TestIngestBatchSupersedesWithinBatch(t *testing.T) {
	d, _ := newDeployment(t, 1, 1, true, BackupP2P, nil)
	hooks := recordHooks(t, d)
	rows := orderRows(3)
	rows[0]["order_id"], rows[2]["order_id"] = "dup", "dup"
	if n, err := d.IngestBatch(0, rows); n != 3 || err != nil {
		t.Fatalf("IngestBatch = %d, %v", n, err)
	}
	sel, err := NewBroker(d).Execute(context.Background(), &QueryRequest{Query: &Query{Select: []string{"order_id", "amount"}}})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]any{}
	for _, r := range rowsOf(sel) {
		got[r[0].(string)] = r[1]
	}
	if want := (map[string]any{"dup": rows[2]["amount"], "o-00001": rows[1]["amount"]}); !reflect.DeepEqual(got, want) {
		t.Errorf("live rows = %v, want %v", got, want)
	}
	if h := *hooks; len(h) != 3 || h[0].Retract || h[1].Retract || !h[2].Retract {
		t.Errorf("hooks = %+v, want the third a retraction", h)
	}
}

// A row that does not conform ends the batch where row-at-a-time ingestion
// would have stopped: the rows before it are in, n points at it.
func TestIngestBatchStopsAtBadRow(t *testing.T) {
	d, _ := newDeployment(t, 1, 1, false, BackupP2P, nil)
	rows := orderRows(10)
	delete(rows[6], "order_id")
	n, err := d.IngestBatch(0, rows)
	if n != 6 || err == nil {
		t.Fatalf("IngestBatch = %d, %v; want 6 and the conform error", n, err)
	}
	if ingested, _, _ := d.Stats(); ingested != 6 {
		t.Errorf("ingested = %d, want 6", ingested)
	}
}

// §4.3.4: a failed centralized backup halts ingestion. Mid-batch, n tells
// the caller which rows the table took, so a retry of rows[n:] neither
// drops nor duplicates; while the outage lasts a retry takes nothing — the
// full store is sealed before anything is appended to it.
func TestIngestBatchFailedBackupMidBatch(t *testing.T) {
	store := objstore.NewFaultStore(objstore.NewMemStore())
	d, _ := newDeployment(t, 2, 1, false, BackupCentralized, store)
	rows := orderRows(130)
	if n, err := d.IngestBatch(0, rows[:30]); n != 30 || err != nil {
		t.Fatalf("IngestBatch = %d, %v", n, err)
	}
	store.SetDown(true)
	n, err := d.IngestBatch(0, rows[30:])
	if n != 20 || !errors.Is(err, objstore.ErrUnavailable) {
		t.Fatalf("IngestBatch during outage = %d, %v; want 20 rows (the store fills at 50) and ErrUnavailable", n, err)
	}
	rest := rows[30+n:]
	for i := 0; i < 3; i++ {
		if n, err := d.IngestBatch(0, rest); n != 0 || !errors.Is(err, objstore.ErrUnavailable) {
			t.Fatalf("retry %d during outage = %d, %v; want 0 rows taken", i, n, err)
		}
	}
	if ingested, sealed, _ := d.Stats(); ingested != 50 || sealed != 0 {
		t.Errorf("during outage: ingested = %d, sealed = %d; want 50, 0", ingested, sealed)
	}
	store.SetDown(false)
	if n, err := d.IngestBatch(0, rest); n != len(rest) || err != nil {
		t.Fatalf("retry after recovery = %d, %v", n, err)
	}
	ingested, sealed, _ := d.Stats()
	if ingested != 130 || sealed != 2 {
		t.Errorf("after recovery: ingested = %d, sealed = %d; want 130, 2", ingested, sealed)
	}
	sel, err := NewBroker(d).Execute(context.Background(), &QueryRequest{Query: &Query{Select: []string{"order_id"}}})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[any]int{}
	for _, r := range rowsOf(sel) {
		seen[r[0]]++
	}
	if sel.Batch.Len != 130 || len(seen) != 130 {
		t.Errorf("%d rows, %d distinct order ids; want 130 of each", sel.Batch.Len, len(seen))
	}
}

// putHookStore runs onPut before each deep-store write: a hook into a
// centralized seal's backup, which runs outside d.mu.
type putHookStore struct {
	objstore.Store
	onPut func()
}

func (s *putHookStore) Put(key string, value []byte) error {
	s.onPut()
	return s.Store.Put(key, value)
}

// A seal only moves forward. While a centralized backup blocks and then
// fails, a second batch on the partition goes into a new live store (on an
// upsert table it supersedes 10 keys of the frozen one). The frozen store
// stays queued and visible, a retry during the outage takes nothing, and
// after recovery it seals at SegmentRows — no rows move behind it.
func TestFailedSealMovesNoRows(t *testing.T) {
	for _, upsert := range []bool{false, true} {
		t.Run(fmt.Sprintf("upsert=%v", upsert), func(t *testing.T) {
			fault := objstore.NewFaultStore(objstore.NewMemStore())
			fault.SetDown(true)
			entered, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			store := &putHookStore{Store: fault, onPut: func() {
				once.Do(func() { close(entered); <-release })
			}}
			d, _ := newDeployment(t, 2, 1, upsert, BackupCentralized, store)
			b := NewBroker(d)
			// rows[:50] fill the store, rows[50:60] arrive while its backup
			// blocks, rows[60] after recovery.
			rows := orderRows(61)
			for i, r := range rows {
				r["amount"] = float64(i)
				if upsert && i >= 50 && i < 60 {
					r["order_id"] = rows[i-50]["order_id"]
				}
			}
			check := func(step string, ingested int) {
				t.Helper()
				want := map[any]any{}
				for _, r := range rows[:ingested] {
					want[r["order_id"]] = r["amount"]
				}
				res, err := b.Execute(context.Background(), &QueryRequest{Query: &Query{Aggs: []AggSpec{{Kind: AggCount}}}})
				if err != nil {
					t.Fatal(err)
				}
				if got := rowsOf(res)[0][0].(int64); got != int64(len(want)) {
					t.Errorf("%s: COUNT(*) = %d, want %d", step, got, len(want))
				}
				sel, err := b.Execute(context.Background(), &QueryRequest{Query: &Query{Select: []string{"order_id", "amount"}}})
				if err != nil {
					t.Fatal(err)
				}
				got := map[any]any{}
				for _, r := range rowsOf(sel) {
					got[r[0]] = r[1]
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: latest value per key differs: %d keys, want %d", step, len(got), len(want))
				}
			}

			type result struct {
				n   int
				err error
			}
			first := make(chan result)
			go func() {
				n, err := d.IngestBatch(0, rows[:50])
				first <- result{n, err}
			}()
			<-entered
			if n, err := d.IngestBatch(0, rows[50:60]); n != 10 || err != nil {
				t.Fatalf("IngestBatch while the backup blocks = %d, %v; want 10, nil", n, err)
			}
			check("backup blocked", 60)
			close(release)
			if r := <-first; r.n != 50 || !errors.Is(r.err, objstore.ErrUnavailable) {
				t.Fatalf("IngestBatch whose seal failed = %d, %v; want 50 and ErrUnavailable", r.n, r.err)
			}
			check("backup failed", 60)
			if n, err := d.IngestBatch(0, rows[60:]); n != 0 || !errors.Is(err, objstore.ErrUnavailable) {
				t.Fatalf("retry during the outage = %d, %v; want 0 rows and ErrUnavailable", n, err)
			}
			check("retry during the outage", 60)

			fault.SetDown(false)
			if n, err := d.IngestBatch(0, rows[60:]); n != 1 || err != nil {
				t.Fatalf("IngestBatch after recovery = %d, %v; want 1, nil", n, err)
			}
			check("after recovery", 61)
			infos := d.SegmentInfos()
			if len(infos) != 1 {
				t.Fatalf("%d sealed segments after recovery, want 1", len(infos))
			}
			if infos[0].NumRows > d.Table().SegmentRows {
				t.Errorf("sealed segment %s has %d rows, more than SegmentRows (%d)", infos[0].Name, infos[0].NumRows, d.Table().SegmentRows)
			}
		})
	}
}

func newIngestFixture(t *testing.T, partitions int, backup BackupMode, store objstore.Store) (*stream.Cluster, *record.Codec, *Deployment, *RealtimeIngester) {
	t.Helper()
	cluster, err := stream.NewCluster(stream.ClusterConfig{Name: "c", Nodes: 1, ReplicationInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	if err := cluster.CreateTopic("orders", stream.TopicConfig{Partitions: partitions}); err != nil {
		t.Fatal(err)
	}
	codec, err := record.NewCodec(ordersSchema())
	if err != nil {
		t.Fatal(err)
	}
	d, _ := newDeployment(t, 2, 1, false, backup, store)
	ing, err := NewRealtimeIngester(cluster, "orders", codec, d)
	if err != nil {
		t.Fatal(err)
	}
	return cluster, codec, d, ing
}

// The same outage seen from the stream: the ingester stores the offset of
// the first message the table did not take, so after recovery every
// message is in the table exactly once.
func TestIngesterFailedBackupNoLossNoDuplicate(t *testing.T) {
	store := objstore.NewFaultStore(objstore.NewMemStore())
	cluster, codec, d, ing := newIngestFixture(t, 1, BackupCentralized, store)
	store.SetDown(true)
	ing.Start()
	defer ing.Stop()

	p := stream.NewProducer(cluster, "svc", "", nil)
	msgs := make([]stream.Message, 120)
	for i, r := range orderRows(120) {
		payload, _ := codec.Encode(r)
		msgs[i] = stream.Message{Value: payload}
	}
	if err := p.ProduceBatch("orders", msgs); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the ingester to hit the outage", func() bool { return ing.Stats().Errors >= 3 })
	if ingested, sealed, _ := d.Stats(); ingested != 50 || sealed != 0 {
		t.Errorf("halted at ingested = %d, sealed = %d; want 50, 0", ingested, sealed)
	}
	if lag := ing.Lag(); lag != 70 {
		t.Errorf("lag during the halt = %d, want 70", lag)
	}
	store.SetDown(false)
	waitFor(t, "ingestion to resume", func() bool { return ing.Lag() == 0 })
	ingested, sealed, _ := d.Stats()
	if ingested != 120 || sealed != 2 {
		t.Errorf("after recovery: ingested = %d, sealed = %d; want 120, 2", ingested, sealed)
	}
	r, err := NewBroker(d).Execute(context.Background(), &QueryRequest{Query: &Query{Aggs: []AggSpec{{Kind: AggCount}, {Kind: AggDistinctCount, Column: "order_id"}}}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rowsOf(r)[0], []any{int64(120), int64(120)}) {
		t.Errorf("count, distinct order ids = %v; want 120, 120", rowsOf(r)[0])
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(3 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// Stop returns promptly with every consume loop parked on an idle topic,
// and leaves no goroutine behind.
func TestIngesterStopWhileParked(t *testing.T) {
	before := runtime.NumGoroutine()
	_, _, _, ing := newIngestFixture(t, 4, BackupP2P, nil)
	before++ // the cluster's replication pump, stopped by the test's cleanup
	ing.Start()
	time.Sleep(3 * ingestWait) // every loop has parked, timed out and parked again
	start := time.Now()
	ing.Stop()
	if d := time.Since(start); d > 10*ingestWait {
		t.Errorf("Stop took %v with loops parked for at most %v", d, ingestWait)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after Stop", before, runtime.NumGoroutine())
		}
	}
}

// The realtime ingester's payload path — a fetch decoded straight into
// typed cells — must be indistinguishable from decoding each payload into a
// record and handing the records to IngestBatch, the path it replaced:
// same rows, segments and generation, the same hook sequence (rows
// included), and the same messages skipped with the same errors. Fetches of
// 1 to 128 messages cross the 50-row seal threshold.
func TestIngestPayloadsMatchRows(t *testing.T) {
	withField := func(s *metadata.Schema, name string, typ metadata.FieldType, nullable bool) *metadata.Schema {
		for i := range s.Fields {
			if s.Fields[i].Name == name {
				s.Fields[i].Type, s.Fields[i].Nullable = typ, nullable
				return s
			}
		}
		s.Fields = append(s.Fields, metadata.Field{Name: name, Type: typ, Nullable: nullable})
		return s
	}
	type tc struct {
		codec *metadata.Schema // the topic's schema
		table TableConfig      // Name, SegmentRows and Indexes are filled in
		edit  func(i int, r record.Record)
		// partition places row i; nil spreads rows over two partitions.
		partition func(i int, r record.Record) int
		rejects   bool // some rows cannot be taken
	}
	cases := map[string]tc{
		"same schema": {codec: ordersSchema(), table: TableConfig{Schema: ordersSchema()}},
		"extra codec field": {
			codec: withField(ordersSchema(), "note", metadata.TypeString, true),
			table: TableConfig{Schema: ordersSchema()},
			edit: func(i int, r record.Record) {
				if i%3 != 0 {
					r["note"] = fmt.Sprintf("n%d", i)
				}
			},
		},
		"long into double": {
			codec: withField(ordersSchema(), "amount", metadata.TypeLong, false),
			table: TableConfig{Schema: ordersSchema()},
			edit:  func(i int, r record.Record) { r["amount"] = int64(i%50 - 10) },
		},
		"double into long": {
			codec: withField(ordersSchema(), "items", metadata.TypeDouble, false),
			table: TableConfig{Schema: ordersSchema()},
			edit: func(i int, r record.Record) {
				r["items"] = float64(i % 9)
				if i%7 == 3 {
					r["items"] = float64(i) + 0.5 // fractional: rejected
				}
			},
			rejects: true,
		},
		"nullable into required": {
			codec: ordersSchema(),
			table: TableConfig{Schema: withField(ordersSchema(), "rush", metadata.TypeBool, false)},
			edit: func(i int, r record.Record) {
				if i%5 != 0 {
					r["rush"] = i%2 == 0
				} else {
					delete(r, "rush") // rejected
				}
			},
			rejects: true,
		},
		"upsert": {
			codec: ordersSchema(),
			table: TableConfig{Schema: ordersSchema(), Upsert: true},
			edit:  func(i int, r record.Record) { r["order_id"] = fmt.Sprintf("o-%d", (i*7)%45) },
			partition: func(_ int, r record.Record) int {
				return int(r.String("order_id")[2]) % 2
			},
		},
		"partition column": {
			codec: ordersSchema(),
			table: TableConfig{Schema: ordersSchema(), PartitionColumn: "city", Partitions: 2},
			partition: func(i int, r record.Record) int {
				if i%6 == 0 {
					return 1 - PartitionFor(r["city"], 2) // the wrong one: rejected
				}
				return PartitionFor(r["city"], 2)
			},
			rejects: true,
		},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			codec, err := record.NewCodec(c.codec)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			byPartition := map[int][]stream.Message{}
			for i, r := range orderRows(700) {
				if c.edit != nil {
					c.edit(i, r)
				}
				p := rng.Intn(2)
				if c.partition != nil {
					p = c.partition(i, r)
				}
				payload, err := codec.Encode(r)
				if err != nil {
					t.Fatal(err)
				}
				byPartition[p] = append(byPartition[p], stream.Message{Value: payload})
			}
			newTable := func() (*Deployment, *[]ViewMutation) {
				cfg := c.table
				cfg.Name, cfg.SegmentRows, cfg.Indexes = "orders", 50, IndexConfig{InvertedColumns: []string{"city"}}
				d, err := NewDeployment(DeploymentConfig{
					Table:        cfg,
					Servers:      []*Server{NewServer("s0"), NewServer("s1")},
					SegmentStore: objstore.NewMemStore(),
					Backup:       BackupP2P,
				})
				if err != nil {
					t.Fatal(err)
				}
				var hooks []ViewMutation
				d.AddMutationHook(func(m ViewMutation) { hooks = append(hooks, m) })
				return d, &hooks
			}
			payloads, payloadHooks := newTable()
			rows, rowHooks := newTable()
			bound := bind(codec, payloads)
			block, vals := bound.scratch(128)
			var payloadErrs, rowErrs []string
			for p := 0; p < 2; p++ {
				msgs := byPartition[p]
				for len(msgs) > 0 {
					fetch := msgs[:min(1+rng.Intn(128), len(msgs))]
					msgs = msgs[len(fetch):]
					for len(fetch) > 0 {
						taken, bad, err := bound.ingest(p, fetch, &block, vals)
						if err != nil {
							t.Fatal(err)
						}
						if bad != nil {
							payloadErrs = append(payloadErrs, bad.Error())
							taken++
						}
						fetch = fetch[taken:]
					}
				}
				var batch []record.Record
				for _, m := range byPartition[p] {
					r, err := codec.Decode(m.Value)
					if err != nil {
						t.Fatal(err)
					}
					batch = append(batch, r)
				}
				for len(batch) > 0 {
					n, err := rows.IngestBatch(p, batch[:min(1+rng.Intn(128), len(batch))])
					if err != nil {
						rowErrs = append(rowErrs, err.Error())
						n++
					}
					batch = batch[n:]
				}
			}
			if (len(rowErrs) > 0) != c.rejects {
				t.Errorf("%d rows rejected, want some: %v", len(rowErrs), c.rejects)
			}
			if !reflect.DeepEqual(payloadErrs, rowErrs) {
				t.Errorf("skipped messages differ:\n payloads %q\n rows     %q", payloadErrs, rowErrs)
			}
			if got, want := stateOf(t, payloads), stateOf(t, rows); !reflect.DeepEqual(got, want) {
				t.Errorf("tables differ\n payloads %+v\n rows     %+v", got, want)
			}
			if !reflect.DeepEqual(*payloadHooks, *rowHooks) {
				t.Errorf("hook sequences differ (%d vs %d events)", len(*payloadHooks), len(*rowHooks))
			}
			if ingested, _, _ := rows.Stats(); ingested == 0 || len(*rowHooks) != int(ingested) {
				t.Errorf("%d rows ingested, %d hook deliveries", ingested, len(*rowHooks))
			}
		})
	}
}
