package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fedsql"
	"repro/internal/objstore"
	"repro/internal/olap"
)

func TestPercentile(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1) // 1..100
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.95, 95}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample p99 = %v, want 7", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample = %v, want 0", got)
	}
}

// Every workload's tail quantile must leave at least ten samples beyond it
// at the sample count a full-length run yields.
func TestTailSelection(t *testing.T) {
	samples := map[string]int{"fresh_paced": 2000, "ingest_drain": 3000, "dash_mixed": 100, "adhoc_scan": 120}
	for _, w := range workloads {
		n, ok := samples[w.name]
		if !ok {
			t.Fatalf("no expected sample count for %s", w.name)
		}
		if beyond := float64(n) * (1 - w.tailQ); beyond < 10-1e-9 {
			t.Errorf("%s: p%.0f leaves %.1f of %d samples beyond it, want >= 10", w.name, w.tailQ*100, beyond, n)
		}
	}
}

// Quartiles and median must be the ones Python's statistics module gives,
// because the driver computes the spread with it.
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{10, 1, 7, 3, 9, 4, 8, 2, 6, 5}
	q1, q3 := quartiles(v) // statistics.quantiles(range(1,11), n=4) == [2.75, 5.5, 8.25]
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if m := midMedian(v); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
	if got := verdict(0.04, 0.02, 0.10); got != "ok" {
		t.Errorf("verdict = %s, want ok", got)
	}
	if got := verdict(0.06, 0.02, 0.10); got != "tight" {
		t.Errorf("verdict = %s, want tight", got)
	}
	if got := verdict(0.01, 0.11, 0.10); got != "FAIL" {
		t.Errorf("verdict = %s, want FAIL", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "query", Start: 10, End: 90, Parent: 0},
		{Name: "conn", Start: 20, End: 40, Parent: 1},
		{Name: "conn", Start: 30, End: 50, Parent: 1},  // overlaps its sibling
		{Name: "conn", Start: 80, End: 120, Parent: 1}, // outlives its parent
		{Name: "conn", Start: 60, End: -1, Parent: 1},  // never finished
		{Name: "store", Start: 200, End: 230, Parent: -1},
	}
	self := selfTimes(spans)
	want := map[string]int64{
		"op":    20,           // 100 - the query's 80
		"query": 80 - 30 - 10, // children cover [20,50] and [80,90]
		"conn":  20 + 20 + 40,
		"store": 30,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	if total := totalTimes(spans); total["conn"] != 80 || total["query"] != 80 {
		t.Errorf("total times = %v", total)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer()
	if id := tr.begin("x", -1, 0); id != -1 {
		t.Fatalf("begin with the tracer off returned %d", id)
	}
	tr.on.Store(true)
	id := tr.begin("x", -1, 7)
	tr.end(id)
	if len(tr.spans) != 1 || tr.spans[0].End < tr.spans[0].Start || tr.spans[0].Op != 7 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	ref := spanFrom(withSpan(context.Background(), id, 7))
	if ref.id != id || ref.op != 7 {
		t.Errorf("span ref through context = %+v", ref)
	}
	if ref := spanFrom(context.Background()); ref.id != -1 {
		t.Errorf("span ref of a bare context = %+v", ref)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a, b, c := newGen(42), newGen(42), newGen(43)
	same, differ := true, false
	for i := int64(0); i < 2000; i++ {
		ra, rb, rc := a.liveOrder(i), b.liveOrder(i), c.liveOrder(i)
		if !reflect.DeepEqual(ra, rb) {
			same = false
		}
		if !reflect.DeepEqual(ra, rc) {
			differ = true
		}
		if ra.Long("ts") != eventT0+i/rowsPerMs {
			t.Fatalf("row %d: ts = %d", i, ra.Long("ts"))
		}
		if amt := ra.Double("amount"); amt*4 != math.Trunc(amt*4) || amt < 5 || amt >= 105 {
			t.Fatalf("row %d: amount %v is not a quarter in [5,105)", i, amt)
		}
	}
	if !same {
		t.Error("the same seed gave different rows")
	}
	if !differ {
		t.Error("different seeds gave the same rows")
	}
	if !reflect.DeepEqual(a.restaurant(17), b.restaurant(17)) {
		t.Error("the same seed gave different restaurants")
	}
}

// What a query costs must not depend on the seed: each city holds the same
// popularity ranks whatever the seed, and the rank→restaurant map is a
// bijection.
func TestGeneratorShapeIsSeedIndependent(t *testing.T) {
	for _, seed := range []int64{1, 2, 99} {
		g := newGen(seed)
		seen := make(map[int64]bool, numRestaurants)
		for rank := 0; rank < numRestaurants; rank++ {
			id := g.restaurantOf(rank)
			if id < 0 || id >= numRestaurants || seen[id] {
				t.Fatalf("seed %d: rank %d maps to %d (out of range or taken)", seed, rank, id)
			}
			seen[id] = true
			if want := g.cities[rank%numCities]; g.cityOf(id) != want {
				t.Fatalf("seed %d: rank %d is in %s, want %s", seed, rank, g.cityOf(id), want)
			}
		}
	}
}

// modelPipeline is a pipeline that has "produced" n rows but runs nothing:
// enough for the shapes' SQL and reference forms.
func modelPipeline(seed, n int64) *pipeline {
	return &pipeline{g: newGen(seed), size: sizing{dayRows: 500}, nextRow: n, flushFrom: -1, catalog: "pinot"}
}

// The reference evaluator is checked against a real 1 000-row deployment:
// every table-only shape, through the SQL engine and straight on a broker,
// must agree with it; a wrong answer must not.
func TestReferenceAgainstDeployment(t *testing.T) {
	const n = 1000
	p := modelPipeline(7, n)
	servers := []*olap.Server{olap.NewServer("s0"), olap.NewServer("s1")}
	d, err := olap.NewDeployment(olap.DeploymentConfig{
		Table: olap.TableConfig{Name: topicClean, Schema: ordersSchema(topicClean), SegmentRows: 300,
			Indexes: olap.IndexConfig{InvertedColumns: []string{"city", "status"}}},
		Servers: servers, SegmentStore: objstore.NewMemStore(), Backup: olap.BackupP2P,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		if r := p.row(i); passes(r) {
			if err := d.Ingest(int(i%2), r); err != nil {
				t.Fatal(err)
			}
		}
	}
	d.WaitUploads()
	pinot := fedsql.NewPinotConnector("pinot")
	pinot.AddTable(d)
	engine := fedsql.NewEngine()
	engine.Register(pinot)
	broker := olap.NewBroker(d)

	// With 1 000 rows the dashboard's filters select almost nothing; loosen
	// nothing, but make sure at least the unfiltered shapes have groups.
	checked := 0
	for _, s := range append(append([]shape(nil), dashShapes...), adhocShapes...) {
		if s.olap == nil {
			continue // joins and archive scans need the hive catalog
		}
		for _, from := range []int64{0, eventTime(400)} {
			q := s.ref(p, from)
			want := evaluate(q)
			res, err := engine.Query(s.sql(p, from))
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			if err := check(q, want, res.Columns, res.Rows); err != nil {
				t.Errorf("%s from=%d via SQL: %v", s.name, from, err)
			}
			checked++
		}
		q := s.ref(p, 0)
		resp, err := broker.Execute(context.Background(), &olap.QueryRequest{Query: s.olap(p)})
		if err != nil {
			t.Fatalf("%s on the broker: %v", s.name, err)
		}
		if err := check(q, evaluate(q), resp.Columns, resp.Rows); err != nil {
			t.Errorf("%s via broker: %v", s.name, err)
		}
	}
	if checked == 0 {
		t.Fatal("no shape was checked")
	}

	// A wrong answer must be caught: perturb one sum, drop one group.
	a4 := adhocShapes[3]
	q := a4.ref(p, 0)
	want := evaluate(q)
	res, err := engine.Query(a4.sql(p, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := check(q, want, res.Columns, res.Rows[1:]); err == nil {
		t.Error("a missing group passed the check")
	}
	bad := make([][]any, len(res.Rows))
	for i, row := range res.Rows {
		bad[i] = append([]any(nil), row...)
	}
	for ci, c := range res.Columns {
		if c == "mean" {
			bad[0][ci] = bad[0][ci].(float64) * (1 + 1e-6)
		}
	}
	if err := check(q, want, res.Columns, bad); err == nil {
		t.Error("a sum off by 1e-6 passed the check")
	}
}

// benchmarkSpec is BENCHMARK.json as far as the harness needs it.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// BENCHMARK.json and the harness must declare the same workloads and
// metrics, in the same order, with the same units, directions and bounds.
func TestSpecMatchesHarness(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEndDefs) {
		t.Errorf("end_to_end differs:\n spec    %+v\n harness %+v", spec.EndToEnd, endToEndDefs)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayerDefs) {
		t.Errorf("per_layer differs:\n spec    %+v\n harness %+v", spec.PerLayer, perLayerDefs)
	}
	hasSetup := false
	for _, d := range spec.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !hasSetup {
		t.Error("end_to_end has no setup_s in seconds, lower is better")
	}
}

// A tiny run of every workload, untraced and traced, must succeed, lose no
// rows, answer every query correctly and print every declared metric
// exactly once with its unit.
func TestSmokeAllWorkloads(t *testing.T) {
	spec := readSpec(t)
	for _, w := range workloads {
		w := w.scaled(0.05)
		for _, traced := range []bool{false, true} {
			name, defs := w.name+"/untraced", spec.EndToEnd
			if traced {
				name, defs = w.name+"/traced", spec.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				var res *result
				var err error
				if traced {
					res, err = runTraced(w, 5, 600*time.Millisecond, t.TempDir())
				} else {
					res, err = runUntraced(w, 5, 300*time.Millisecond)
				}
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d errors=%v", res.Correct, res.Attempted, res.Failed, res.Errors)
				}
				lines := strings.Split(report(res, defs), "\n")
				for _, d := range defs {
					seen := 0
					for _, line := range lines {
						if f := strings.Fields(line); len(f) == 3 && f[0] == d.Name && f[2] == d.Unit {
							seen++
						}
					}
					if seen != 1 {
						t.Errorf("metric %s [%s] printed %d times, want once", d.Name, d.Unit, seen)
					}
					if v, ok := res.Metrics[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("metric %s = %v (present %v)", d.Name, v, ok)
					}
				}
				if !traced {
					for _, d := range defs {
						if res.Metrics[d.Name] <= 0 {
							t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, res.Metrics[d.Name])
						}
					}
				}
			})
		}
	}
}
