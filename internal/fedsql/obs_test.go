package fedsql

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestQueryTraceAttached asserts a traced federated query attaches the full
// span tree to Result.Trace: fedsql.query → scan (with catalog/table attrs)
// → broker.execute → server.scan → segment.scan for the pinot side.
func TestQueryTraceAttached(t *testing.T) {
	e, _ := setupEngine(t, 200)
	e.Tracer = obs.NewTracer(obs.TracerConfig{Recent: 8})
	res, err := e.Query("SELECT city, SUM(amount) FROM pinot.orders GROUP BY city")
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("Result.Trace not attached")
	}
	if res.Trace.Name != "fedsql.query" {
		t.Fatalf("root span = %q, want fedsql.query", res.Trace.Name)
	}
	for _, name := range []string{"scan", "broker.execute", "server.scan", "segment.scan", "merge", "finalize"} {
		if res.Trace.Find(name) == nil {
			t.Errorf("trace missing span %q:\n%s", name, res.Trace.Render())
		}
	}
	scan := res.Trace.Find("scan")
	var tableAttr string
	for _, a := range scan.Attrs {
		if a.Key == "table" {
			tableAttr = a.Value
		}
	}
	if tableAttr != "orders" {
		t.Fatalf("scan table attr = %q, want orders:\n%s", tableAttr, res.Trace.Render())
	}
	// The broker span must nest under the scan span: one trace spans both
	// layers end to end.
	be := res.Trace.Find("broker.execute")
	if res.Trace.Spans[be.Parent].Name != "scan" {
		t.Fatalf("broker.execute parent = %q, want scan:\n%s", res.Trace.Spans[be.Parent].Name, res.Trace.Render())
	}
	// Plan lines carry per-stage timings when traced.
	if len(res.Plan) != 1 || !strings.Contains(res.Plan[0], " time=") {
		t.Fatalf("plan %v should carry scan timing", res.Plan)
	}
}
