package fedsql

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestFallbackEventStructured asserts the pushdown-fallback diagnostic flows
// through the obs logger as a structured event carrying the fragment name,
// while the Logf text sink receives exactly one formatted line.
func TestFallbackEventStructured(t *testing.T) {
	e, _ := setupEngine(t, 200)
	e.Log = obs.NewLogger(obs.LevelDebug, 16, nil)
	var lines []string
	e.Logf = func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	// The archive connector declares no aggregation capability, so this
	// aggregate falls back to row scan + engine-side aggregation.
	if _, err := e.Query("SELECT city, COUNT(*) FROM hive.orders GROUP BY city"); err != nil {
		t.Fatal(err)
	}
	events := e.Log.Recent()
	if len(events) != 1 {
		t.Fatalf("obs logger got %d events, want 1: %+v", len(events), events)
	}
	ev := events[0]
	if ev.Level != obs.LevelWarn || ev.Msg != "pushdown fallback" {
		t.Fatalf("event = %+v", ev)
	}
	if got := ev.Field("fragment"); got != "aggregate" {
		t.Fatalf("fragment field = %v, want aggregate", got)
	}
	if got := ev.Field("catalog"); got != "hive" {
		t.Fatalf("catalog field = %v, want hive", got)
	}
	if got := ev.Field("table"); got != "orders" {
		t.Fatalf("table field = %v, want orders", got)
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "fallback") {
		t.Fatalf("Logf sink got %v, want one fallback line", lines)
	}
}

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
