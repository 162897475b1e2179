package fedsql

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/objstore"
	"repro/internal/record"
)

// BenchmarkArchiveGroupBy is the ad-hoc pass's A3 through the engine: a
// 15 000-row archive part, grouped by city with COUNT and SUM engine-side.
// It pays for what crosses the archive connector (two of six columns) and
// for the engine's group lookup per row.
//
//	go test -run '^$' -bench ArchiveGroupBy -benchmem ./internal/fedsql
func BenchmarkArchiveGroupBy(b *testing.B) {
	const partRows = 15_000
	schema, _ := adhocSchemas()
	schema.Name = "orders_day"
	rows := make([]record.Record, partRows)
	for i := range rows {
		rows[i] = record.Record{
			"order_id": fmt.Sprintf("o%d", i), "restaurant_id": int64(i * 7919 % 5000),
			"city": fmt.Sprintf("city_%02d", i%16), "status": []string{"placed", "picked_up", "delivered"}[i%3],
			"amount": 5 + float64(i%400)/4, "ts": int64(1_700_000_000_000 + i/10),
		}
	}
	data, err := objstore.EncodeColumnar(schema, rows)
	if err != nil {
		b.Fatal(err)
	}
	store := objstore.NewMemStore()
	if err := store.Put("archive/orders_day/000000", data); err != nil {
		b.Fatal(err)
	}
	hive := NewArchiveConnector("hive", store)
	hive.AddTable("orders_day", schema)
	e := NewEngine()
	e.Register(hive)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.QueryCtx(context.Background(), "SELECT city, COUNT(*) AS n, SUM(amount) AS total FROM hive.orders_day GROUP BY city")
		if err != nil || len(res.Rows) != 16 {
			b.Fatalf("%d groups, %v", len(res.Rows), err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/partRows, "ns/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/partRows, "allocs/row")
}
