package objstore

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/metadata"
	"repro/internal/record"
)

// BenchmarkArchiveScanProjected reads two of the six columns of one archive
// part shaped like the pipeline benchmark's hive.orders_day — 15 000 rows,
// unique order ids, 16 cities — the way the archive connector does: fetch
// the part, decode the requested columns into reused arrays.
//
//	go test -run '^$' -bench ArchiveScanProjected -benchmem ./internal/objstore
func BenchmarkArchiveScanProjected(b *testing.B) {
	const partRows = 15_000
	schema := &metadata.Schema{Name: "orders_day", Version: 1, TimeField: "ts", Fields: []metadata.Field{
		{Name: "order_id", Type: metadata.TypeString},
		{Name: "restaurant_id", Type: metadata.TypeLong},
		{Name: "city", Type: metadata.TypeString},
		{Name: "status", Type: metadata.TypeString},
		{Name: "amount", Type: metadata.TypeDouble},
		{Name: "ts", Type: metadata.TypeTimestamp},
	}}
	rows := make([]record.Record, partRows)
	for i := range rows {
		rows[i] = record.Record{
			"order_id": fmt.Sprintf("o%d", i), "restaurant_id": int64(i * 7919 % 5000),
			"city": fmt.Sprintf("city_%02d", i%16), "status": []string{"placed", "picked_up", "delivered"}[i%3],
			"amount": 5 + float64(i%400)/4, "ts": int64(1_700_000_000_000 + i/10),
		}
	}
	data := encodeRows(b, schema, rows)
	store := NewMemStore()
	if err := store.Put("archive/orders_day/000000", data); err != nil {
		b.Fatal(err)
	}
	reader := NewArchiveReader(store, "orders_day", schema)
	names, cols := []string{"city", "amount"}, make([]record.Vector, 2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := reader.ReadColumns("archive/orders_day/000000", names, cols); err != nil || n != partRows {
			b.Fatalf("ReadColumns = %d, %v", n, err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/partRows, "ns/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/partRows, "allocs/row")
}
