package fedsql

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"

	"repro/internal/metadata"
	"repro/internal/objstore"
	"repro/internal/record"
	"repro/internal/reftest"
)

// recycleTables archives hive.legs in three parts of 7, 40 and 13 rows and
// hive.places in one. Their columns at the same positions have different
// types — a long and a string first, a string and a double second — and both
// end in a bytes column, so a pooled vector is decoded as another type than
// it was last, and legs' city and blob columns hold NULLs.
func recycleTables(t *testing.T) (*Engine, *ArchiveConnector, reftest.DB) {
	t.Helper()
	legs := &metadata.Schema{Name: "legs", Version: 1, Fields: []metadata.Field{
		{Name: "leg", Type: metadata.TypeLong},
		{Name: "city", Type: metadata.TypeString, Nullable: true},
		{Name: "blob", Type: metadata.TypeBytes, Nullable: true},
	}}
	places := &metadata.Schema{Name: "places", Version: 1, Fields: []metadata.Field{
		{Name: "city", Type: metadata.TypeString},
		{Name: "score", Type: metadata.TypeDouble},
		{Name: "blob", Type: metadata.TypeBytes, Nullable: true},
	}}
	var parts [][]record.Record
	leg := 0
	for _, n := range []int{7, 40, 13} {
		part := make([]record.Record, n)
		for i := range part {
			part[i] = record.Record{"leg": int64(leg)}
			if leg%4 != 0 {
				part[i]["city"] = fmt.Sprintf("city_%d", leg%5)
			}
			if leg%3 != 0 {
				part[i]["blob"] = []byte(fmt.Sprintf("leg-%d", leg))
			}
			leg++
		}
		parts = append(parts, part)
	}
	var placeRows []record.Record
	for c := range 4 { // city_4 has no place
		placeRows = append(placeRows, record.Record{"city": fmt.Sprintf("city_%d", c), "score": float64(c) + 0.5,
			"blob": []byte{byte(c), 0xff}})
	}
	store := objstore.NewMemStore()
	hive := NewArchiveConnector("hive", store)
	db := reftest.DB{
		"hive.legs":   archiveTable(t, hive, store, legs, parts...),
		"hive.places": archiveTable(t, hive, store, places, placeRows),
	}
	e := NewEngine()
	e.Register(hive)
	return e, hive, db
}

// TestArchiveScanRecyclesColumns: archive scans from two goroutines share
// the connector's pool of column vectors, each scan's until its Close. A
// join with an archive build side, a GROUP BY over an archive scan and row
// selections with blobs interleave for 50 rounds, and every answer must be
// the first one, which the reference accepts: a vector still read by one
// scan while another decodes into it, or a stale value of another type,
// shows. A closed scan's vectors pin no string or blob, its second Close is
// a no-op and its Next is io.EOF.
func TestArchiveScanRecyclesColumns(t *testing.T) {
	e, hive, db := recycleTables(t)
	const (
		a2 = "SELECT p.score, COUNT(*) AS n, SUM(l.leg) AS total FROM hive.legs l JOIN hive.places p ON l.city = p.city GROUP BY p.score"
		a3 = "SELECT city, COUNT(*) AS n, SUM(leg) AS total FROM hive.legs GROUP BY city"
		s1 = "SELECT leg, city, blob FROM hive.legs WHERE leg >= 5"
		s2 = "SELECT city, score, blob FROM hive.places"
	)
	first := map[string]*Result{}
	for _, sql := range []string{a2, a3, s1, s2} {
		res, err := e.QueryCtx(context.Background(), sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		checkRef(t, db, sql, res)
		first[sql] = res
	}
	var wg sync.WaitGroup
	for _, queries := range [][]string{{a2, s1}, {a3, s2}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 50 {
				for _, sql := range queries {
					res, err := e.QueryCtx(context.Background(), sql)
					if err != nil {
						t.Errorf("round %d %q: %v", round, sql, err)
						return
					}
					if want := first[sql]; !reflect.DeepEqual(res.Rows, want.Rows) {
						t.Errorf("round %d %q: %v, first %v", round, sql, res.Rows, want.Rows)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	// The race detector drops pooled objects at random; a few scans put
	// one back.
	for range 20 {
		it, err := hive.OpenScan(context.Background(), "legs", Pushdown{})
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := it.Next(context.Background()); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		if err := it.Close(); err != nil {
			t.Fatalf("a second Close = %v", err)
		}
		if b, err := it.Next(context.Background()); b != nil || err != io.EOF {
			t.Fatalf("Next after Close = %v, %v; want io.EOF", b, err)
		}
		vecs, _ := hive.vectors.Get().(*[]record.Vector)
		if vecs == nil {
			continue
		}
		for c, v := range *vecs {
			for r, s := range v.Strs[:cap(v.Strs)] {
				if s != "" {
					t.Fatalf("pooled vector %d keeps string %q at row %d", c, s, r)
				}
			}
			for r, b := range v.Bytes[:cap(v.Bytes)] {
				if b != nil {
					t.Fatalf("pooled vector %d keeps blob %q at row %d", c, b, r)
				}
			}
		}
		return
	}
	t.Fatal("no scan's vectors came back to the pool")
}
