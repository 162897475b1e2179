package olap

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/metadata"
	"repro/internal/record"
)

// FuzzMergePartials is the algebraic gate for the partial-aggregate layer
// (and therefore for matview incremental maintenance, which is nothing but
// Merge over PartialOfRows batches): for fuzz-derived row sets, splitting
// the rows into any chunking and merging the chunk partials in any rotation
// — or as a balanced tree, or k ways at once as a producer and the broker
// do — must finalize to a single-pass aggregation over all rows, cell for
// cell in value and Go type (reflect.DeepEqual of the boxed rows). The
// chunks come from every source a broker merges: a consuming scan, a sealed
// segment (whose long keys and values come from an int64 dictionary), a
// star-tree-served segment, PartialOfRows and an empty chunk. Every merge
// leaves a table in strict key order, and equals the hash merge it replaced
// (hashMerge), kept here as its oracle — in both rotations, and over runs
// trimmed to a top-K budget, which no single pass answers. Merge must leave
// its argument unchanged: every chunk finalizes as before after it has been
// merged into two accumulators. The derived rows include the NULL-semantics
// edges: missing measure values, all-null chunks, empty chunks, and filters
// that match zero rows (MIN/MAX/AVG over empty sets).

// fuzzSchema is the orders schema with a nullable double, score, that
// groups NaN, -0 and 0 and NULL.
func fuzzSchema() *metadata.Schema {
	s := ordersSchema()
	s.Fields = append(s.Fields, metadata.Field{Name: "score", Type: metadata.TypeDouble, Nullable: true})
	return s
}

// fuzzRow derives one row from one fuzz byte. Measures are exactly
// representable (multiples of 0.5 below 16), so float64 sums are
// merge-order independent and byte-identical comparison is sound. Some
// items are 2^53 or 2^53+1, two longs that are one float64: one group and
// one DISTINCTCOUNT value, which a sealed chunk's dictionary holds as two
// codes. The score key is NaN, -0, 0, a number or NULL.
func fuzzRow(b byte, i int) record.Record {
	cities := []string{"sf", "nyc", "la", "chi"}
	statuses := []string{"placed", "cooking", "delivered"}
	r := record.Record{
		"order_id": fmt.Sprintf("o-%05d", i),
		"city":     cities[int(b)&3],
		"status":   statuses[(int(b)>>2)%3],
		"amount":   float64(b>>3) / 2,
		"items":    int64(b % 7),
		"ts":       int64(1700000000000 + i*1000),
	}
	if b%11 == 0 {
		delete(r, "amount") // null measure: SUM/MIN/MAX/AVG/COUNT(col) skip it
	}
	if b%7 == 6 {
		r["items"] = int64(1)<<53 + int64(b&1)
	}
	if b%13 == 0 {
		delete(r, "items")
	}
	if b&1 == 0 {
		r["rush"] = b&2 == 0
	}
	switch (b >> 5) % 5 {
	case 0:
		r["score"] = math.NaN()
	case 1:
		r["score"] = math.Copysign(0, -1)
	case 2:
		r["score"] = 0.0
	case 3:
		r["score"] = float64(b&7) / 2
	}
	return r
}

// consumingOf is a consuming store of records, each field's cell by the
// rule BuildSegment's rows take: missing is NULL, the rest record.Coerce.
func consumingOf(schema *metadata.Schema, recs []record.Record) (*scanSet, error) {
	m := newMutableSegment("", schema, len(recs), nil)
	for _, r := range recs {
		vals := make([]record.Value, len(schema.Fields))
		for fi, f := range schema.Fields {
			v, err := record.Coerce(r[f.Name], f.Type)
			if err != nil {
				return nil, err
			}
			vals[fi] = record.ValueOf(v)
		}
		m.appendRow(vals)
	}
	return m.snapshot(), nil
}

// partialOfRecords is PartialOfRows over records, each field's cell by the
// rule BuildSegment's rows take: missing is NULL, the rest record.Coerce.
func partialOfRecords(schema *metadata.Schema, recs []record.Record, q *Query) (*Partial, error) {
	rows := make([]record.Row, len(recs))
	for i, r := range recs {
		rows[i] = record.Row{Schema: schema, Vals: make([]record.Value, len(schema.Fields))}
		for fi, f := range schema.Fields {
			v, err := record.Coerce(r[f.Name], f.Type)
			if err != nil {
				return nil, err
			}
			rows[i].Vals[fi] = record.ValueOf(v)
		}
	}
	return PartialOfRows(schema, rows, q)
}

// hashMerge is the merge the run merge replaced, kept as its oracle: each
// group of each part in turn is looked up in a record.KeyIndex of the
// table's keys and folds into the group it finds, or is appended — key row
// copied, states copied — in first-seen order. nil for a selection.
func hashMerge(q *Query, parts []*Partial) *Partial {
	acc := newPartial(q)
	if !acc.agg {
		return nil
	}
	var index record.KeyIndex
	for _, o := range parts {
		acc.stats.Add(o.stats)
		for r := range o.n {
			row, found := index.Add(o.keys, r)
			if found {
				foldStates(acc.states(row), o.states(r))
				continue
			}
			for c := range o.keys {
				acc.keys[c].AppendRows(&o.keys[c], []int32{int32(r)})
			}
			for range acc.naggs {
				acc.accs = append(acc.accs, aggState{})
			}
			foldStates(acc.states(acc.n), o.states(r))
			acc.n++
		}
	}
	return acc
}

// fuzzQueries is the shape set every chunking is checked against: global
// and grouped aggregations over every kind, filtered shapes that can match
// zero rows in some or all chunks, keys of NaN, -0, 0 and NULL, a top-K
// whose runs trim, and ordered selections whose ORDER BY ties across
// chunks. The star-tree shape comes last.
func fuzzQueries() []*Query {
	return []*Query{
		{Aggs: []AggSpec{
			{Kind: AggCount},
			{Kind: AggSum, Column: "amount"},
			{Kind: AggMin, Column: "amount"},
			{Kind: AggMax, Column: "amount"},
			{Kind: AggAvg, Column: "amount"},
			{Kind: AggDistinctCount, Column: "items"},
		}},
		{GroupBy: []string{"city"}, Aggs: []AggSpec{
			{Kind: AggCount, Column: "rush"},
			{Kind: AggAvg, Column: "amount"},
			{Kind: AggMin, Column: "items"},
			{Kind: AggMax, Column: "items"},
			{Kind: AggDistinctCount, Column: "status"},
		}},
		// Sparse filter: zero matching rows in most (or all) chunks.
		{Filters: []Filter{{Column: "city", Op: OpEq, Value: "sf"},
			{Column: "amount", Op: OpGe, Value: 12.0}},
			GroupBy: []string{"status"},
			Aggs: []AggSpec{{Kind: AggMin, Column: "amount"},
				{Kind: AggMax, Column: "amount"}, {Kind: AggAvg, Column: "amount"}}},
		// Matches nothing anywhere: the empty-set NULL row must survive any
		// merge order.
		{Filters: []Filter{{Column: "status", Op: OpEq, Value: "nope"}},
			Aggs: []AggSpec{{Kind: AggMin, Column: "amount"},
				{Kind: AggMax, Column: "items"}, {Kind: AggAvg, Column: "amount"},
				{Kind: AggCount}}},
		// Grouped by a long, DISTINCTCOUNT over a long and a string: typed
		// sets and keys that a sealed chunk reads from its dictionaries.
		{GroupBy: []string{"items"}, Aggs: []AggSpec{
			{Kind: AggDistinctCount, Column: "items"},
			{Kind: AggDistinctCount, Column: "status"},
			{Kind: AggSum, Column: "amount"}}},
		// Keys of NaN, -0 and 0 and NULL, alone and leading a tuple.
		{GroupBy: []string{"score"}, Aggs: []AggSpec{{Kind: AggCount}, {Kind: AggSum, Column: "amount"},
			{Kind: AggDistinctCount, Column: "status"}}},
		{GroupBy: []string{"score", "items"}, Aggs: []AggSpec{{Kind: AggCount}, {Kind: AggMax, Column: "amount"}}},
		// A top-K over a group per row: runs trimmed to ten groups.
		{GroupBy: []string{"order_id"}, Aggs: []AggSpec{{Kind: AggCount, As: "n"}, {Kind: AggSum, Column: "amount", As: "total"}},
			OrderBy: []OrderSpec{{Column: "total", Desc: true}}, Limit: 2},
		// Ordered selections: amount ties across chunks and is sometimes
		// NULL; city and items tie more often still, and OFFSET skips rows.
		{Select: []string{"order_id", "amount"},
			OrderBy: []OrderSpec{{Column: "amount", Desc: true}}, Limit: 5},
		{Select: []string{"city", "items", "status", "amount"},
			OrderBy: []OrderSpec{{Column: "city"}, {Column: "items", Desc: true}}, Limit: 4, Offset: 3},
		// Star-tree eligible: an equality on a dimension, group-by dimensions
		// and metric rollups, so the star-tree chunk answers from its tree.
		{Filters: []Filter{{Column: "status", Op: OpEq, Value: "placed"}},
			GroupBy: []string{"city", "items"},
			Aggs: []AggSpec{{Kind: AggCount}, {Kind: AggSum, Column: "amount"},
				{Kind: AggMin, Column: "amount"}, {Kind: AggMax, Column: "amount"},
				{Kind: AggAvg, Column: "amount"}}},
	}
}

// fuzzStarTree is the star-tree chunk's index: the dimensions and metric
// fuzzQueries' star-tree-eligible shape reads.
var fuzzStarTree = IndexConfig{StarTree: &StarTreeConfig{
	Dimensions: []string{"city", "status", "items"}, Metrics: []string{"amount"}, MaxLeafRecords: 2}}

func FuzzMergePartials(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{3, 1, 42})
	f.Add([]byte{0, 7, 0, 11, 13, 22, 33, 44, 55, 66, 77, 88, 99, 255})
	f.Add([]byte{255, 255, 255, 255, 255, 255})
	f.Add([]byte{1, 2, 0, 13, 26, 39, 52, 65, 78, 91, 104, 117, 130, 143})
	f.Add([]byte{7, 3, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120, 128})
	// NULL keys (score, items), NaN, -0 beside 0, and 2^53 beside 2^53+1,
	// over three chunks.
	f.Add([]byte{2, 2, 130, 143, 13, 26, 5, 165, 40, 70, 45, 75, 20, 27, 6, 34, 66})
	// Two chunks of thirteen groups each: the top-K's runs trim.
	f.Add([]byte{1, 1, 9, 18, 27, 36, 45, 54, 63, 72, 81, 90, 99, 108, 117, 126, 135, 144, 153, 162, 171, 180, 189, 198, 207, 216, 225, 234})

	schema := fuzzSchema()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		rot, nChunks := 0, 1
		if len(data) > 0 {
			rot = int(data[0])
			data = data[1:]
		}
		if len(data) > 0 {
			nChunks = int(data[0])%8 + 1
			data = data[1:]
		}
		rows := make([]record.Record, len(data))
		for i, b := range data {
			rows[i] = fuzzRow(b, i)
		}

		// Chunk the rows evenly (some chunks may be empty), each to be
		// answered by a consuming scan, a sealed segment or a star-tree
		// segment in turn, and append one always-empty chunk. A chunk
		// scans under a top-K plan, or none.
		per := max((len(rows)+nChunks-1)/nChunks, 1)
		var chunks []func(q *Query, tp *topKPlan) (*Partial, error)
		star := -1 // the chunk a star-tree segment answers
		for at := 0; at < nChunks; at++ {
			chunk := rows[min(at*per, len(rows)):min((at+1)*per, len(rows))]
			var cfg *IndexConfig
			switch at % 3 {
			case 1:
				cfg = &IndexConfig{}
			case 2:
				cfg = &fuzzStarTree
			}
			if cfg == nil || len(chunk) == 0 {
				chunks = append(chunks, func(q *Query, tp *topKPlan) (*Partial, error) {
					if tp == nil {
						return partialOfRecords(schema, chunk, q)
					}
					sc, err := consumingOf(schema, chunk)
					if err != nil {
						return nil, err
					}
					return sc.executePartial(q, nil, tp)
				})
				continue
			}
			seg, err := BuildSegment(fmt.Sprintf("c%d", at), schema, chunk, *cfg, -1)
			if err != nil {
				t.Fatalf("chunk %d: %v", at, err)
			}
			if cfg.StarTree != nil {
				star = at
			}
			chunks = append(chunks, func(q *Query, tp *topKPlan) (*Partial, error) { return seg.executePartialTrim(q, nil, tp) })
		}
		chunks = append(chunks, func(q *Query, _ *topKPlan) (*Partial, error) { return PartialOfRows(schema, nil, q) })

		for qi, q := range fuzzQueries() {
			single, err := partialOfRecords(schema, rows, q)
			if err != nil {
				t.Fatalf("q%d single-pass: %v", qi, err)
			}
			want, err := single.Finalize(q)
			if err != nil {
				t.Fatalf("q%d finalize: %v", qi, err)
			}
			finalize := func(how string, p *Partial) *QueryResponse {
				t.Helper()
				if p.agg && !inKeyOrder(p) {
					t.Fatalf("q%d %s: the merged table is not in strict key order", qi, how)
				}
				got, err := p.Finalize(q)
				if err != nil {
					t.Fatalf("q%d %s finalize: %v", qi, how, err)
				}
				return got
			}
			same := func(how string, p *Partial) {
				t.Helper()
				got := finalize(how, p)
				if !reflect.DeepEqual(got.Batch.Columns, want.Batch.Columns) || !reflect.DeepEqual(floatClassed(rowsOf(got)), floatClassed(rowsOf(want))) {
					t.Fatalf("q%d %s diverges from single pass:\n got %v %v\nwant %v %v",
						qi, how, got.Batch.Columns, fmt.Sprintf("%#v", rowsOf(got)), want.Batch.Columns, fmt.Sprintf("%#v", rowsOf(want)))
				}
			}
			// asOracle holds a merge of parts to the hash merge of them: the
			// same groups and states, whatever their order.
			asOracle := func(how string, p *Partial, parts []*Partial) {
				t.Helper()
				oracle := hashMerge(q, parts)
				if oracle == nil {
					return
				}
				exp, err := oracle.Finalize(q)
				if err != nil {
					t.Fatalf("q%d %s: the hash merge's finalize: %v", qi, how, err)
				}
				if g, w := unordered(rowsOf(finalize(how, p))), unordered(rowsOf(exp)); !reflect.DeepEqual(g, w) {
					t.Fatalf("q%d %s diverges from the hash merge:\n got %v\nwant %v", qi, how, g, w)
				}
			}

			// Each chunk's answer comes from a second partial of it, so the
			// merges below read partials as they leave the scan.
			parts := make([]*Partial, len(chunks))
			before := make([]*QueryResponse, len(chunks))
			for i, chunk := range chunks {
				if parts[i], err = chunk(q, nil); err != nil {
					t.Fatalf("q%d chunk %d: %v", qi, i, err)
				}
				twin, err := chunk(q, nil)
				if err == nil {
					before[i], err = twin.Finalize(q)
				}
				if err != nil {
					t.Fatalf("q%d chunk %d finalize: %v", qi, i, err)
				}
			}

			if qi == len(fuzzQueries())-1 && star >= 0 && parts[star].stats.StarTreeServed != 1 {
				t.Fatalf("q%d: the star-tree chunk was not served from its tree", qi)
			}

			// Rotated sequential merges into two accumulators:
			// commutativity across arrival orders.
			for _, start := range []int{rot, rot + 1} {
				acc, err := PartialOfRows(schema, nil, q)
				if err != nil {
					t.Fatal(err)
				}
				rotated := make([]*Partial, len(parts))
				for i := range parts {
					rotated[i] = parts[(i+start)%len(parts)]
					acc.Merge(rotated[i])
				}
				how := fmt.Sprintf("rotated merge from %d", start%len(parts))
				same(how, acc)
				asOracle(how, acc, rotated)
			}

			// Balanced-tree merge: associativity across groupings.
			var tree func(ps []*Partial) *Partial
			tree = func(ps []*Partial) *Partial {
				if len(ps) == 1 {
					acc := newPartial(q)
					acc.Merge(ps[0])
					return acc
				}
				left, right := tree(ps[:len(ps)/2]), tree(ps[len(ps)/2:])
				left.Merge(right)
				return left
			}
			same("tree merge", tree(parts))

			// One k-way merge, as a producer and the broker run it.
			same("k-way merge", merged(q, slices.Clone(parts), 0, true))

			// The same merge over runs the caller owns, whose states it
			// moves or folds into: all of them, as the broker merges the
			// producers' tables, and the first few beside read-only ones, as
			// a producer merges its scans beside the cache's partials.
			fresh := make([]*Partial, len(chunks))
			for i, chunk := range chunks {
				if fresh[i], err = chunk(q, nil); err != nil {
					t.Fatalf("q%d chunk %d: %v", qi, i, err)
				}
			}
			same("k-way merge of owned runs", merged(q, fresh, len(fresh), true))
			mine := len(chunks)/2 + 1
			for i, chunk := range chunks[:mine] {
				if fresh[i], err = chunk(q, nil); err != nil {
					t.Fatalf("q%d chunk %d: %v", qi, i, err)
				}
			}
			same("k-way merge of owned and read-only runs", merged(q, append(fresh[:mine], parts[mine:]...), mine, true))

			// Runs trimmed to the top-K budget: merged one at a time and k
			// ways, as the hash merge merges them.
			if tp := planTopK(q, 1); tp != nil && len(q.Aggs) > 0 {
				trimmed := make([]*Partial, len(chunks))
				for i, chunk := range chunks {
					if trimmed[i], err = chunk(q, tp); err != nil {
						t.Fatalf("q%d chunk %d trimmed: %v", qi, i, err)
					}
				}
				acc := newPartial(q)
				for _, p := range trimmed {
					acc.Merge(p)
				}
				asOracle("merge of trimmed runs", acc, trimmed)
				asOracle("k-way merge of trimmed runs", merged(q, slices.Clone(trimmed), 0, true), trimmed)
			}

			// Merge left every chunk as it was.
			for i, p := range parts {
				after, err := p.Finalize(q)
				if err != nil || !reflect.DeepEqual(floatClassed(rowsOf(after)), floatClassed(rowsOf(before[i]))) {
					t.Fatalf("q%d chunk %d changed by Merge: %v, was %v (%v)", qi, i, rowsOf(after), rowsOf(before[i]), err)
				}
			}
		}
	})
}

// unordered is rows as comparable text, NaN and -0 as floatClassed spells
// them, sorted: the rows as a multiset.
func unordered(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, row := range floatClassed(rows) {
		out[i] = fmt.Sprintf("%#v", row)
	}
	slices.Sort(out)
	return out
}

// FuzzDecodeSegment feeds DecodeSegment the bytes a deep store could hand a
// reload or a recovery: whatever decodes re-encodes to the bytes it was read
// from (so they decode to an equal segment), and answers a COUNT, and a
// GROUP BY and =, != and range filters on each column, through the
// star-tree, the inverted index or the sorted runs where one serves,
// without a panic and without writing into the input. Decoding allocates at
// most a small constant times the input's length, beside the star-tree,
// whose rebuild costs what the seal's build did: no count the bytes claim
// sizes an allocation they cannot back.
func FuzzDecodeSegment(f *testing.F) {
	bigLongs := orderRows(40)
	for i, r := range bigLongs {
		r["items"] = int64(1)<<53 + int64(i%5) // an int64 dictionary past float64's exact integers
	}
	for _, c := range []struct {
		rows []record.Record
		cfg  IndexConfig
	}{
		{orderRows(40), IndexConfig{InvertedColumns: []string{"city"}, StarTree: &StarTreeConfig{Dimensions: []string{"city", "status"}, Metrics: []string{"amount"}, MaxLeafRecords: 4}}},
		{orderRows(40), IndexConfig{SortedColumn: "status"}},
		{bigLongs, IndexConfig{SortedColumn: "items", InvertedColumns: []string{"items"}}},
	} {
		seg, err := BuildSegment("s", ordersSchema(), c.rows, c.cfg, -1)
		if err != nil {
			f.Fatal(err)
		}
		data, err := seg.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The deep store lends its objects: neither the decoder nor a query
		// over what it decoded may write into the input.
		was := bytes.Clone(data)
		defer func() {
			if !bytes.Equal(data, was) {
				t.Fatal("decoding or querying the segment wrote into its input")
			}
		}()
		seg, err := DecodeSegment(data)
		if err != nil {
			return
		}
		if again, err := seg.Encode(); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("a decoded segment re-encodes to other bytes (%v)", err)
		}
		allowed := 32*uint64(len(data)) + 64<<10
		if seg.Tree != nil {
			allowed += heapBytes(func() { buildStarTree(seg, seg.Tree.Cfg) })
		}
		if got := heapBytes(func() { DecodeSegment(data) }); got > allowed {
			t.Fatalf("decoding %d bytes allocated %d, more than %d", len(data), got, allowed)
		}
		seg.Execute(&Query{Aggs: []AggSpec{{Kind: AggCount}}}, nil) // an error is an answer; a panic is the failure
		for _, fld := range seg.Schema.Fields {
			// A GROUP BY, then an equality, a != and ranges on its first
			// value, so corrupt posting lists, sorted runs and codes reach
			// predBitmap and orCodeRows: an indexed column filters through
			// its index, the sorted column's ranges through its runs.
			lit := fuzzLiteral(fld.Type)
			r, err := seg.Execute(&Query{GroupBy: []string{fld.Name}, Aggs: []AggSpec{{Kind: AggCount}, {Kind: AggMax, Column: fld.Name}}}, nil)
			if err == nil && r.Batch.Len > 0 && rowsOf(r)[0][0] != nil {
				lit = rowsOf(r)[0][0]
			}
			for _, f := range []Filter{{Column: fld.Name, Op: OpEq, Value: lit}, {Column: fld.Name, Op: OpNe, Value: lit},
				{Column: fld.Name, Op: OpBetween, Value: lit, Value2: lit}, {Column: fld.Name, Op: OpGt, Value: lit}} {
				seg.Execute(&Query{Filters: []Filter{f}, Aggs: []AggSpec{{Kind: AggCount}}}, nil)
			}
		}
	})
}

// fuzzLiteral is a filter literal of a column type that values of the
// FuzzDecodeSegment seeds hold.
func fuzzLiteral(t metadata.FieldType) any {
	switch t {
	case metadata.TypeString:
		return "placed"
	case metadata.TypeDouble:
		return 10.0
	case metadata.TypeBool:
		return true
	}
	return int64(1)<<53 + 2
}

// FuzzTimeBounds holds the time pruning to the kernels: for fuzz-derived
// filter sets on the time column (every operator; int, float, string, bool,
// NaN and ±Inf literals; reversed BETWEEN) over fuzz-derived row times
// (MinInt64, MaxInt64, longs past 2^53, NULL when the column is nullable),
// every row the compiled filters keep — on a sealed segment with or without
// an index on the time column, and on a consuming store — lies inside
// queryTimeBounds, so a segment pruned on them held no such row; the two
// scans keep the same rows; and unitFilters keeps exactly the rows the full
// filter set does.
func FuzzTimeBounds(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 1, 5, 0, 7, 3})
	f.Add([]byte{8, 1, 0, 2, 3, 4, 128, 129, 130, 3, 7, 1, 1, 2, 0})
	f.Add([]byte{5, 2, 0, 1, 2, 3, 4, 3, 4, 0, 2, 3, 2, 3, 3, 3})
	f.Add([]byte{4, 0, 5, 6, 200, 1, 2, 3, 4, 5, 6, 7, 8, 1, 3, 6, 1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		schema := &metadata.Schema{Name: "t", Fields: []metadata.Field{
			{Name: "id", Type: metadata.TypeString},
			{Name: "ts", Type: metadata.TypeTimestamp, Nullable: in.byte()&1 == 1},
		}, TimeField: "ts"}
		nullable := schema.Fields[1].Nullable
		rows := make([]record.Record, 1+int(in.byte()%8))
		for i := range rows {
			rows[i] = record.Record{"id": fmt.Sprint(i)}
			if b := in.byte(); !nullable || b%5 != 0 {
				rows[i]["ts"] = in.time(b)
			}
		}
		filters := make([]Filter, 1+int(in.byte()%3))
		for i := range filters {
			fl := Filter{Column: "ts", Op: FilterOp(in.byte() % 8), Value: in.literal()}
			switch fl.Op {
			case OpBetween:
				fl.Value2 = in.literal()
			case OpIn:
				for n := 1 + int(in.byte()%3); n > 0; n-- {
					fl.Values = append(fl.Values, in.literal())
				}
			}
			filters[i] = fl
		}
		cfg := [...]IndexConfig{{}, {InvertedColumns: []string{"ts"}}, {SortedColumn: "ts"}}[int(in.byte())%3]
		if nullable {
			cfg.SortedColumn = ""
		}
		seg, err := BuildSegment("s", schema, rows, cfg, -1)
		if err != nil {
			t.Fatal(err)
		}
		m := newMutableSegment("m", schema, len(rows), nil)
		for _, r := range rows {
			if _, err := m.add(r); err != nil {
				t.Fatal(err)
			}
		}
		b := queryTimeBounds(filters, "ts")
		var sealed []int64
		for _, sc := range []*scanSet{seg.scan(), m.snapshot()} {
			kept := keptTimes(t, sc, filters)
			for _, ts := range kept {
				if x := float64(ts); !(x >= b.lo && x <= b.hi) {
					t.Fatalf("filters %+v keep time %d outside the bounds [%v, %v]", filters, ts, b.lo, b.hi)
				}
			}
			if len(kept) > 0 && !b.overlaps(sc.minTime, sc.maxTime) {
				t.Fatalf("filters %+v keep %v of rows in [%d, %d], which the bounds [%v, %v] prune", filters, kept, sc.minTime, sc.maxTime, b.lo, b.hi)
			}
			if unit := keptTimes(t, sc, unitFilters(filters, schema, sc.minTime, sc.maxTime)); !reflect.DeepEqual(unit, kept) {
				t.Fatalf("filters %+v keep %v, the unit's filters %v", filters, kept, unit)
			}
			if sealed == nil {
				sealed = kept
			} else if !reflect.DeepEqual(kept, sealed) {
				t.Fatalf("filters %+v: a sealed segment keeps %v, a consuming store %v", filters, sealed, kept)
			}
		}
	})
}

// keptTimes scans sc through filters and returns the times of the rows they
// keep, ascending: never nil, so an empty result compares equal to another.
func keptTimes(t *testing.T, sc *scanSet, filters []Filter) []int64 {
	t.Helper()
	ss, err := sc.newSelStream(filters, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := sc.col("ts")
	out := []int64{}
	for sel := ss.next(); sel != nil; sel = ss.next() {
		for _, i := range sel {
			if c.layout == layoutPacked {
				out = append(out, c.dict.Ints[c.packed.Get(int(i))])
			} else {
				out = append(out, c.ints[i])
			}
		}
	}
	slices.Sort(out)
	return out
}

// fuzzInput reads a fuzz input byte by byte; past its end every byte is 0.
type fuzzInput []byte

func (in *fuzzInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// timePalette holds the times at the edges float64 comparison has: the
// int64 extremes, 2^53 and its neighbours, zero and a realistic epoch.
var timePalette = [...]int64{math.MinInt64, math.MaxInt64, 1 << 53, 1<<53 + 1, -(1 << 53) - 1, 0, -1, 1_700_000_000_000}

// time draws a time selected by b: a palette value, a small one, or any
// int64.
func (in *fuzzInput) time(b byte) int64 {
	switch {
	case b < 128:
		return timePalette[int(b)%len(timePalette)]
	case b < 192:
		return int64(int8(in.byte()))
	}
	var x uint64
	for range 8 {
		x = x<<8 | uint64(in.byte())
	}
	return int64(x)
}

// literal draws a filter literal of any kind a Filter may carry.
func (in *fuzzInput) literal() any {
	switch in.byte() % 9 {
	case 0:
		return in.time(in.byte())
	case 1:
		return float64(in.time(in.byte()))
	case 2:
		return float64(in.time(in.byte())) + 0.5
	case 3:
		return math.NaN()
	case 4:
		return math.Inf(1 - 2*int(in.byte()&1))
	case 5:
		return [...]string{"5", "abc", ""}[in.byte()%3]
	case 6:
		return int(int8(in.byte()))
	case 7:
		return in.byte()&1 == 1
	}
	return nil
}

// FuzzUnpack holds block unpacking to Get: a column of random values packed
// at bits bits (1–32) over an odd number of rows, so the final word is part
// full, unpacked from start for n rows (at most a window), answers Get at
// every row. A draw outside the column or the widths is skipped.
func FuzzUnpack(f *testing.F) {
	f.Add(uint8(1), uint16(0), uint16(64), int64(1))
	f.Add(uint8(13), uint16(5), uint16(300), int64(2))
	f.Add(uint8(32), uint16(2*BatchRows), uint16(37), int64(3))
	f.Add(uint8(7), uint16(2*BatchRows+36), uint16(1), int64(4))
	const rows = 2*BatchRows + 37
	f.Fuzz(func(t *testing.T, bits uint8, start, n uint16, seed int64) {
		if bits < 1 || bits > 32 || n > BatchRows || int(start)+int(n) > rows {
			t.Skip()
		}
		p := randomPacked(uint(bits), rows, seed)
		var block [BatchRows]uint32
		p.unpack(block[:n], int(start))
		for k := range int(n) {
			if want := p.Get(int(start) + k); int(block[k]) != want {
				t.Fatalf("width %d: row %d unpacks as %d, Get says %d", bits, int(start)+k, block[k], want)
			}
		}
	})
}

// floatClassed returns rows with each long past 2^53 rounded to the long its
// float64 is, and -0 as 0: 2^53 and 2^53+1 are one group, as are -0 and 0,
// and which of them names it depends on which partial reached the merge
// first. A NaN is the string "NaN", which DeepEqual takes for itself.
func floatClassed(rows [][]any) [][]any {
	out := make([][]any, len(rows))
	for i, row := range rows {
		out[i] = slices.Clone(row)
		for c, v := range row {
			switch x := v.(type) {
			case int64:
				if x > 1<<53 || x < -1<<53 {
					out[i][c] = int64(float64(x))
				}
			case float64:
				switch {
				case x != x:
					out[i][c] = "NaN"
				case x == 0:
					out[i][c] = 0.0
				}
			}
		}
	}
	return out
}
