package olap

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/metadata"
	"repro/internal/record"
)

// This file holds the test-only naive references the columnar code is
// checked against (first brick of ROADMAP item 4): oracleExecute, the
// row-at-a-time evaluator over []record.Record that consuming segments used
// to answer with, and refBuildSegment, the row-reading segment builder that
// sealing used to run. Neither shares code with the kernels.

// oracleExecute runs a query by scanning raw rows, no indexes, no vectors,
// and returns a mergeable partial keyed like every other partial. valid(i)
// gates upsert-superseded docs.
func oracleExecute(schema *metadata.Schema, rows []record.Record, q *Query, valid func(int) bool) (*Partial, error) {
	match := func(r record.Record) (bool, error) {
		if q.Time != nil && schema.TimeField != "" {
			if t := r.Long(schema.TimeField); t < q.Time.From || t > q.Time.To {
				return false, nil
			}
		}
		for _, f := range q.Filters {
			ok, err := oracleRowMatches(schema, r, f)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
		}
		return true, nil
	}
	if len(q.Aggs) > 0 {
		groups := make(map[string]*groupAgg)
		for i, r := range rows {
			if valid != nil && !valid(i) {
				continue
			}
			ok, err := match(r)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			values := make([]any, len(q.GroupBy))
			for gi, g := range q.GroupBy {
				values[gi] = r[g]
			}
			var keyBytes []byte
			for _, v := range values {
				keyBytes = record.AppendValueKey(keyBytes, v)
			}
			key := string(keyBytes)
			g, ok2 := groups[key]
			if !ok2 {
				g = newGroupAgg(q, values)
				groups[key] = g
			}
			for ai, spec := range q.Aggs {
				switch {
				case spec.Kind == AggCount && spec.Column == "":
					g.aggs[ai].Count++
				case spec.Kind == AggCount:
					if _, has := r[spec.Column]; has {
						g.aggs[ai].Count++
					}
				case spec.Kind == AggDistinctCount:
					if v, has := r[spec.Column]; has && v != nil {
						g.aggs[ai].addDistinct(distinctKey(v))
					}
				default:
					// Numbers as the dictionaries hold them: a bool is 0 or 1.
					if x, has := toF64(r[spec.Column]); has {
						g.aggs[ai].add(x)
					}
				}
			}
		}
		return &Partial{agg: true, groups: groups}, nil
	}
	cols := q.Select
	if len(cols) == 0 {
		cols = selectable(schema)
	}
	p := &Partial{cols: append([]string(nil), cols...)}
	for i, r := range rows {
		if valid != nil && !valid(i) {
			continue
		}
		ok, err := match(r)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		row := make([]any, len(cols))
		for ci, c := range cols {
			row[ci] = r[c]
		}
		p.rows = append(p.rows, row)
		if q.Limit > 0 && len(q.OrderBy) == 0 && len(p.rows) >= q.Limit+q.Offset {
			break
		}
	}
	return p, nil
}

func oracleRowMatches(schema *metadata.Schema, r record.Record, f Filter) (bool, error) {
	field, ok := schema.Field(f.Column)
	if !ok {
		return false, fmt.Errorf("olap: unknown filter column %q", f.Column)
	}
	v, has := r[f.Column]
	if !has || v == nil {
		return false, nil
	}
	cmp := func(a, b any) int {
		if field.Type == metadata.TypeString {
			return strings.Compare(fmt.Sprintf("%v", a), fmt.Sprintf("%v", b))
		}
		fa, _ := toF64(a)
		fb, _ := toF64(b)
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	}
	switch f.Op {
	case OpEq:
		return cmp(v, f.Value) == 0, nil
	case OpNe:
		return cmp(v, f.Value) != 0, nil
	case OpLt:
		return cmp(v, f.Value) < 0, nil
	case OpLe:
		return cmp(v, f.Value) <= 0, nil
	case OpGt:
		return cmp(v, f.Value) > 0, nil
	case OpGe:
		return cmp(v, f.Value) >= 0, nil
	case OpBetween:
		return cmp(v, f.Value) >= 0 && cmp(v, f.Value2) <= 0, nil
	case OpIn:
		for _, want := range f.Values {
			if cmp(v, want) == 0 {
				return true, nil
			}
		}
		return false, nil
	default:
		return false, fmt.Errorf("olap: unsupported op %d", f.Op)
	}
}

// refBuildSegment is the row-reading builder BuildSegment used to be: sort
// the rows, then per column collect the distinct values in a map, sort
// them, and look every row's value up again.
func refBuildSegment(name string, schema *metadata.Schema, rows []record.Record, cfg IndexConfig, partition int) (*Segment, error) {
	if cfg.SortedColumn != "" {
		f, _ := schema.Field(cfg.SortedColumn)
		rows = append([]record.Record(nil), rows...)
		if f.Type == metadata.TypeString {
			sort.SliceStable(rows, func(i, j int) bool {
				return rows[i].String(cfg.SortedColumn) < rows[j].String(cfg.SortedColumn)
			})
		} else {
			sort.SliceStable(rows, func(i, j int) bool {
				return rows[i].Double(cfg.SortedColumn) < rows[j].Double(cfg.SortedColumn)
			})
		}
	}
	seg := &Segment{
		Name:      name,
		Schema:    schema.Clone(),
		NumRows:   len(rows),
		Columns:   make(map[string]*column, len(schema.Fields)),
		Sealed:    true,
		Partition: partition,
	}
	for _, f := range schema.Fields {
		if f.Type == metadata.TypeBytes {
			continue
		}
		seg.Columns[f.Name] = refBuildColumn(f, rows, cfg)
	}
	if schema.TimeField != "" {
		seg.MinTime, seg.MaxTime = rows[0].Long(schema.TimeField), rows[0].Long(schema.TimeField)
		for _, r := range rows[1:] {
			if t := r.Long(schema.TimeField); t < seg.MinTime {
				seg.MinTime = t
			} else if t > seg.MaxTime {
				seg.MaxTime = t
			}
		}
	}
	if cfg.StarTree != nil {
		tree, err := buildStarTree(seg, *cfg.StarTree)
		if err != nil {
			return nil, err
		}
		seg.Tree = tree
	}
	return seg, nil
}

func refBuildColumn(f metadata.Field, rows []record.Record, cfg IndexConfig) *column {
	present := NewBitmap(len(rows))
	dict := dictionary{Typ: f.Type}
	if f.Type == metadata.TypeString {
		uniq := make(map[string]bool)
		for i, r := range rows {
			if v, ok := r[f.Name]; ok && v != nil {
				present.Set(i)
				uniq[r.String(f.Name)] = true
			}
		}
		dict.Strs = make([]string, 0, len(uniq))
		for s := range uniq {
			dict.Strs = append(dict.Strs, s)
		}
		sort.Strings(dict.Strs)
	} else {
		uniq := make(map[float64]bool)
		for i, r := range rows {
			if v, ok := r[f.Name]; ok && v != nil {
				present.Set(i)
				fv, _ := toF64(v)
				uniq[fv] = true
			}
		}
		dict.Nums = make([]float64, 0, len(uniq))
		for v := range uniq {
			dict.Nums = append(dict.Nums, v)
		}
		sort.Float64s(dict.Nums)
	}
	codes := make([]int, len(rows))
	maxCode := dict.size()
	for i, r := range rows {
		switch {
		case !present.Get(i):
			codes[i] = maxCode
		case f.Type == metadata.TypeString:
			codes[i] = dict.lookup(r.String(f.Name))
		default:
			fv, _ := toF64(r[f.Name])
			codes[i] = dict.lookup(fv)
		}
	}
	col := &column{
		Field:   f,
		Dict:    dict,
		Codes:   newPackedInts(codes, maxCode),
		Present: present,
		Sorted:  cfg.SortedColumn == f.Name,
	}
	if cfg.inverted(f.Name) {
		col.Inverted = make([]*Bitmap, dict.size())
		for i, code := range codes {
			if code == maxCode {
				continue
			}
			if col.Inverted[code] == nil {
				col.Inverted[code] = NewBitmap(len(rows))
			}
			col.Inverted[code].Set(i)
		}
	}
	return col
}

// diffGen draws random schemas, rows and queries for the differential
// test. Doubles are multiples of 0.25 and every number stays far below
// 2^53, so float sums are exact and a long survives its trip through a
// float64 dictionary.
type diffGen struct {
	rng    *rand.Rand
	schema *metadata.Schema
	rows   []record.Record
}

var diffStrings = []string{"", "a", "ab", "b", "city_03", "5", "12", "zeta"}

func newDiffGen(seed int64) *diffGen {
	g := &diffGen{rng: rand.New(rand.NewSource(seed))}
	// id is unique and never NULL: the tiebreak that makes an ORDER BY total.
	fields := []metadata.Field{{Name: "id", Type: metadata.TypeString}}
	types := []metadata.FieldType{metadata.TypeString, metadata.TypeLong, metadata.TypeDouble,
		metadata.TypeBool, metadata.TypeTimestamp, metadata.TypeString, metadata.TypeLong}
	for i, n := 0, 2+g.rng.Intn(5); i < n; i++ {
		fields = append(fields, metadata.Field{
			Name:     fmt.Sprintf("c%d", i),
			Type:     types[g.rng.Intn(len(types))],
			Nullable: g.rng.Intn(2) == 0,
		})
	}
	if g.rng.Intn(3) == 0 {
		fields = append(fields, metadata.Field{Name: "blob", Type: metadata.TypeBytes, Nullable: true})
	}
	g.schema = &metadata.Schema{Name: "t", Version: 1, Fields: fields}
	if g.rng.Intn(2) == 0 {
		g.schema.Fields = append(g.schema.Fields, metadata.Field{Name: "ts", Type: metadata.TypeTimestamp})
		g.schema.TimeField = "ts"
	}
	n := 1 + g.rng.Intn(200)
	if g.rng.Intn(8) == 0 {
		n += BatchRows // cross a scan-window boundary now and then
	}
	g.rows = make([]record.Record, n)
	for i := range g.rows {
		r := record.Record{"id": fmt.Sprintf("r%05d", i)}
		for _, f := range g.schema.Fields[1:] {
			if f.Nullable && g.rng.Intn(4) == 0 {
				continue
			}
			r[f.Name] = g.value(f.Type)
		}
		g.rows[i] = r
	}
	return g
}

func (g *diffGen) value(t metadata.FieldType) any {
	switch t {
	case metadata.TypeString:
		return diffStrings[g.rng.Intn(len(diffStrings))]
	case metadata.TypeLong:
		return int64(g.rng.Intn(26) - 5)
	case metadata.TypeDouble:
		return float64(g.rng.Intn(61)-12) / 4
	case metadata.TypeBool:
		return g.rng.Intn(2) == 0
	case metadata.TypeTimestamp:
		return int64(1_700_000_000_000 + g.rng.Intn(1000))
	default:
		return []byte{byte(g.rng.Intn(256))}
	}
}

// literal draws a filter literal for a column, often of another Go type
// than the column stores, sometimes absent from it, sometimes outside its
// domain altogether.
func (g *diffGen) literal(t metadata.FieldType) any {
	switch t {
	case metadata.TypeString:
		switch g.rng.Intn(4) {
		case 0:
			return g.rng.Intn(14) // numeric literal on a string column: "5", "12" exist
		case 1:
			return []string{"aa", "zzzz", "!"}[g.rng.Intn(3)] // absent / beyond either end
		default:
			return g.value(t)
		}
	case metadata.TypeBool:
		if g.rng.Intn(2) == 0 {
			return g.rng.Intn(2) == 0
		}
		return g.rng.Intn(3) - 1 // -1, 0, 1 against a 0/1 column
	case metadata.TypeTimestamp:
		return []any{int64(1_700_000_000_000 + g.rng.Intn(1200) - 100), float64(1_700_000_000_500), 0}[g.rng.Intn(3)]
	default:
		switch g.rng.Intn(5) {
		case 0:
			return g.rng.Intn(30) - 8 // int literal, double or long column
		case 1:
			return float64(g.rng.Intn(120)-30) / 8 // between the stored values
		case 2:
			return []any{int64(-1000), 1e9, -0.125}[g.rng.Intn(3)] // extreme bounds
		case 3:
			return int64(g.rng.Intn(26) - 5)
		default:
			return float64(g.rng.Intn(61)-12) / 4
		}
	}
}

func (g *diffGen) queryable() []metadata.Field {
	var fs []metadata.Field
	for _, f := range g.schema.Fields {
		if f.Type != metadata.TypeBytes {
			fs = append(fs, f)
		}
	}
	return fs
}

// sortable draws a column IndexConfig.checkSorted accepts as the sorted
// column: not nullable, not bool ("id" always qualifies).
func (g *diffGen) sortable() string {
	var names []string
	for _, f := range g.queryable() {
		if (IndexConfig{SortedColumn: f.Name}).checkSorted(g.schema) == nil {
			names = append(names, f.Name)
		}
	}
	return names[g.rng.Intn(len(names))]
}

func (g *diffGen) query() *Query {
	fields := g.queryable()
	pick := func() metadata.Field { return fields[g.rng.Intn(len(fields))] }
	q := &Query{Table: "t"}
	for i, n := 0, g.rng.Intn(4); i < n; i++ {
		f := pick()
		flt := Filter{Column: f.Name, Op: FilterOp(g.rng.Intn(8)), Value: g.literal(f.Type)}
		switch flt.Op {
		case OpBetween:
			flt.Value2 = g.literal(f.Type)
		case OpIn:
			for j, m := 0, 1+g.rng.Intn(3); j < m; j++ {
				flt.Values = append(flt.Values, g.literal(f.Type))
			}
		}
		q.Filters = append(q.Filters, flt)
	}
	if g.schema.TimeField != "" && g.rng.Intn(3) == 0 {
		from := int64(1_700_000_000_000 + g.rng.Intn(1000))
		q.Time = &TimeRange{From: from, To: from + int64(g.rng.Intn(600))}
	}
	if g.rng.Intn(2) == 0 { // selection
		if g.rng.Intn(3) > 0 {
			q.Select = []string{"id"}
			for i, n := 0, g.rng.Intn(4); i < n; i++ {
				q.Select = append(q.Select, pick().Name)
			}
		}
		if g.rng.Intn(2) == 0 {
			for i, n := 0, g.rng.Intn(3); i < n; i++ {
				q.OrderBy = append(q.OrderBy, OrderSpec{Column: g.selected(q), Desc: g.rng.Intn(2) == 0})
			}
			q.OrderBy = append(q.OrderBy, OrderSpec{Column: "id", Desc: g.rng.Intn(2) == 0})
		}
	} else { // aggregation, grouped by up to three columns
		for i, n := 0, g.rng.Intn(4); i < n; i++ {
			q.GroupBy = append(q.GroupBy, pick().Name)
		}
		for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
			f := pick()
			spec := AggSpec{Kind: AggKind(g.rng.Intn(6)), Column: f.Name, As: fmt.Sprintf("a%d", i)}
			switch {
			case spec.Kind == AggCount && g.rng.Intn(2) == 0:
				spec.Column = ""
			case f.Type == metadata.TypeString && spec.Kind != AggCount:
				spec.Kind = AggDistinctCount // the numeric aggregates reject strings
			}
			q.Aggs = append(q.Aggs, spec)
		}
		if g.rng.Intn(2) == 0 {
			out := append(append([]string(nil), q.GroupBy...), q.Aggs[0].As)
			q.OrderBy = []OrderSpec{{Column: out[g.rng.Intn(len(out))], Desc: g.rng.Intn(2) == 0}}
		}
	}
	if g.rng.Intn(2) == 0 {
		q.Limit = 1 + g.rng.Intn(20)
		q.Offset = g.rng.Intn(6)
	}
	return q
}

func (g *diffGen) selected(q *Query) string {
	if len(q.Select) == 0 {
		fs := g.queryable()
		return fs[g.rng.Intn(len(fs))].Name
	}
	return q.Select[g.rng.Intn(len(q.Select))]
}

// TestScanDifferential: over random schemas, rows, upsert-invalid sets and
// queries, the kernel scan of the mutable store, the same scan of the store
// after seal() and the naive oracle finalize to the same bytes, with and
// without the bounded top-K path.
func TestScanDifferential(t *testing.T) {
	seeds := 80
	if testing.Short() {
		seeds = 20
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		g := newDiffGen(seed)
		m := newMutableSegment("m", g.schema, 0)
		for _, r := range g.rows {
			conformed, err := record.Conform(r, g.schema)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.add(conformed); err != nil {
				t.Fatal(err)
			}
		}
		// Index configurations: none, one inverted column, two, or a sorted
		// column beside an inverted one — so every FilterOp meets the index
		// path (posting lists, run bounds) with present, absent, extreme and
		// NULL-bearing operands. A sorted column makes the seal permute the
		// rows, which rules out the upsert-invalid set (as TableConfig does).
		fields := g.queryable()
		cfg := IndexConfig{}
		shape := g.rng.Intn(4)
		for i := 0; i < shape && i < 2; i++ {
			cfg.InvertedColumns = append(cfg.InvertedColumns, fields[g.rng.Intn(len(fields))].Name)
		}
		if shape == 3 {
			cfg.SortedColumn = g.sortable()
		}
		permuted := cfg.SortedColumn != ""
		var valid *Bitmap
		var validFn func(int) bool
		if !permuted && g.rng.Intn(2) == 0 {
			for doc := range g.rows {
				if g.rng.Intn(5) == 0 {
					m.invalid[doc] = true
				}
			}
			valid = m.validSnapshot()
			invalid := m.invalid
			validFn = func(i int) bool { return !invalid[i] }
		}
		seg, err := m.seal(cfg, -1)
		if err != nil {
			t.Fatal(err)
		}
		consuming := m.snapshot()
		queries := 30
		if m.n > BatchRows {
			queries = 8 // the oracle is slow; these seeds are about window edges
		}
		for qi := 0; qi < queries; qi++ {
			q := g.query()
			var tp *topKPlan
			if g.rng.Intn(2) == 0 { // else: TrimExact
				tp = planTopK(q, 1+g.rng.Intn(4))
			}
			// A unit answers aggregations exactly; the bound applies to the
			// merged partial (consumingScan.executePartial).
			unitTP := tp
			if len(q.Aggs) > 0 {
				unitTP = nil
			}
			finalize := func(p *Partial, err error) (*Result, error) {
				if err != nil {
					return nil, err
				}
				p.trimTopK(q, tp)
				return p.Finalize(q)
			}
			want, wantErr := finalize(oracleExecute(g.schema, g.rows, q, validFn))
			// An unordered selection's rows come in doc order, and with a LIMIT
			// they are whichever matches come first: where the seal permuted the
			// docs, the sealed side is held to the oracle's rows as a multiset —
			// all of them, or LIMIT-many out of them.
			var all *Partial
			if streamable(q) && wantErr == nil {
				unlimited := *q
				unlimited.Limit, unlimited.Offset = 0, 0
				if all, err = oracleExecute(g.schema, g.rows, &unlimited, validFn); err != nil {
					t.Fatal(err)
				}
			}
			anyOrder := permuted && streamable(q)
			mp, mErr := consuming.executePartial(q, valid, unitTP)
			sp, sErr := seg.executePartialTrim(q, valid, unitTP)
			if mErr == nil && sErr == nil && !(anyOrder && q.Limit > 0) &&
				(mp.stats.RowsScanned != sp.stats.RowsScanned || mp.stats.UpsertFiltered != sp.stats.UpsertFiltered) {
				t.Errorf("seed %d query %d %+v: consuming counted %d scanned / %d filtered, sealed %d / %d", seed, qi, q,
					mp.stats.RowsScanned, mp.stats.UpsertFiltered, sp.stats.RowsScanned, sp.stats.UpsertFiltered)
			}
			for name, run := range map[string]func() (*Result, error){
				"consuming": func() (*Result, error) { return finalize(mp, mErr) },
				"sealed":    func() (*Result, error) { return finalize(sp, sErr) },
			} {
				got, err := run()
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("seed %d query %d %+v (index %+v): %s error %v, oracle error %v", seed, qi, q, cfg, name, err, wantErr)
				}
				if err != nil {
					continue
				}
				same := reflect.DeepEqual(got.Rows, want.Rows)
				if name == "sealed" && anyOrder {
					same = len(got.Rows) == len(want.Rows) && subMultiset(got.Rows, all.rows)
				}
				if !reflect.DeepEqual(got.Columns, want.Columns) || !same {
					t.Fatalf("seed %d query %d %+v (trim %+v, index %+v):\n%s  %v %v\noracle %v %v", seed, qi, q, tp, cfg, name, got.Columns, got.Rows, want.Columns, want.Rows)
				}
			}
			if all == nil {
				continue
			}
			// Unordered selections also stream: every match, in doc order.
			for name, sc := range map[string]*scanSet{"consuming": consuming, "sealed": seg.scan()} {
				var rows [][]any
				_, _, err := sc.streamSelect(context.Background(), q, valid, &batchPool{}, func(rb *record.Batch) bool {
					for r := 0; r < rb.Len; r++ {
						rows = append(rows, rb.Row(r))
					}
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				same := reflect.DeepEqual(rows, all.rows)
				if name == "sealed" && permuted {
					same = len(rows) == len(all.rows) && subMultiset(rows, all.rows)
				}
				if !same {
					t.Fatalf("seed %d query %d %+v (index %+v): %s streamed %v, oracle %v", seed, qi, q, cfg, name, rows, all.rows)
				}
			}
		}
	}
}

// subMultiset reports whether every row of sub occurs in of, as often.
func subMultiset(sub, of [][]any) bool {
	key := func(row []any) string {
		var sb strings.Builder
		for _, v := range row {
			fmt.Fprintf(&sb, "%T=%v|", v, v)
		}
		return sb.String()
	}
	left := map[string]int{}
	for _, r := range of {
		left[key(r)]++
	}
	for _, r := range sub {
		if left[key(r)] == 0 {
			return false
		}
		left[key(r)]--
	}
	return true
}

// TestGroupTrimDifferential: a scan that trims its own groups — slots, before
// any is decoded — keeps a correct top groupK in every form of the grouper:
// one coded column, the composite of two or three (NULL codes included), and
// the hashed fallback for a raw column or a code space past maxCodeSpace.
// Orders are full of ties (counts over a few rows), which a trim may break
// either way, so the check is on what must hold regardless: exactly groupK
// groups survive, each one a group of the oracle's with its exact aggregates,
// and their ranks are the oracle's groupK best. The map-form trim of the
// oracle's own partial is held to the same.
func TestGroupTrimDifferential(t *testing.T) {
	forms := map[string]int{}
	for seed := int64(1); seed <= 30; seed++ {
		g := newDiffGen(seed)
		m := newMutableSegment("m", g.schema, 0)
		for _, r := range g.rows {
			conformed, err := record.Conform(r, g.schema)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.add(conformed); err != nil {
				t.Fatal(err)
			}
		}
		seg, err := m.seal(IndexConfig{}, -1)
		if err != nil {
			t.Fatal(err)
		}
		scans := map[string]*scanSet{"consuming": m.snapshot(), "sealed": seg.scan()}
		fields := g.queryable()
		trials := 8
		if m.n > BatchRows {
			trials = 4 // the checks sort thousands of groups through record.Compare
		}
		for trial := 0; trial < trials; trial++ {
			q := &Query{Table: "t", Aggs: []AggSpec{{Kind: AggCount, As: "n"}}}
			if trial%4 == 3 { // a wide code space: the unique id times two more columns
				q.GroupBy = []string{"id"}
			}
			for len(q.GroupBy) < []int{1, 2, 3, 3}[trial%4] {
				q.GroupBy = append(q.GroupBy, fields[g.rng.Intn(len(fields))].Name)
			}
			if f := fields[g.rng.Intn(len(fields))]; f.Type != metadata.TypeString {
				q.Aggs = append(q.Aggs, AggSpec{Kind: []AggKind{AggSum, AggMin, AggMax, AggAvg}[g.rng.Intn(4)], Column: f.Name, As: "m"})
			}
			lead := append(append([]string(nil), q.GroupBy...), "n", q.Aggs[len(q.Aggs)-1].As)
			q.OrderBy = []OrderSpec{{Column: lead[g.rng.Intn(len(lead))], Desc: g.rng.Intn(2) == 0}}
			q.Limit = 1 + g.rng.Intn(3)
			tp := planTopK(q, 1+g.rng.Intn(12))
			want, err := oracleExecute(g.schema, g.rows, q, nil)
			if err != nil {
				t.Fatal(err)
			}
			best := leadRanks(tp, want.groups)
			check := func(name string, got *Partial) {
				t.Helper()
				if msg := checkTrimmed(q, tp, want.groups, best, got); msg != "" {
					t.Fatalf("seed %d %s %+v (trim %+v): %s", seed, name, q, tp, msg)
				}
			}
			for name, sc := range scans {
				gcols := make([]*colView, len(q.GroupBy))
				for gi, c := range q.GroupBy {
					gcols[gi] = sc.col(c)
				}
				switch gr := newGrouper(gcols, 1, sc.n); {
				case gr.index != nil:
					forms[name+" hashed"]++
				case len(gcols) > 1:
					forms[name+" composite"]++
				default:
					forms[name+" single"]++
				}
				got, err := sc.executePartial(q, nil, tp)
				if err != nil {
					t.Fatal(err)
				}
				check(name, got)
			}
			oracle := &Partial{agg: true, groups: want.groups}
			oracle.trimTopK(q, tp)
			check("oracle map trim", oracle)
		}
	}
	for _, form := range []string{"sealed single", "sealed composite", "sealed hashed", "consuming single", "consuming composite", "consuming hashed"} {
		if forms[form] == 0 {
			t.Errorf("no trial exercised the %s grouper (%v)", form, forms)
		}
	}
}

// leadRanks lists the plan's leading ORDER BY term of every group, best
// first, by record.Compare.
func leadRanks(tp *topKPlan, groups map[string]*groupAgg) []any {
	if tp == nil {
		return make([]any, len(groups))
	}
	var out []any
	for _, g := range groups {
		if tp.valIdx >= 0 {
			out = append(out, g.values[tp.valIdx])
		} else {
			out = append(out, aggValue(g.aggs[tp.aggIdx], tp.aggKind))
		}
	}
	sort.Slice(out, func(a, b int) bool {
		cmp := record.Compare(out[a], out[b])
		return cmp != 0 && (cmp < 0) != tp.desc
	})
	return out
}

// checkTrimmed reports how got fails to be a correct trim of all — whose
// leadRanks are best — to the plan's groupK (see
// TestGroupTrimDifferential), or "".
func checkTrimmed(q *Query, tp *topKPlan, all map[string]*groupAgg, best []any, got *Partial) string {
	k := len(all)
	if tp != nil && tp.groupK < k {
		k = tp.groupK
	}
	if len(got.groups) != k || got.stats.GroupsTrimmed != int64(len(all)-k) {
		return fmt.Sprintf("%d groups kept and %d reported trimmed, of %d with a budget of %d", len(got.groups), got.stats.GroupsTrimmed, len(all), k)
	}
	row := func(g *groupAgg) []any {
		out := append([]any(nil), g.values...)
		for ai, spec := range q.Aggs {
			out = append(out, aggValue(g.aggs[ai], spec.Kind))
		}
		return out
	}
	for key, g := range got.groups {
		w, ok := all[key]
		if !ok {
			return fmt.Sprintf("kept group %q is not a group of the oracle's", key)
		}
		if !reflect.DeepEqual(row(g), row(w)) {
			return fmt.Sprintf("group %q is %v, oracle %v", key, row(g), row(w))
		}
	}
	kept := leadRanks(tp, got.groups)
	for i := range kept {
		if record.Compare(kept[i], best[i]) != 0 {
			return fmt.Sprintf("kept ranks %v, the oracle's best %d are %v", kept, k, best[:k])
		}
	}
	return ""
}

// TestSealMatchesRowBuilder: the segment seal() freezes out of a column
// store is deep-equal to the one the row-reading builder makes of the same
// rows — dictionaries, packed codes, presence and inverted bitmaps, time
// bounds, star-tree, and the row order a sorted column imposes.
func TestSealMatchesRowBuilder(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		g := newDiffGen(seed)
		fields := g.queryable()
		cfgs := []IndexConfig{
			{},
			{InvertedColumns: []string{fields[g.rng.Intn(len(fields))].Name, "id"}},
			{SortedColumn: g.sortable()},
		}
		for _, cfg := range cfgs {
			want, err := refBuildSegment("s", g.schema, g.rows, cfg, 3)
			if err != nil {
				t.Fatal(err)
			}
			got, err := BuildSegment("s", g.schema, g.rows, cfg, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d cfg %+v: sealed segment differs from the row builder's", seed, cfg)
			}
		}
	}
	rows := orderRows(500)
	cfg := IndexConfig{
		InvertedColumns: []string{"city"},
		SortedColumn:    "status",
		StarTree:        &StarTreeConfig{Dimensions: []string{"city", "status"}, Metrics: []string{"amount", "items"}, MaxLeafRecords: 10},
	}
	want, err := refBuildSegment("o", ordersSchema(), rows, cfg, -1)
	if err != nil {
		t.Fatal(err)
	}
	if got := buildTestSegment(t, rows, cfg); !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.Tree, want.Tree) ||
		got.MinTime != want.MinTime || got.MaxTime != want.MaxTime {
		t.Fatal("orders segment with inverted, sorted and star-tree indexes differs from the row builder's")
	}
}

// TestMutableSegmentPrefixSnapshot runs one writer appending to a store
// (under the lock that stands in for Deployment.mu) against readers that
// snapshot under the lock and scan outside it: a reader must see exactly
// rows [0, n) of its snapshot — never a row >= n, never a torn dictionary —
// and -race must stay silent.
func TestMutableSegmentPrefixSnapshot(t *testing.T) {
	schema := &metadata.Schema{Name: "p", Version: 1, Fields: []metadata.Field{
		{Name: "seq", Type: metadata.TypeLong},
		{Name: "tag", Type: metadata.TypeString},
		{Name: "opt", Type: metadata.TypeDouble, Nullable: true},
	}}
	const total = 20_000
	m := newMutableSegment("p", schema, 0)
	var mu sync.Mutex
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			r := record.Record{"seq": int64(i), "tag": fmt.Sprintf("t%d", i%997)}
			if i > 5000 && i%3 == 0 {
				r["opt"] = float64(i) // the presence vector materializes mid-run
			} else if i <= 5000 {
				r["opt"] = 1.0
			}
			mu.Lock()
			_, err := m.add(r)
			mu.Unlock()
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	q := &Query{Aggs: []AggSpec{{Kind: AggCount}, {Kind: AggMax, Column: "seq"}, {Kind: AggDistinctCount, Column: "tag"}, {Kind: AggCount, Column: "opt"}},
		Filters: []Filter{{Column: "tag", Op: OpNe, Value: "nope"}}}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				sc := m.snapshot()
				mu.Unlock()
				if sc.n == 0 {
					continue
				}
				p, err := sc.executePartial(q, nil, nil)
				if err != nil {
					t.Error(err)
					return
				}
				res, err := p.Finalize(q)
				if err != nil {
					t.Error(err)
					return
				}
				row := res.Rows[0]
				tags := int64(sc.n)
				if tags > 997 {
					tags = 997
				}
				if row[0] != int64(sc.n) || row[1] != float64(sc.n-1) || row[2] != tags {
					t.Errorf("snapshot of %d rows answered count=%v max(seq)=%v distinct(tag)=%v", sc.n, row[0], row[1], row[2])
					return
				}
			}
		}()
	}
	<-done
	wg.Wait()
}

// TestConsumingScanUnderIngestAndSeal is the deployment-level half: one
// writer ingests (sealing every 50 rows a partition, plus explicit seals) while
// readers run filtered group-bys over sealed, mid-seal and consuming rows.
// Every answer counts at least the rows committed before the query and at
// most the rows started before it returned.
func TestConsumingScanUnderIngestAndSeal(t *testing.T) {
	d, _ := newDeployment(t, 2, 1, false, BackupP2P, nil) // seals every 50 rows per partition
	b := NewBroker(d)
	const total = 6000
	rows := orderRows(total)
	var started, committed atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, r := range rows {
			started.Add(1)
			if err := d.Ingest(i%2, r); err != nil {
				t.Error(err)
				return
			}
			committed.Add(1)
			if i%701 == 700 {
				if err := d.Seal(i % 2); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	q := &Query{GroupBy: []string{"city"}, Aggs: []AggSpec{{Kind: AggCount}, {Kind: AggSum, Column: "amount"}},
		Filters: []Filter{{Column: "status", Op: OpIn, Values: []any{"placed", "cooking", "delivered"}}, {Column: "amount", Op: OpGe, Value: 0}}}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				before := committed.Load()
				resp, err := b.Execute(context.Background(), &QueryRequest{Query: q})
				after := started.Load()
				if err != nil {
					t.Error(err)
					return
				}
				var got int64
				for _, row := range resp.Rows {
					got += row[1].(int64)
				}
				if got < before || got > after {
					t.Errorf("answer counts %d rows; %d were committed before the query, %d started before it returned", got, before, after)
					return
				}
			}
		}()
	}
	<-done
	wg.Wait()
	resp, err := b.Execute(context.Background(), &QueryRequest{Query: &Query{Aggs: []AggSpec{{Kind: AggCount}}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Rows[0][0].(int64); got != total {
		t.Fatalf("final count %d, want %d", got, total)
	}
}
