// Package reftest is the reference the query-path differential tests hold
// the program to: a row-at-a-time evaluator over a table model, one seeded
// generator of schemas, rows and queries, and one schedule driver that
// applies data and maintenance operations to the systems under test while
// copying every data operation into the reference table.
//
// The evaluator shares the parser (sqlparse) and the value ordering
// (record.Compare) with the program and nothing else — nested-loop joins,
// grouping by linear search among the groups whose values print alike, map
// lookups by name — so a bug in the program's kernels, dictionaries, group
// keys, merges or pushdown cannot hide in both. It is slow on purpose; its
// deployment adapter is the subpackage olapsys. The package imports no
// program package but record, metadata and sqlparse, so tests inside
// internal/olap can use it; it is test support and no program links it.
package reftest

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"

	"repro/internal/metadata"
	"repro/internal/record"
	"repro/internal/sqlparse"
)

// funcDistinctCount extends the dialect's aggregates with the OLAP layer's
// DISTINCTCOUNT(col): the number of distinct non-NULL values.
const funcDistinctCount = sqlparse.FuncAvg + 1

// Query is one statement the reference evaluates: a parsed SELECT, plus what
// the OLAP layer's query carries and the SQL dialect does not.
type Query struct {
	*sqlparse.SelectStmt
	// Offset skips that many rows after ORDER BY, before LIMIT.
	Offset int
}

// Parse parses one SELECT statement.
func Parse(sql string) (*Query, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return &Query{SelectStmt: stmt}, nil
}

// Table is one table's reference contents: its columns, in the order
// SELECT * lists them, and its rows (a NULL is an absent key). With Key set,
// Put replaces the row holding the same key — the upsert table model.
type Table struct {
	Cols []string
	Rows []record.Record
	Key  string
	at   map[string]int // Key value → index of its row
}

// NewTable returns an empty table of the schema's columns in schema order —
// blobs left out, as the OLAP layer stores and returns none — keyed by the
// primary key when upsert is set.
func NewTable(schema *metadata.Schema, upsert bool) *Table {
	t := &Table{}
	for _, f := range schema.Fields {
		if f.Type != metadata.TypeBytes {
			t.Cols = append(t.Cols, f.Name)
		}
	}
	if upsert {
		t.Key = schema.PrimaryKey
	}
	return t
}

// Put adds a row or, on a keyed table, replaces the row with the same key.
func (t *Table) Put(r record.Record) {
	if t.Key != "" {
		k := r.String(t.Key)
		if i, ok := t.at[k]; ok {
			t.Rows[i] = r
			return
		}
		if t.at == nil {
			t.at = map[string]int{}
		}
		t.at[k] = len(t.Rows)
	}
	t.Rows = append(t.Rows, r)
}

// DB maps a table name to its contents: "catalog.table" for a qualified
// FROM, the bare name otherwise.
type DB map[string]*Table

// Result is the reference's answer before LIMIT and OFFSET: which rows they
// keep under ties or without ORDER BY is not defined, so Check validates the
// system's choice instead of guessing it.
type Result struct {
	Columns []string
	Rows    [][]any
}

// Check evaluates q and reports how the answer cols, rows fails to be one
// the reference accepts (see Result.Check), or nil.
func (db DB) Check(q *Query, cols []string, rows [][]any) error {
	want, err := db.Eval(q)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	return want.Check(q, cols, rows)
}

// Check reports how the answer cols, rows to q fails to be one the reference
// accepts, or nil. It must have the reference's columns; its rows must be
// rows the reference produced, as a multiset; there must be as many as
// OFFSET and LIMIT leave; and under ORDER BY the i-th must carry the sort
// keys of the reference's (OFFSET+i)-th. Without LIMIT and OFFSET that is
// multiset equality; with them any tie-break is accepted.
func (want *Result) Check(q *Query, cols []string, rows [][]any) error {
	if !slices.Equal(cols, want.Columns) {
		return fmt.Errorf("columns %q, reference %q", cols, want.Columns)
	}
	n := max(len(want.Rows)-q.Offset, 0)
	if q.Limit > 0 {
		n = min(n, q.Limit)
	}
	if len(rows) != n {
		return fmt.Errorf("%d rows, reference says %d (%d before OFFSET %d, LIMIT %d)", len(rows), n, len(want.Rows), q.Offset, q.Limit)
	}
	pool := map[string]int{}
	for _, row := range want.Rows {
		pool[printRow(row)]++
	}
	for i, row := range rows {
		k := printRow(row)
		if pool[k] == 0 {
			return fmt.Errorf("row %d = %s is not in the reference result (or is there too often)", i, k)
		}
		pool[k]--
	}
	keys, err := orderKeys(want.Columns, q.SelectStmt)
	if err != nil {
		return err
	}
	for i, row := range rows {
		for _, k := range keys {
			if ref := want.Rows[q.Offset+i][k]; record.Compare(row[k], ref) != 0 {
				return fmt.Errorf("row %d sorts by %v, reference by %v", i, row[k], ref)
			}
		}
	}
	return nil
}

// printRow is a row as Check compares it: %#v, with -0 as 0. The two are one
// value to record.Compare, a sealed dictionary holds one entry for both, and
// which of them a group or a MIN reports depends on arrival order.
func printRow(row []any) string {
	negZero := func(v any) bool { f, ok := v.(float64); return ok && f == 0 && math.Signbit(f) }
	if slices.ContainsFunc(row, negZero) {
		row = slices.Clone(row)
		for i, v := range row {
			if negZero(v) {
				row[i] = 0.0
			}
		}
	}
	return fmt.Sprintf("%#v", row)
}

// CheckTypes reports an answer cell whose Go type no cell of its column has
// in the reference result, or nil: Check compares values as they print,
// which an int64 and a float64 of one number share.
func (want *Result) CheckTypes(rows [][]any) error {
	types := make([]map[reflect.Type]bool, len(want.Columns))
	for c := range types {
		types[c] = map[reflect.Type]bool{}
		for _, row := range want.Rows {
			if row[c] != nil {
				types[c][reflect.TypeOf(row[c])] = true
			}
		}
	}
	for i, row := range rows {
		for c, v := range row {
			if v != nil && !types[c][reflect.TypeOf(v)] {
				return fmt.Errorf("row %d column %s = %#v is a %T; the reference's are %v", i, want.Columns[c], v, v, types[c])
			}
		}
	}
	return nil
}

// Eval evaluates q up to and including ORDER BY; LIMIT and OFFSET are
// Check's.
func (db DB) Eval(q *Query) (*Result, error) {
	return db.eval(q.SelectStmt)
}

// rel is an intermediate result: rows keyed by the names in cols, and what
// SELECT * expands to.
type rel struct {
	cols, star []string
	rows       []record.Record
}

func bare(name string) string { return name[strings.IndexByte(name, '.')+1:] }

func qualified(table, column string) string {
	if table == "" {
		return column
	}
	return table + "." + column
}

// find resolves a column reference among cols: the exact name, else the
// first column (left side of a join first) with the same bare name.
func find(cols []string, name string) int {
	if i := slices.Index(cols, name); i >= 0 {
		return i
	}
	return slices.IndexFunc(cols, func(c string) bool { return bare(c) == bare(name) })
}

func (r *rel) lookup(row record.Record, name string) any {
	if i := find(r.cols, name); i >= 0 {
		return row[r.cols[i]]
	}
	return nil
}

// equal is SQL equality for join keys, group values and distinct values:
// numbers by value — NaN being one value, as a GROUP BY has it — everything
// else by content, never one with the other.
func equal(a, b any) bool {
	if sa, ok := a.(string); ok {
		if sb, ok := b.(string); ok {
			return sa == sb
		}
	}
	fa, aNum := record.ToFloat64(a)
	fb, bNum := record.ToFloat64(b)
	if aNum || bNum {
		return aNum && bNum && (fa == fb || (fa != fa && fb != fb))
	}
	return fmt.Sprint(a) == fmt.Sprint(b)
}

// satisfies evaluates one predicate in record.Compare's order. NULL satisfies
// none.
func satisfies(v any, p sqlparse.Predicate) bool {
	if v == nil {
		return false
	}
	cmp := record.Compare(v, p.Value)
	switch p.Op {
	case sqlparse.CmpEq:
		return cmp == 0
	case sqlparse.CmpNe:
		return cmp != 0
	case sqlparse.CmpLt:
		return cmp < 0
	case sqlparse.CmpLe:
		return cmp <= 0
	case sqlparse.CmpGt:
		return cmp > 0
	case sqlparse.CmpGe:
		return cmp >= 0
	case sqlparse.CmpBetween:
		return cmp >= 0 && record.Compare(v, p.Value2) <= 0
	case sqlparse.CmpIn:
		return slices.ContainsFunc(p.Values, func(w any) bool { return record.Compare(v, w) == 0 })
	}
	return false
}

// outputName is an item's result column: the dialect's name, and
// distinctcount_col for funcDistinctCount as the OLAP layer names it.
func outputName(it sqlparse.SelectItem) string {
	if it.Func == funcDistinctCount && it.Alias == "" {
		return "distinctcount_" + it.Column
	}
	return it.OutputName()
}

// from evaluates a FROM clause. A join is a nested loop over both sides'
// full rows; its columns are alias.column, left side first.
func (db DB) from(ref *sqlparse.TableRef) (*rel, error) {
	switch {
	case ref == nil:
		return nil, fmt.Errorf("reftest: no FROM")
	case ref.Join != nil:
		left, err := db.from(ref.Join.Left)
		if err != nil {
			return nil, err
		}
		right, err := db.from(ref.Join.Right)
		if err != nil {
			return nil, err
		}
		out := &rel{}
		rename := func(side *rel, alias string) map[string]string {
			names := map[string]string{}
			for _, c := range side.cols {
				names[c] = qualified(alias, c)
				out.cols = append(out.cols, names[c])
				if !slices.Contains(out.star, bare(c)) {
					out.star = append(out.star, bare(c))
				}
			}
			return names
		}
		lnames := rename(left, ref.Join.Left.RefName())
		rnames := rename(right, ref.Join.Right.RefName())
		sort.Strings(out.star)
		for _, l := range left.rows {
			lk := left.lookup(l, ref.Join.LeftCol)
			for _, r := range right.rows {
				rk := right.lookup(r, ref.Join.RightCol)
				if lk == nil || rk == nil || !equal(lk, rk) {
					continue
				}
				row := record.Record{}
				for c, v := range l {
					row[lnames[c]] = v
				}
				for c, v := range r {
					row[rnames[c]] = v
				}
				out.rows = append(out.rows, row)
			}
		}
		return out, nil
	case ref.Sub != nil:
		sub, err := db.eval(ref.Sub)
		if err != nil {
			return nil, err
		}
		if ref.Sub.Limit > 0 && len(sub.Rows) > ref.Sub.Limit {
			sub.Rows = sub.Rows[:ref.Sub.Limit]
		}
		rows := make([]record.Record, len(sub.Rows))
		for i, row := range sub.Rows {
			rows[i] = record.Record{}
			for ci, v := range row {
				if v != nil {
					rows[i][sub.Columns[ci]] = v
				}
			}
		}
		return &rel{cols: sub.Columns, star: sub.Columns, rows: rows}, nil
	default:
		name := qualified(ref.Qualifier, ref.Name)
		t, ok := db[name]
		if !ok {
			return nil, fmt.Errorf("reftest: no table %s", name)
		}
		return &rel{cols: t.Cols, star: t.Cols, rows: t.Rows}, nil
	}
}

// eval evaluates one SELECT up to and including ORDER BY.
func (db DB) eval(stmt *sqlparse.SelectStmt) (*Result, error) {
	in, err := db.from(stmt.From)
	if err != nil {
		return nil, err
	}
	r := &rel{cols: in.cols, star: in.star}
rows:
	for _, row := range in.rows {
		for _, p := range stmt.Where {
			if !satisfies(in.lookup(row, qualified(p.Table, p.Column)), p) {
				continue rows
			}
		}
		r.rows = append(r.rows, row)
	}
	if stmt.HasAggregates() {
		if r, err = group(r, stmt); err != nil {
			return nil, err
		}
	}
	res := &Result{}
	var refs []string
	for _, it := range stmt.Items {
		switch {
		case it.Star:
			res.Columns = append(res.Columns, r.star...)
			refs = append(refs, r.star...)
		case it.Func != sqlparse.FuncNone:
			res.Columns = append(res.Columns, outputName(it))
			refs = append(refs, outputName(it))
		case it.Alias != "":
			res.Columns = append(res.Columns, it.Alias)
			refs = append(refs, qualified(it.Table, it.Column))
		default:
			res.Columns = append(res.Columns, qualified(it.Table, it.Column))
			refs = append(refs, qualified(it.Table, it.Column))
		}
	}
	for _, row := range r.rows {
		out := make([]any, len(refs))
		for i, ref := range refs {
			out[i] = r.lookup(row, ref)
		}
		res.Rows = append(res.Rows, out)
	}
	keys, err := orderKeys(res.Columns, stmt)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(res.Rows, func(a, b int) bool {
		for i, k := range keys {
			if cmp := record.Compare(res.Rows[a][k], res.Rows[b][k]); cmp != 0 {
				return (cmp < 0) != stmt.OrderBy[i].Desc
			}
		}
		return false
	})
	return res, nil
}

// orderKeys maps each ORDER BY term to a result column.
func orderKeys(cols []string, stmt *sqlparse.SelectStmt) ([]int, error) {
	var keys []int
	for _, o := range stmt.OrderBy {
		k := find(cols, o.Column)
		if k < 0 {
			return nil, fmt.Errorf("reftest: ORDER BY %s not in projection", o.Column)
		}
		keys = append(keys, k)
	}
	return keys, nil
}

// set numbers distinct value tuples — NULL equal to NULL only, values by
// equal — found by linear search among the tuples in the same bucket.
type set struct {
	width  int
	n      int
	tuples []any            // tuple i is tuples[i*width:][:width]
	in     map[string][]int // bucket → the tuples in it
}

// bucket is where a tuple's search runs: its values printed, numbers as
// float64 and -0 as 0, so tuples equal calls equal print alike. It only
// narrows the search; equal decides.
func bucket(values []any) string {
	var b strings.Builder
	for _, v := range values {
		if f, ok := record.ToFloat64(v); ok {
			if f == 0 {
				f = 0
			}
			v = f
		}
		fmt.Fprintf(&b, "%v|", v)
	}
	return b.String()
}

// index returns the number of values' tuple, adding it if it is new.
func (s *set) index(values []any) int {
	b := bucket(values)
search:
	for _, i := range s.in[b] {
		for j, v := range values {
			if w := s.tuples[i*s.width+j]; (v == nil) != (w == nil) || (v != nil && !equal(v, w)) {
				continue search
			}
		}
		return i
	}
	if s.in == nil {
		s.in = map[string][]int{}
	}
	s.in[b] = append(s.in[b], s.n)
	s.tuples = append(s.tuples, values...)
	s.n++
	return s.n - 1
}

// group folds rows into groups found by set and returns one row per group:
// the GROUP BY columns, then each aggregate under its output name.
func group(in *rel, stmt *sqlparse.SelectStmt) (*rel, error) {
	// Group i's values are groups' tuple i, its rows members[i].
	width := len(stmt.GroupBy)
	groups := &set{width: width}
	var members [][]record.Record
	values := make([]any, width)
	for _, row := range in.rows {
		for i, g := range stmt.GroupBy {
			values[i] = in.lookup(row, g)
		}
		i := groups.index(values)
		if i == len(members) {
			members = append(members, nil)
		}
		members[i] = append(members[i], row)
	}
	if len(members) == 0 && width == 0 {
		members = [][]record.Record{nil}
	}
	keys := groups.tuples
	out := &rel{cols: slices.Clone(stmt.GroupBy)}
	for _, it := range stmt.Items {
		if it.Func != sqlparse.FuncNone {
			out.cols = append(out.cols, outputName(it))
		}
	}
	out.star = out.cols
	for gi, rows := range members {
		row := record.Record{}
		for i, name := range stmt.GroupBy {
			if v := keys[gi*width+i]; v != nil {
				row[name] = v
			}
		}
		for _, it := range stmt.Items {
			if it.Func == sqlparse.FuncNone {
				continue
			}
			var count int64
			var sum, lo, hi float64
			distinct := &set{width: 1}
			for _, r := range rows {
				if it.Column == "" {
					count++
					continue
				}
				v := in.lookup(r, qualified(it.Table, it.Column))
				if v == nil {
					continue
				}
				if it.Func == funcDistinctCount {
					distinct.index([]any{v})
					continue
				}
				f, numeric := record.ToFloat64(v)
				if !numeric && it.Func != sqlparse.FuncCount {
					return nil, fmt.Errorf("reftest: %s over %T", outputName(it), v)
				}
				if count == 0 || f < lo {
					lo = f
				}
				if count == 0 || f > hi {
					hi = f
				}
				count++
				sum += f
			}
			name := outputName(it)
			switch {
			case it.Func == funcDistinctCount:
				row[name] = int64(distinct.n)
			case it.Func == sqlparse.FuncCount:
				row[name] = count
			case it.Func == sqlparse.FuncSum:
				row[name] = sum
			case count == 0: // MIN/MAX/AVG of nothing is NULL
			case it.Func == sqlparse.FuncMin:
				row[name] = lo
			case it.Func == sqlparse.FuncMax:
				row[name] = hi
			case it.Func == sqlparse.FuncAvg:
				row[name] = sum / float64(count)
			}
		}
		out.rows = append(out.rows, row)
	}
	return out, nil
}

// String renders q as SQL, for failure messages.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, it := range q.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		col := qualified(it.Table, it.Column)
		switch {
		case it.Star:
			b.WriteString("*")
		case it.Func == funcDistinctCount:
			fmt.Fprintf(&b, "DISTINCTCOUNT(%s)", col)
		case it.Func != sqlparse.FuncNone && col == "":
			fmt.Fprintf(&b, "%s(*)", it.Func)
		case it.Func != sqlparse.FuncNone:
			fmt.Fprintf(&b, "%s(%s)", it.Func, col)
		default:
			b.WriteString(col)
		}
		if it.Alias != "" {
			fmt.Fprintf(&b, " AS %s", it.Alias)
		}
	}
	if q.From != nil && q.From.Join == nil && q.From.Sub == nil {
		fmt.Fprintf(&b, " FROM %s", qualified(q.From.Qualifier, q.From.Name))
	}
	for i, p := range q.Where {
		b.WriteString([]string{" WHERE ", " AND "}[min(i, 1)])
		col := qualified(p.Table, p.Column)
		switch p.Op {
		case sqlparse.CmpIn:
			fmt.Fprintf(&b, "%s IN %#v", col, p.Values)
		case sqlparse.CmpBetween:
			fmt.Fprintf(&b, "%s BETWEEN %#v AND %#v", col, p.Value, p.Value2)
		default:
			fmt.Fprintf(&b, "%s %s %#v", col, []string{"=", "!=", "<", "<=", ">", ">="}[p.Op], p.Value)
		}
	}
	if len(q.GroupBy) > 0 {
		fmt.Fprintf(&b, " GROUP BY %s", strings.Join(q.GroupBy, ", "))
	}
	for i, o := range q.OrderBy {
		b.WriteString([]string{" ORDER BY ", ", "}[min(i, 1)])
		b.WriteString(o.Column)
		if o.Desc {
			b.WriteString(" DESC")
		}
	}
	if q.Limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	if q.Offset > 0 {
		fmt.Fprintf(&b, " OFFSET %d", q.Offset)
	}
	return b.String()
}
