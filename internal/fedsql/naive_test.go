package fedsql

// A reference evaluator for the differential tests: the parsed statement
// evaluated one row at a time over []record.Record tables — nested-loop
// join, linear-search grouping, map lookups by name. It shares the parser
// and record.Compare with the engine and nothing else, so a bug in the
// engine's binding, batching, hashing or pushdown planning cannot hide in
// both. It is slow on purpose and handles exactly the SQL the engine does.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/record"
	"repro/internal/sqlparse"
)

// naiveTable is one table's reference contents: schema column order and
// rows (a NULL is an absent key).
type naiveTable struct {
	cols []string
	rows []record.Record
}

// naiveDB maps "catalog.table" to its contents.
type naiveDB map[string]naiveTable

// naiveRel is an intermediate result: rows keyed by the names in cols, and
// what SELECT * expands to.
type naiveRel struct {
	cols, star []string
	rows       []record.Record
}

func naiveBare(name string) string { return name[strings.IndexByte(name, '.')+1:] }

// naiveFind resolves a column reference among cols: the exact name, else
// the first column (left side of a join first) with the same bare name.
func naiveFind(cols []string, name string) int {
	for i, c := range cols {
		if c == name {
			return i
		}
	}
	for i, c := range cols {
		if naiveBare(c) == naiveBare(name) {
			return i
		}
	}
	return -1
}

func (rel *naiveRel) lookup(row record.Record, name string) any {
	if i := naiveFind(rel.cols, name); i >= 0 {
		return row[rel.cols[i]]
	}
	return nil
}

// naiveEqual is SQL equality for join keys and group values: numbers by
// value — NaN being one value, as a GROUP BY has it — everything else by
// content, never one with the other.
func naiveEqual(a, b any) bool {
	fa, aNum := record.ToFloat64(a)
	fb, bNum := record.ToFloat64(b)
	if aNum || bNum {
		return aNum && bNum && (fa == fb || (fa != fa && fb != fb))
	}
	return fmt.Sprint(a) == fmt.Sprint(b)
}

func naiveSatisfies(v any, p sqlparse.Predicate) bool {
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
		for _, want := range p.Values {
			if record.Compare(v, want) == 0 {
				return true
			}
		}
	}
	return false
}

func naiveQualified(table, column string) string {
	if table == "" {
		return column
	}
	return table + "." + column
}

// from evaluates a FROM clause. A join is a nested loop over both sides'
// full rows; its columns are alias.column, left side first.
func (db naiveDB) from(ref *sqlparse.TableRef, defaultCat string) (*naiveRel, error) {
	switch {
	case ref.Join != nil:
		left, err := db.from(ref.Join.Left, defaultCat)
		if err != nil {
			return nil, err
		}
		right, err := db.from(ref.Join.Right, defaultCat)
		if err != nil {
			return nil, err
		}
		out := &naiveRel{}
		seen := map[string]bool{}
		rename := func(side *naiveRel, alias string) map[string]string {
			names := map[string]string{}
			for _, c := range side.cols {
				names[c] = naiveQualified(alias, c)
				out.cols = append(out.cols, names[c])
				if !seen[naiveBare(c)] {
					seen[naiveBare(c)] = true
					out.star = append(out.star, naiveBare(c))
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
				if lk == nil || rk == nil || !naiveEqual(lk, rk) {
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
		sub, err := db.eval(ref.Sub, defaultCat)
		if err != nil {
			return nil, err
		}
		if ref.Sub.Limit > 0 && len(sub.Rows) > ref.Sub.Limit {
			sub.Rows = sub.Rows[:ref.Sub.Limit]
		}
		return &naiveRel{cols: sub.Columns, star: sub.Columns, rows: sub.Records()}, nil
	default:
		cat := ref.Qualifier
		if cat == "" {
			cat = defaultCat
		}
		t, ok := db[cat+"."+ref.Name]
		if !ok {
			return nil, fmt.Errorf("naive: no table %s.%s", cat, ref.Name)
		}
		star := append([]string(nil), t.cols...)
		sort.Strings(star)
		return &naiveRel{cols: t.cols, star: star, rows: t.rows}, nil
	}
}

// eval evaluates one SELECT up to and including ORDER BY. LIMIT is left to
// the caller: which rows an unordered or tied LIMIT keeps is not defined,
// so checkAgainstNaive validates the engine's choice instead of guessing it.
func (db naiveDB) eval(stmt *sqlparse.SelectStmt, defaultCat string) (*Result, error) {
	rel, err := db.from(stmt.From, defaultCat)
	if err != nil {
		return nil, err
	}
	var kept []record.Record
rows:
	for _, row := range rel.rows {
		for _, p := range stmt.Where {
			if !naiveSatisfies(rel.lookup(row, naiveQualified(p.Table, p.Column)), p) {
				continue rows
			}
		}
		kept = append(kept, row)
	}
	rel = &naiveRel{cols: rel.cols, star: rel.star, rows: kept}
	if stmt.HasAggregates() {
		if rel, err = naiveGroup(rel, stmt); err != nil {
			return nil, err
		}
	}
	res := &Result{}
	var refs []string
	for _, it := range stmt.Items {
		switch {
		case it.Star:
			res.Columns = append(res.Columns, rel.star...)
			refs = append(refs, rel.star...)
		case it.Func != sqlparse.FuncNone:
			res.Columns = append(res.Columns, it.OutputName())
			refs = append(refs, it.OutputName())
		case it.Alias != "":
			res.Columns = append(res.Columns, it.Alias)
			refs = append(refs, naiveQualified(it.Table, it.Column))
		default:
			res.Columns = append(res.Columns, naiveQualified(it.Table, it.Column))
			refs = append(refs, naiveQualified(it.Table, it.Column))
		}
	}
	for _, row := range rel.rows {
		out := make([]any, len(refs))
		for i, ref := range refs {
			out[i] = rel.lookup(row, ref)
		}
		res.Rows = append(res.Rows, out)
	}
	keys, err := naiveOrderKeys(res.Columns, stmt)
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

// naiveOrderKeys maps each ORDER BY term to a result column.
func naiveOrderKeys(cols []string, stmt *sqlparse.SelectStmt) ([]int, error) {
	var keys []int
	for _, o := range stmt.OrderBy {
		k := naiveFind(cols, o.Column)
		if k < 0 {
			return nil, fmt.Errorf("naive: ORDER BY %s not in projection", o.Column)
		}
		keys = append(keys, k)
	}
	return keys, nil
}

// naiveGroup folds rows into groups found by linear search and returns one
// row per group: the GROUP BY columns, then each aggregate under its
// output name.
func naiveGroup(rel *naiveRel, stmt *sqlparse.SelectStmt) (*naiveRel, error) {
	type group struct {
		values []any
		rows   []record.Record
	}
	var groups []*group
	for _, row := range rel.rows {
		values := make([]any, len(stmt.GroupBy))
		for i, g := range stmt.GroupBy {
			values[i] = rel.lookup(row, g)
		}
		var hit *group
	search:
		for _, g := range groups {
			for i, v := range values {
				if (v == nil) != (g.values[i] == nil) || (v != nil && !naiveEqual(v, g.values[i])) {
					continue search
				}
			}
			hit = g
			break
		}
		if hit == nil {
			hit = &group{values: values}
			groups = append(groups, hit)
		}
		hit.rows = append(hit.rows, row)
	}
	if len(groups) == 0 && len(stmt.GroupBy) == 0 {
		groups = []*group{{}}
	}
	out := &naiveRel{cols: append([]string(nil), stmt.GroupBy...)}
	for _, it := range stmt.Items {
		if it.Func != sqlparse.FuncNone {
			out.cols = append(out.cols, it.OutputName())
		}
	}
	out.star = out.cols
	for _, g := range groups {
		row := record.Record{}
		for i, name := range stmt.GroupBy {
			if g.values[i] != nil {
				row[name] = g.values[i]
			}
		}
		for _, it := range stmt.Items {
			if it.Func == sqlparse.FuncNone {
				continue
			}
			var count int64
			var sum, lo, hi float64
			for _, r := range g.rows {
				if it.Column == "" {
					count++
					continue
				}
				v := rel.lookup(r, naiveQualified(it.Table, it.Column))
				if v == nil {
					continue
				}
				f, numeric := record.ToFloat64(v)
				if !numeric && it.Func != sqlparse.FuncCount {
					return nil, fmt.Errorf("naive: %s over %T", it.OutputName(), v)
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
			switch {
			case it.Func == sqlparse.FuncCount:
				row[it.OutputName()] = count
			case it.Func == sqlparse.FuncSum:
				row[it.OutputName()] = sum
			case count == 0: // MIN/MAX/AVG of nothing is NULL
			case it.Func == sqlparse.FuncMin:
				row[it.OutputName()] = lo
			case it.Func == sqlparse.FuncMax:
				row[it.OutputName()] = hi
			case it.Func == sqlparse.FuncAvg:
				row[it.OutputName()] = sum / float64(count)
			}
		}
		out.rows = append(out.rows, row)
	}
	return out, nil
}

// checkAgainstNaive fails unless got is a correct answer to sql over db:
// the same columns, every row one the reference produced (as a multiset),
// exactly min(LIMIT, all) of them, and — under ORDER BY — carrying the same
// sequence of sort keys as the reference's head. For a query without LIMIT
// that is row-multiset equality; with one, any tie-break is accepted.
func checkAgainstNaive(t *testing.T, db naiveDB, defaultCat, sql string, got *Result) {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	want, err := db.eval(stmt, defaultCat)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	if fmt.Sprintf("%q", got.Columns) != fmt.Sprintf("%q", want.Columns) {
		t.Fatalf("%q: columns %q, reference %q", sql, got.Columns, want.Columns)
	}
	n := len(want.Rows)
	if stmt.Limit > 0 && stmt.Limit < n {
		n = stmt.Limit
	}
	if len(got.Rows) != n {
		t.Fatalf("%q: %d rows, reference says %d (of %d before LIMIT)", sql, len(got.Rows), n, len(want.Rows))
	}
	pool := map[string]int{}
	for _, row := range want.Rows {
		pool[fmt.Sprintf("%#v", row)]++
	}
	for i, row := range got.Rows {
		k := fmt.Sprintf("%#v", row)
		if pool[k] == 0 {
			t.Fatalf("%q: row %d = %s is not in the reference result (or too often)", sql, i, k)
		}
		pool[k]--
	}
	keys, err := naiveOrderKeys(want.Columns, stmt)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range got.Rows {
		for _, k := range keys {
			if record.Compare(row[k], want.Rows[i][k]) != 0 {
				t.Fatalf("%q: row %d sorts by %v, reference by %v", sql, i, row[k], want.Rows[i][k])
			}
		}
	}
}
