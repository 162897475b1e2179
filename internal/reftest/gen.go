package reftest

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/metadata"
	"repro/internal/record"
	"repro/internal/sqlparse"
)

// Gen draws a table's schema from a seed, then its rows and queries over it.
// Every draw comes from Rng, so one seed replays a whole harness: schema,
// rows, queries and the driver's schedule.
type Gen struct {
	Rng    *rand.Rand
	Schema *metadata.Schema
}

var genStrings = []string{"", "a", "ab", "b", "city_03", "5", "12", "zeta"}

const tsBase = 1_700_000_000_000

// NewGen draws table "t": a string primary key "id", unique per row key and
// never NULL — the tiebreak that makes an ORDER BY total — then two to six
// columns of random types, each nullable or not, sometimes a blob, and
// sometimes a time column "ts".
func NewGen(seed int64) *Gen {
	g := &Gen{Rng: rand.New(rand.NewSource(seed))}
	fields := []metadata.Field{{Name: "id", Type: metadata.TypeString}}
	types := []metadata.FieldType{metadata.TypeString, metadata.TypeLong, metadata.TypeDouble,
		metadata.TypeBool, metadata.TypeTimestamp, metadata.TypeString, metadata.TypeLong}
	for i, n := 0, 2+g.Rng.Intn(5); i < n; i++ {
		fields = append(fields, metadata.Field{
			Name:     fmt.Sprintf("c%d", i),
			Type:     types[g.Rng.Intn(len(types))],
			Nullable: g.Rng.Intn(2) == 0,
		})
	}
	if g.Rng.Intn(3) == 0 {
		fields = append(fields, metadata.Field{Name: "blob", Type: metadata.TypeBytes, Nullable: true})
	}
	g.Schema = &metadata.Schema{Name: "t", Version: 1, Fields: fields, PrimaryKey: "id"}
	if g.Rng.Intn(2) == 0 {
		g.Schema.Fields = append(g.Schema.Fields, metadata.Field{Name: "ts", Type: metadata.TypeTimestamp})
		g.Schema.TimeField = "ts"
	}
	return g
}

// Row draws a row whose primary key is the key k.
func (g *Gen) Row(k int) record.Record {
	r := record.Record{"id": fmt.Sprintf("r%05d", k)}
	for _, f := range g.Schema.Fields[1:] {
		if f.Nullable && g.Rng.Intn(4) == 0 {
			continue
		}
		r[f.Name] = g.value(f.Type)
	}
	return r
}

// Rows draws the rows of keys 0 to n-1.
func (g *Gen) Rows(n int) []record.Record {
	rows := make([]record.Record, n)
	for k := range rows {
		rows[k] = g.Row(k)
	}
	return rows
}

// value draws a column value. Doubles are multiples of 0.25, one in 62 of
// them -0, and every number stays far below 2^53, so float sums are exact in
// any order.
func (g *Gen) value(t metadata.FieldType) any {
	switch t {
	case metadata.TypeString:
		return genStrings[g.Rng.Intn(len(genStrings))]
	case metadata.TypeLong:
		return int64(g.Rng.Intn(26) - 5)
	case metadata.TypeDouble:
		if n := g.Rng.Intn(62); n < 61 {
			return float64(n-12) / 4
		}
		return math.Copysign(0, -1)
	case metadata.TypeBool:
		return g.Rng.Intn(2) == 0
	case metadata.TypeTimestamp:
		return int64(tsBase + g.Rng.Intn(1000))
	default:
		return []byte{byte(g.Rng.Intn(256))}
	}
}

// literal draws a filter literal for a column, often of another Go type than
// the column stores, sometimes absent from it, sometimes outside its domain
// altogether.
func (g *Gen) literal(t metadata.FieldType) any {
	switch t {
	case metadata.TypeString:
		switch g.Rng.Intn(4) {
		case 0:
			return g.Rng.Intn(14) // numeric literal on a string column: "5", "12" exist
		case 1:
			return []string{"aa", "zzzz", "!"}[g.Rng.Intn(3)] // absent / beyond either end
		default:
			return g.value(t)
		}
	case metadata.TypeBool:
		if g.Rng.Intn(2) == 0 {
			return g.Rng.Intn(2) == 0
		}
		return g.Rng.Intn(3) - 1 // -1, 0, 1 against a 0/1 column
	case metadata.TypeTimestamp:
		return []any{int64(tsBase + g.Rng.Intn(1200) - 100), float64(tsBase + 500), 0}[g.Rng.Intn(3)]
	default:
		switch g.Rng.Intn(5) {
		case 0:
			return g.Rng.Intn(30) - 8 // int literal, double or long column
		case 1:
			return float64(g.Rng.Intn(120)-30) / 8 // between the stored values
		case 2:
			return []any{int64(-1000), 1e9, -0.125}[g.Rng.Intn(3)] // extreme bounds
		case 3:
			return int64(g.Rng.Intn(26) - 5)
		default:
			return float64(g.Rng.Intn(61)-12) / 4
		}
	}
}

// Queryable lists the schema's columns a query may name: all but blobs.
func (g *Gen) Queryable() []metadata.Field {
	var fs []metadata.Field
	for _, f := range g.Schema.Fields {
		if f.Type != metadata.TypeBytes {
			fs = append(fs, f)
		}
	}
	return fs
}

// Query draws a selection or an aggregation.
func (g *Gen) Query() *Query { return g.query(g.Rng.Intn(2) == 0) }

// Aggregation draws an aggregation: up to three GROUP BY columns (listed
// first), one to three aggregates of any kind, sometimes ORDER BY one output
// column, and up to three filters, a time window (BETWEEN on the time
// column), LIMIT and OFFSET.
func (g *Gen) Aggregation() *Query { return g.query(true) }

func (g *Gen) query(agg bool) *Query {
	fields := g.Queryable()
	pick := func() string { return fields[g.Rng.Intn(len(fields))].Name }
	q := &Query{SelectStmt: &sqlparse.SelectStmt{From: &sqlparse.TableRef{Name: g.Schema.Name}}}
	for i, n := 0, g.Rng.Intn(4); i < n; i++ {
		f := fields[g.Rng.Intn(len(fields))]
		p := sqlparse.Predicate{Column: f.Name, Op: sqlparse.CompareOp(g.Rng.Intn(8)), Value: g.literal(f.Type)}
		switch p.Op {
		case sqlparse.CmpBetween:
			p.Value2 = g.literal(f.Type)
		case sqlparse.CmpIn:
			for j, m := 0, 1+g.Rng.Intn(3); j < m; j++ {
				p.Values = append(p.Values, g.literal(f.Type))
			}
		}
		q.Where = append(q.Where, p)
	}
	if g.Schema.TimeField != "" && g.Rng.Intn(3) == 0 {
		from := int64(tsBase + g.Rng.Intn(1000))
		q.Where = append(q.Where, sqlparse.Predicate{Column: g.Schema.TimeField, Op: sqlparse.CmpBetween, Value: from, Value2: from + int64(g.Rng.Intn(600))})
	}
	column := func(name string) sqlparse.SelectItem { return sqlparse.SelectItem{Column: name} }
	if !agg {
		var selected []string // SELECT * when empty
		if g.Rng.Intn(3) > 0 {
			selected = append(selected, "id")
			for i, n := 0, g.Rng.Intn(4); i < n; i++ {
				selected = append(selected, pick())
			}
			for _, c := range selected {
				q.Items = append(q.Items, column(c))
			}
		} else {
			q.Items = []sqlparse.SelectItem{{Star: true}}
			for _, f := range fields {
				selected = append(selected, f.Name)
			}
		}
		if g.Rng.Intn(2) == 0 {
			for i, n := 0, g.Rng.Intn(3); i < n; i++ {
				q.OrderBy = append(q.OrderBy, sqlparse.OrderItem{Column: selected[g.Rng.Intn(len(selected))], Desc: g.Rng.Intn(2) == 0})
			}
			q.OrderBy = append(q.OrderBy, sqlparse.OrderItem{Column: "id", Desc: g.Rng.Intn(2) == 0})
		}
	} else {
		for i, n := 0, g.Rng.Intn(4); i < n; i++ {
			q.GroupBy = append(q.GroupBy, pick())
			q.Items = append(q.Items, column(q.GroupBy[i]))
		}
		out := append([]string(nil), q.GroupBy...)
		for i, n := 0, 1+g.Rng.Intn(3); i < n; i++ {
			f := fields[g.Rng.Intn(len(fields))]
			it := sqlparse.SelectItem{Func: sqlparse.FuncCount + sqlparse.FuncKind(g.Rng.Intn(6)), Column: f.Name}
			switch {
			case it.Func == sqlparse.FuncCount && g.Rng.Intn(2) == 0:
				it.Column = ""
			case f.Type == metadata.TypeString && it.Func != sqlparse.FuncCount:
				it.Func = funcDistinctCount // the numeric aggregates reject strings
			}
			// Only the first may keep its default name, so no two collide.
			if i > 0 || g.Rng.Intn(2) == 0 {
				it.Alias = fmt.Sprintf("a%d", i)
			}
			q.Items = append(q.Items, it)
			if i == 0 {
				out = append(out, outputName(it))
			}
		}
		if g.Rng.Intn(2) == 0 {
			q.OrderBy = []sqlparse.OrderItem{{Column: out[g.Rng.Intn(len(out))], Desc: g.Rng.Intn(2) == 0}}
		}
	}
	if g.Rng.Intn(2) == 0 {
		q.Limit = 1 + g.Rng.Intn(20)
		q.Offset = g.Rng.Intn(6)
	}
	return q
}
