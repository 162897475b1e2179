package flinksql

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/record"
	"repro/internal/reftest"
	"repro/internal/sqlparse"
	"repro/internal/stream"
)

// sqlLiteral renders a generated literal as the dialect spells it: numbers
// in plain decimal, so a long column meets integral and fractional double
// literals alike.
func sqlLiteral(v any) string {
	switch x := v.(type) {
	case string:
		return "'" + x + "'"
	case bool:
		return strings.ToUpper(strconv.FormatBool(x))
	case float64:
		return strconv.FormatFloat(x, 'f', -1, 64)
	}
	return fmt.Sprint(v)
}

// selectionSQL renders a generated selection without what a stream cannot
// answer (ORDER BY, LIMIT, OFFSET, the OLAP time restriction), renaming
// every other selected column.
func selectionSQL(q *reftest.Query) string {
	var items []string
	for i, it := range q.Items {
		switch {
		case it.Star:
			items = append(items, "*")
		case i%2 == 1:
			items = append(items, fmt.Sprintf("%s AS r%d", it.Column, i))
		default:
			items = append(items, it.Column)
		}
	}
	sql := "SELECT " + strings.Join(items, ", ") + " FROM " + q.From.Name
	for i, p := range q.Where {
		sql += []string{" WHERE ", " AND "}[min(i, 1)] + p.Column
		switch p.Op {
		case sqlparse.CmpIn:
			var vs []string
			for _, v := range p.Values {
				vs = append(vs, sqlLiteral(v))
			}
			sql += " IN (" + strings.Join(vs, ", ") + ")"
		case sqlparse.CmpBetween:
			sql += " BETWEEN " + sqlLiteral(p.Value) + " AND " + sqlLiteral(p.Value2)
		default:
			sql += []string{" = ", " != ", " < ", " <= ", " > ", " >= "}[p.Op] + sqlLiteral(p.Value)
		}
	}
	return sql
}

// TestStreamJobMatchesReference runs generated selections as streaming SQL
// jobs over generated tables — random column types, NULLs, literals of the
// other numeric type or of none, renamed columns — and holds every job's
// output to the reference evaluator's answer.
func TestStreamJobMatchesReference(t *testing.T) {
	seed := reftest.Seed(t)
	const tables, queries, rows = 12, 5, 40
	for ti := int64(0); ti < tables; ti++ {
		g := reftest.NewGen(seed*1000 + ti)
		codec, err := record.NewCodec(g.Schema)
		if err != nil {
			t.Fatal(err)
		}
		cluster, err := stream.NewCluster(stream.ClusterConfig{Name: "c", Nodes: 1, ReplicationInterval: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cluster.Close)
		if err := cluster.CreateTopic(g.Schema.Name, stream.TopicConfig{Partitions: 2}); err != nil {
			t.Fatal(err)
		}
		table := reftest.NewTable(g.Schema, false)
		p := stream.NewProducer(cluster, "svc", "", nil)
		for _, r := range g.Rows(rows) {
			payload, err := codec.Encode(r)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Produce(g.Schema.Name, nil, payload); err != nil {
				t.Fatal(err)
			}
			table.Put(r)
		}
		db := reftest.DB{g.Schema.Name: table}
		for qi := 0; qi < queries; {
			gq := g.Query()
			if gq.HasAggregates() {
				continue
			}
			qi++
			sql := selectionSQL(gq)
			q, err := reftest.Parse(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			want, err := db.Eval(q)
			if err != nil {
				t.Fatalf("reference: %s: %v", sql, err)
			}
			got := runSelection(t, fmt.Sprintf("q%d_%d", ti, qi), sql, cluster, codec, want.Columns, len(want.Rows))
			if err := want.Check(q, want.Columns, got); err != nil {
				t.Errorf("%s\nschema %v\n%v", sql, g.Schema.Fields, err)
			}
		}
	}
}

// runSelection runs sql as a streaming job until it has emitted n rows (and
// a moment longer, to catch any beyond), and returns its output as rows of
// cols — what a blob-less SELECT * lists.
func runSelection(t *testing.T, name, sql string, cluster *stream.Cluster, codec *record.Codec, cols []string, n int) [][]any {
	t.Helper()
	sink := flow.NewCollectSink()
	job, plan, err := StreamJob(name, sql, cluster, codec, sink, StreamJobConfig{})
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if len(plan.OutputColumns) > 0 && !slices.Equal(plan.OutputColumns, cols) {
		t.Fatalf("%s: output columns %q, reference %q", sql, plan.OutputColumns, cols)
	}
	if err := job.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for sink.Len() < n && time.Now().Before(deadline) && job.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	job.Cancel()
	if err := job.Wait(); err != nil && !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("%s: %v", sql, err)
	}
	var out [][]any
	for _, r := range sink.Records() {
		row := make([]any, len(cols))
		for i, c := range cols {
			row[i] = r[c]
		}
		out = append(out, row)
	}
	return out
}
