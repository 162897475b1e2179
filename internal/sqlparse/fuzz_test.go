package sqlparse

import "testing"

// FuzzParse: any text parses to a statement or an error, never a panic.
// Seeded with the statements the engine tests run — joins, subqueries,
// windows, every predicate form — so mutations start from deep parses.
func FuzzParse(f *testing.F) {
	for _, sql := range []string{
		"SELECT * FROM pinot.events WHERE amount > 12.5",
		"SELECT id AS event, city AS town FROM pinot.events WHERE qty < 3",
		"SELECT city, COUNT(*) AS n, SUM(amount) AS total FROM pinot.events GROUP BY city ORDER BY city",
		"SELECT order_id, amount FROM pinot.orders ORDER BY amount DESC, order_id LIMIT 10",
		"SELECT id, city, o.city, s.city, status, s.status, note FROM pinot.events o JOIN hive.notes s ON o.status = s.status WHERE o.amount > 3 AND s.note != 'slow'",
		"SELECT COUNT(*) AS groups, SUM(total) AS s, MAX(n) AS top FROM (SELECT city, status, COUNT(*) AS n, SUM(amount) AS total FROM pinot.events GROUP BY city, status) t WHERE n > 5",
		"SELECT * FROM t WHERE a = 'x' AND b != 2 AND c <= 3 AND d IN ('p', 'q') AND e BETWEEN 1 AND 5 AND f = true AND g = -4",
		"SELECT a.city, b.label FROM preds AS a JOIN labels AS b ON a.model = b.model WITHIN 1000 WHERE a.city = 'sf'",
		"SELECT city, COUNT(*) FROM trips GROUP BY city, TUMBLE(ts, 60000)",
		"SELECT COUNT(*) FROM trips GROUP BY HOP(ts, 30000, 60000);",
		"SELECT * FROM t WHERE a = 'it''s'",
	} {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		if stmt, err := Parse(sql); err == nil {
			_ = stmt.String()
		}
	})
}
