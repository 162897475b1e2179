package olap

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"repro/internal/metadata"
	"repro/internal/record"
)

// StarTreeConfig configures the star-tree pre-aggregation index (§4.3: "It
// also uses specialized indices for faster query execution such as
// Startree... which could result in order of magnitude difference of query
// latency").
type StarTreeConfig struct {
	// Dimensions, in split order (typically descending cardinality).
	Dimensions []string
	// Metrics are the pre-aggregated numeric columns.
	Metrics []string
	// MaxLeafRecords stops splitting when a node covers this few rows.
	// Default 100. Smaller trees answer more queries from pre-aggregates at
	// the cost of build time and space — the E4 ablation sweep.
	MaxLeafRecords int
}

// starRow is one pre-aggregated row at a tree node.
type starRow struct {
	// Dims holds dict codes per tree dimension; -1 is the star (any) value.
	Dims []int
	// Count is the number of base rows aggregated into this row.
	Count int64
	Aggs  []record.Agg
}

// StarNode is one tree node. Children hold one node per dict code of the
// node's split dimension, in code order; Star is the aggregated "any value"
// child.
type StarNode struct {
	// Level is the dimension index this node splits on (== len(cfg.
	// Dimensions) at leaves).
	Level    int
	Children []starChild
	Star     *StarNode
	// Rows are the node's pre-aggregated rows (leaf nodes only).
	Rows []starRow
}

// starChild is a node's child for one code of its split dimension.
type starChild struct {
	Code int
	Node *StarNode
}

// StarTree is the built index.
type StarTree struct {
	Cfg  StarTreeConfig
	Root *StarNode
	// Nodes counts tree nodes, for size accounting.
	Nodes int
}

// maxStarDimensions bounds a tree's split dimensions: each can double the
// tree (a star child beside every split), and a decoded segment's tree is
// built from a configuration read from the deep store.
const maxStarDimensions = 8

// buildStarTree constructs the tree from the segment's encoded columns: at
// seal, and when a segment is decoded.
func buildStarTree(seg *Segment, cfg StarTreeConfig) (*StarTree, error) {
	if cfg.MaxLeafRecords <= 0 {
		cfg.MaxLeafRecords = 100
	}
	if len(cfg.Dimensions) > maxStarDimensions {
		return nil, fmt.Errorf("olap: star-tree of %d dimensions, more than %d", len(cfg.Dimensions), maxStarDimensions)
	}
	for i, d := range cfg.Dimensions {
		if _, ok := seg.Columns[d]; !ok {
			return nil, fmt.Errorf("olap: star-tree dimension %q not in segment", d)
		}
		if slices.Contains(cfg.Dimensions[:i], d) {
			return nil, fmt.Errorf("olap: star-tree dimension %q listed twice", d)
		}
	}
	for _, m := range cfg.Metrics {
		if _, ok := seg.Columns[m]; !ok {
			return nil, fmt.Errorf("olap: star-tree metric %q not in segment", m)
		}
	}
	// Materialize the base rows as (dim codes, metric values), reading each
	// column by the block. A dimension's NULL code is a code like any other;
	// a NULL measure is no input: MIN/MAX/AVG over it stay NULL.
	base := make([]starRow, seg.NumRows)
	for i := range base {
		base[i] = starRow{Dims: make([]int, len(cfg.Dimensions)), Count: 1, Aggs: make([]record.Agg, len(cfg.Metrics))}
	}
	scratch := getScratch()
	defer scratch.put()
	block := &scratch.block
	for di, d := range cfg.Dimensions {
		seg.Columns[d].Codes.eachBlock(block[:], func(start int, codes []uint32) {
			for j, code := range codes {
				base[start+j].Dims[di] = int(code)
			}
		})
	}
	for mi, m := range cfg.Metrics {
		c := seg.Columns[m]
		null := uint32(c.Dict.size())
		c.Codes.eachBlock(block[:], func(start int, codes []uint32) {
			for j, code := range codes {
				switch {
				case code == null:
				case c.Field.Type == metadata.TypeString:
					base[start+j].Aggs[mi].Add(0) // a string measure's rows count; its value reads as 0
				default:
					base[start+j].Aggs[mi].Add(c.Dict.num(int(code)))
				}
			}
		})
	}
	t := &StarTree{Cfg: cfg}
	t.Root = t.buildNode(base, 0)
	return t, nil
}

// buildNode recursively splits rows on the level's dimension.
func (t *StarTree) buildNode(rows []starRow, level int) *StarNode {
	t.Nodes++
	node := &StarNode{Level: level}
	if level >= len(t.Cfg.Dimensions) || len(rows) <= t.Cfg.MaxLeafRecords {
		node.Rows = aggregateRows(rows)
		return node
	}
	groups := make(map[int][]starRow)
	for _, r := range rows {
		groups[r.Dims[level]] = append(groups[r.Dims[level]], r)
	}
	for _, code := range slices.Sorted(maps.Keys(groups)) {
		node.Children = append(node.Children, starChild{Code: code, Node: t.buildNode(groups[code], level+1)})
	}
	// Star child: collapse this dimension entirely.
	starRows := collapseDim(rows, level)
	node.Star = t.buildNode(starRows, level+1)
	return node
}

// aggregateRows merges rows with identical dimension tuples, in order of
// first sight; a record.KeyIndex numbers the tuples, each code a number.
func aggregateRows(rows []starRow) []starRow {
	var index record.KeyIndex
	var key []byte
	var out []starRow
	for _, r := range rows {
		key = key[:0]
		for _, d := range r.Dims {
			key = record.AppendCellKey(key, true, uint64(d), "", true)
		}
		if g, found := index.AddKey(false, 0, key, true); found {
			out[g].Count += r.Count
			for i := range out[g].Aggs {
				out[g].Aggs[i].Merge(r.Aggs[i])
			}
			continue
		}
		out = append(out, starRow{Dims: slices.Clone(r.Dims), Count: r.Count, Aggs: slices.Clone(r.Aggs)})
	}
	return out
}

// collapseDim replaces dimension `level` with the star code (-1) and merges.
func collapseDim(rows []starRow, level int) []starRow {
	collapsed := make([]starRow, len(rows))
	for i, r := range rows {
		collapsed[i] = r
		collapsed[i].Dims = slices.Clone(r.Dims)
		collapsed[i].Dims[level] = -1
	}
	return aggregateRows(collapsed)
}

// memBytes approximates the tree's footprint.
func (t *StarTree) memBytes() int64 {
	return int64(t.Nodes) * 96
}

// Eligible reports whether a query whose scan of the segment applies filters
// (q.Filters, less what unitFilters drops) can be answered from the
// star-tree: every filter must be an equality on a tree dimension, every
// group-by column a tree dimension, and every aggregation a
// count/sum/min/max/avg over a tree metric.
func (t *StarTree) Eligible(q *Query, filters []Filter) bool {
	dimSet := make(map[string]bool, len(t.Cfg.Dimensions))
	for _, d := range t.Cfg.Dimensions {
		dimSet[d] = true
	}
	metricSet := make(map[string]bool, len(t.Cfg.Metrics))
	for _, m := range t.Cfg.Metrics {
		metricSet[m] = true
	}
	if len(q.Select) > 0 || len(q.Aggs) == 0 {
		return false // selection queries scan; star-tree serves aggregates
	}
	for _, f := range filters {
		if f.Op != OpEq || !dimSet[f.Column] {
			return false
		}
	}
	for _, g := range q.GroupBy {
		if !dimSet[g] {
			return false
		}
	}
	for _, a := range q.Aggs {
		if a.Kind == AggDistinctCount {
			// The tree stores numeric rollups only; distinct sets are not
			// pre-aggregated, so these queries scan.
			return false
		}
		if a.Kind == AggCount && a.Column == "" {
			continue
		}
		if !metricSet[a.Column] {
			return false
		}
	}
	return true
}

// query answers an eligible query from the tree: walk dimensions in order,
// descending into the filtered code, iterating children for group-by dims,
// and taking the star child otherwise. The matching pre-aggregated rows,
// each a group's key typed from the dictionaries by code and its rollups,
// sort into key order and fold, rows of one key into one group (keep).
// filters are the eligible ones the segment's scan
// applies. nil means the tree cannot answer: a filter literal equals several
// codes, and the segment scans instead.
func (t *StarTree) query(seg *Segment, q *Query, filters []Filter) *Partial {
	// Pre-resolve filters to codes.
	eqCode := make(map[int]int) // dim level -> required code
	for _, f := range filters {
		for di, d := range t.Cfg.Dimensions {
			if f.Column == d {
				lo, hi := seg.Columns[d].Dict.span(normalizeFilterValue(seg.Columns[d].Field.Type, f.Value))
				switch {
				case lo == hi:
					return newPartial(q) // filter value absent
				case hi > lo+1:
					return nil // several longs that are one float64: scan
				}
				eqCode[di] = lo
			}
		}
	}
	groupLevels := make([]int, 0, len(q.GroupBy))
	for _, g := range q.GroupBy {
		for di, d := range t.Cfg.Dimensions {
			if g == d {
				groupLevels = append(groupLevels, di)
			}
		}
	}
	metricIdx := make(map[string]int, len(t.Cfg.Metrics))
	for i, m := range t.Cfg.Metrics {
		metricIdx[m] = i
	}

	// hits is every matching pre-aggregated row, a group's key typed from
	// the dictionaries by code, in walk order.
	hits := &Partial{agg: true, naggs: len(q.Aggs), keys: make([]record.Vector, len(groupLevels))}
	sc := seg.scan()
	gcols := make([]*colView, len(groupLevels))
	for i, gl := range groupLevels {
		gcols[i] = sc.col(t.Cfg.Dimensions[gl])
		hits.keys[i].Reset(gcols[i].typ)
	}
	var walk func(n *StarNode)
	walk = func(n *StarNode) {
		if n.Rows != nil {
			for _, r := range n.Rows {
				// Leaf rows may still need filtering/grouping on deeper dims
				// (when the leaf formed above the last dimension).
				match := true
				for di, code := range eqCode {
					if r.Dims[di] != -1 && r.Dims[di] != code {
						match = false
						break
					}
					if r.Dims[di] == -1 {
						// A star value cannot satisfy an equality filter
						// (it aggregates all values); but walk only reaches
						// star rows via the star child when no filter is on
						// that dim — guard anyway.
						match = false
						break
					}
				}
				if !match {
					continue
				}
				for i, gl := range groupLevels {
					gcols[i].appendCode(&hits.keys[i], r.Dims[gl])
				}
				for _, spec := range q.Aggs {
					st := aggState{Agg: record.Agg{Count: r.Count}}
					if spec.Kind != AggCount || spec.Column != "" {
						st.Agg = r.Aggs[metricIdx[spec.Column]]
					}
					hits.accs = append(hits.accs, st)
				}
				hits.n++
			}
			return
		}
		level := n.Level
		if code, filtered := eqCode[level]; filtered {
			if i, ok := slices.BinarySearchFunc(n.Children, code, func(c starChild, code int) int { return cmp.Compare(c.Code, code) }); ok {
				walk(n.Children[i].Node)
			}
			return
		}
		isGroup := false
		for _, gl := range groupLevels {
			if gl == level {
				isGroup = true
				break
			}
		}
		if isGroup {
			for _, c := range n.Children {
				walk(c.Node)
			}
			return
		}
		walk(n.Star)
	}
	walk(t.Root)
	rows := hits.positions(nil)
	hits.sortRows(rows)
	return hits.keep(rows)
}
