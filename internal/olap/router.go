package olap

import (
	"fmt"
	"sort"
	"strconv"
	"sync/atomic"

	"repro/internal/metadata"
	"repro/internal/record"
	"repro/internal/stream"
)

// This file is the pluggable routing half of the Query API v2: a Router
// decides which server answers each sealed segment (and which consuming
// partitions are scanned at all) for one query. The paper's brokers route
// with replica-group and partition awareness (§4.3, Fig 5) so that a query
// touches one replica set instead of every server, and a query with an
// equality filter on the partition column touches one partition's server
// instead of the whole table.

// SegmentRoute describes one routable sealed segment to a Router.
type SegmentRoute struct {
	Name string
	// Partition is the input partition the segment was sealed from.
	Partition int
	// Replicas are the server indexes hosting the segment; Replicas[0] is
	// the partition owner (the placement anchor).
	Replicas []int
}

// RouteView is the cluster snapshot a Router decides over. Liveness and
// hosting are live closures (not frozen booleans) so a router sees the
// current failure state at decision time.
type RouteView struct {
	// Upsert marks an upsert table. Replica validity bitmaps are maintained
	// on every replica, so any live replica serves exact results; the
	// round-robin router still pins upsert tables to the partition owner to
	// preserve the §4.3.1 single-owner strategy.
	Upsert bool
	// PartitionColumn / Partitions mirror the table's declared partition
	// function ("" / 0 when undeclared — partition pruning disabled).
	PartitionColumn string
	Partitions      int
	// Replicas is the configured replica count per segment.
	Replicas int
	// Segments lists every routable sealed segment.
	Segments []SegmentRoute
	// ConsumingPartitions lists partitions with an in-flight consuming
	// segment (always scanned on their owner when routed).
	ConsumingPartitions []int
	// Live reports whether a server currently accepts queries.
	Live func(server int) bool
	// Has reports whether a server currently hosts a segment (resident or
	// offloaded).
	Has func(server int, segment string) bool
	// ServerName names a server for error messages.
	ServerName func(server int) string
}

// RoutePlan is a router's decision for one query.
type RoutePlan struct {
	// Assignment maps server index -> sealed segments it scans.
	Assignment map[int][]string
	// Consuming lists the partitions whose consuming segment is scanned
	// (on the partition owner).
	Consuming []int
	// PartitionsPruned counts input partitions the router excluded via the
	// partition-column filter (0 for partition-unaware routers).
	PartitionsPruned int
	// ReplicaGroup is the replica set preferred by a replica-group-aware
	// router (-1 when not applicable).
	ReplicaGroup int
}

// SegmentCount reports how many sealed segments the plan scans.
func (p *RoutePlan) SegmentCount() int {
	n := 0
	for _, segs := range p.Assignment {
		n += len(segs)
	}
	return n
}

// Router picks the serving replica for every segment of one query.
// Implementations must be safe for concurrent use — one Router instance
// serves every query of a broker (or several brokers).
type Router interface {
	// Name identifies the strategy in stats and EXPLAIN output.
	Name() string
	// Route builds the per-server assignment. It fails with ErrServerDown /
	// ErrSegmentUnavailable when a required segment has no live replica.
	Route(view *RouteView, q *Query) (*RoutePlan, error)
}

func newRoutePlan(view *RouteView) *RoutePlan {
	return &RoutePlan{
		Assignment:   make(map[int][]string),
		Consuming:    append([]int(nil), view.ConsumingPartitions...),
		ReplicaGroup: -1,
	}
}

// ---- round-robin (the v1 strategy) ----

// RoundRobinRouter reproduces the original broker strategy: upsert tables
// route every segment to its partition owner (§4.3.1); other tables pick a
// live replica, rotating the starting replica per query to spread load.
type RoundRobinRouter struct {
	next atomic.Uint64
}

// Name implements Router.
func (r *RoundRobinRouter) Name() string { return "round-robin" }

// Route implements Router.
func (r *RoundRobinRouter) Route(view *RouteView, q *Query) (*RoutePlan, error) {
	plan := newRoutePlan(view)
	for _, seg := range view.Segments {
		if view.Upsert {
			owner := seg.Replicas[0]
			if !view.Live(owner) {
				return nil, fmt.Errorf("%w: upsert partition owner %s", ErrServerDown, view.ServerName(owner))
			}
			plan.Assignment[owner] = append(plan.Assignment[owner], seg.Name)
			continue
		}
		start := int(r.next.Add(1))
		si := pickReplica(view, seg, start)
		if si < 0 {
			return nil, fmt.Errorf("%w: %s (no live replica)", ErrSegmentUnavailable, seg.Name)
		}
		plan.Assignment[si] = append(plan.Assignment[si], seg.Name)
	}
	return plan, nil
}

// pickReplica returns the first live replica hosting the segment, scanning
// the replica list from offset start (negative when none qualifies).
func pickReplica(view *RouteView, seg SegmentRoute, start int) int {
	n := len(seg.Replicas)
	for i := 0; i < n; i++ {
		ri := seg.Replicas[(start+i)%n]
		if view.Live(ri) && view.Has(ri, seg.Name) {
			return ri
		}
	}
	return -1
}

// ---- replica-group-aware ----

// ReplicaGroupRouter bounds per-query fan-out by preferring one replica set
// for the whole query (Fig 5): with R replicas placed on consecutive
// servers, the servers whose index ≡ g (mod R) form replica group g, and
// every segment has exactly one replica in each group (when the server
// count is a multiple of R). Picking one group per query contacts N/R
// servers instead of N. When the preferred group's server is down (or does
// not hold the segment — e.g. recovery re-homed it), the segment fails over
// to the other replica set.
type ReplicaGroupRouter struct {
	next atomic.Uint64
}

// Name implements Router.
func (r *ReplicaGroupRouter) Name() string { return "replica-group" }

// Route implements Router.
func (r *ReplicaGroupRouter) Route(view *RouteView, q *Query) (*RoutePlan, error) {
	groups := view.Replicas
	if groups <= 0 {
		groups = 1
	}
	g := int(r.next.Add(1)) % groups
	plan := newRoutePlan(view)
	plan.ReplicaGroup = g
	for _, seg := range view.Segments {
		si := -1
		for _, ri := range seg.Replicas {
			if ri%groups == g && view.Live(ri) && view.Has(ri, seg.Name) {
				si = ri
				break
			}
		}
		if si < 0 {
			// Fail over to any live replica outside the preferred group.
			si = pickReplica(view, seg, 0)
		}
		if si < 0 {
			return nil, fmt.Errorf("%w: %s (no live replica in any group)", ErrSegmentUnavailable, seg.Name)
		}
		plan.Assignment[si] = append(plan.Assignment[si], seg.Name)
	}
	return plan, nil
}

// ---- partition-aware ----

// PartitionRouter prunes servers by partition-column equality filters
// (§4.3): when the table declares its partition function and the query
// carries an equality (or IN) filter on the partition column, only the
// segments — and consuming partitions — of the matching partitions are
// scanned, and the rest are reported as PartitionsPruned. Retained segments
// prefer their partition owner and fail over to any live replica, so
// pruning never drops the only live copy of a needed segment. Queries
// without a partition filter (or tables without a declared partition
// function) fall back to owner-preferred routing with no pruning.
type PartitionRouter struct{}

// Name implements Router.
func (r *PartitionRouter) Name() string { return "partition" }

// Route implements Router.
func (r *PartitionRouter) Route(view *RouteView, q *Query) (*RoutePlan, error) {
	keep := partitionCandidates(view, q)
	plan := newRoutePlan(view)

	// Track the distinct partitions present so PartitionsPruned counts
	// real partitions, not segments.
	present := make(map[int]bool)
	for _, seg := range view.Segments {
		present[seg.Partition] = true
	}
	for _, part := range view.ConsumingPartitions {
		present[part] = true
	}

	for _, seg := range view.Segments {
		if keep != nil && !keep[seg.Partition] {
			continue
		}
		si := pickReplica(view, seg, 0) // Replicas[0] is the owner: prefer it
		if si < 0 {
			return nil, fmt.Errorf("%w: %s (no live replica)", ErrSegmentUnavailable, seg.Name)
		}
		plan.Assignment[si] = append(plan.Assignment[si], seg.Name)
	}
	if keep != nil {
		kept := plan.Consuming[:0]
		for _, part := range plan.Consuming {
			if keep[part] {
				kept = append(kept, part)
			}
		}
		plan.Consuming = kept
		for part := range present {
			if !keep[part] {
				plan.PartitionsPruned++
			}
		}
	}
	return plan, nil
}

// partitionCandidates derives the set of partitions that can hold matching
// rows from the query's filters on the declared partition column. A nil
// result means "no pruning possible" (every partition may match).
func partitionCandidates(view *RouteView, q *Query) map[int]bool {
	if view.PartitionColumn == "" || view.Partitions <= 0 {
		return nil
	}
	var keep map[int]bool
	for _, f := range q.Filters {
		if f.Column != view.PartitionColumn {
			continue
		}
		var set map[int]bool
		switch f.Op {
		case OpEq:
			set = map[int]bool{PartitionFor(f.Value, view.Partitions): true}
		case OpIn:
			set = make(map[int]bool, len(f.Values))
			for _, v := range f.Values {
				set[PartitionFor(v, view.Partitions)] = true
			}
		default:
			continue // ranges don't prune: hashing destroys order
		}
		if keep == nil {
			keep = set
			continue
		}
		// Conjunctive filters intersect.
		for p := range keep {
			if !set[p] {
				delete(keep, p)
			}
		}
	}
	return keep
}

// PartitionFor maps a partition-column value to its input partition with the
// deployment's canonical hash. Producers and the partition-aware router must
// agree on this function — Deployment.Ingest enforces it for tables that
// declare a partition column. Values canonicalize the same way the query
// layer canonicalizes literals (numerics through float64), so a filter
// literal hashes identically to the ingested value.
func PartitionFor(v any, partitions int) int {
	if f, ok := toF64(v); ok {
		return partitionHash(strconv.AppendFloat([]byte("n:"), f, 'g', -1, 64), partitions)
	}
	return partitionHash(fmt.Appendf([]byte("s:"), "%v", v), partitions)
}

// partitionOfValue is PartitionFor of a conformed cell of type t, hashed
// from the cell without boxing it.
func partitionOfValue(v record.Value, t metadata.FieldType, partitions int) int {
	var buf [48]byte
	switch {
	case v.Null || t == metadata.TypeBytes:
		return PartitionFor(v.Box(t), partitions)
	case t == metadata.TypeString:
		return partitionHash(append(append(buf[:0], "s:"...), v.B...), partitions)
	case t == metadata.TypeDouble:
		return partitionHash(strconv.AppendFloat(append(buf[:0], "n:"...), v.F, 'g', -1, 64), partitions)
	}
	// long, timestamp and bool (true = 1) hash as numbers, as toF64 reads them
	return partitionHash(strconv.AppendFloat(append(buf[:0], "n:"...), float64(v.I), 'g', -1, 64), partitions)
}

// partitionHash is the canonical hash of a partition key's text, FNV-1a
// (stream.Hash), modulo the partition count.
func partitionHash(key []byte, partitions int) int {
	if partitions <= 0 {
		return 0
	}
	return int(stream.Hash(key) % uint32(partitions))
}

// sortPlan orders each server's segment list for deterministic scans.
func sortPlan(plan *RoutePlan) {
	for _, segs := range plan.Assignment {
		sort.Strings(segs)
	}
	sort.Ints(plan.Consuming)
}
