package olap

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/olap/rebalance"
)

// This file is the cluster-elasticity surface of a deployment: servers join
// (AddServer) and leave (DecommissionServer) at runtime, and the sticky
// segment rebalancer (internal/olap/rebalance) restores replica placement
// with the minimum set of moves — queries keep answering exactly
// throughout. Permanent node loss reuses the same machinery: RecoverServer
// is "treat the dead server as inactive and apply the moves off it".

// RebalanceReport aggregates one Rebalance (or DecommissionServer /
// RecoverServer) pass.
type RebalanceReport struct {
	// Planned is how many replica-slot moves the sticky plan contained;
	// Slots is the total replica-slot count (the moved-fraction
	// denominator).
	Planned, Slots int
	// Applied counts moves that landed; MetadataMoves of those copied zero
	// bytes (fully offloaded segments — the deep store keeps the data).
	Applied, MetadataMoves int
	// BytesCopied is the data volume transferred by non-metadata moves.
	BytesCopied int64
	// SkippedBusy counts moves deferred because their segment was claimed
	// by a concurrent compaction or move (retried by the drain loop;
	// surfaced here after a plain Rebalance).
	SkippedBusy int
}

func (r *RebalanceReport) absorb(rep rebalance.Report) {
	r.Applied += rep.Applied
	r.MetadataMoves += rep.MetadataMoves
	r.BytesCopied += rep.BytesCopied
	r.SkippedBusy = len(rep.Skipped)
}

// AddServer joins a server to the deployment at runtime and returns its
// stable index. The new server starts empty: call Rebalance to shed the
// balanced share of existing segments onto it (new seals start placing on
// it immediately).
func (d *Deployment) AddServer(s *Server) int {
	s.bindMetrics(d.metrics)
	if d.loadersOn.Load() {
		s.SetLoader(d.segmentLoader())
	}
	d.mu.Lock()
	list := d.serverList()
	next := make([]*Server, len(list)+1)
	copy(next, list)
	next[len(list)] = s
	d.servers.Store(&next)
	idx := len(list)
	// Membership is part of the routing fingerprint: cached results and
	// standing route decisions must observe the new server.
	d.bumpGen()
	d.mu.Unlock()
	return idx
}

// DecommissionServer removes a server from the active set and drains its
// segments onto the remaining servers with sticky (minimum-movement)
// rebalancing. The server keeps serving queries until every segment has
// moved — decommissioning is never a query-visible gap. Consuming
// partitions it owned are reassigned immediately. Fails without touching
// membership when the remaining active servers could not hold the
// configured replica count.
func (d *Deployment) DecommissionServer(ctx context.Context, idx int) (RebalanceReport, error) {
	var total RebalanceReport
	d.mu.Lock()
	if idx < 0 || idx >= len(d.serverList()) {
		d.mu.Unlock()
		return total, fmt.Errorf("olap: decommission of unknown server %d", idx)
	}
	if d.decommissioned[idx] {
		d.mu.Unlock()
		return total, fmt.Errorf("olap: server %d already decommissioned", idx)
	}
	if d.activeCountLocked()-1 < d.cfg.Replicas {
		d.mu.Unlock()
		return total, fmt.Errorf("olap: decommissioning server %d leaves %d active servers < %d replicas",
			idx, d.activeCountLocked()-1, d.cfg.Replicas)
	}
	d.decommissioned[idx] = true
	// Reassign owned partitions now: new consuming rows, upsert anchors and
	// future seals follow the new owner immediately.
	for part, owner := range d.partitionOwner {
		if owner == idx {
			d.partitionOwner[part] = d.pickOwnerLocked(part + 1)
		}
	}
	d.bumpGen()
	d.mu.Unlock()

	// Drain: rebalance until no placement references the server. Moves
	// skipped because a compaction holds their segment retry after the
	// claim is released.
	for attempt := 0; ; attempt++ {
		rep, err := d.Rebalance(ctx)
		total.Planned += rep.Planned
		total.Slots = rep.Slots
		total.Applied += rep.Applied
		total.MetadataMoves += rep.MetadataMoves
		total.BytesCopied += rep.BytesCopied
		total.SkippedBusy = rep.SkippedBusy
		if err != nil {
			return total, err
		}
		remaining := d.segmentsOn(idx)
		if remaining == 0 {
			return total, nil
		}
		if attempt >= 50 {
			return total, fmt.Errorf("%w: %d segments still on decommissioned server %d", ErrSegmentsBusy, remaining, idx)
		}
		select {
		case <-ctx.Done():
			return total, ctx.Err()
		case <-time.After(time.Duration(attempt+1) * time.Millisecond):
		}
	}
}

// segmentsOn counts placement slots referencing a server.
func (d *Deployment) segmentsOn(idx int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, replicas := range d.placement {
		for _, ri := range replicas {
			if ri == idx {
				n++
			}
		}
	}
	return n
}

// rebalanceState snapshots placement, residency and membership for the
// planner. exclude (-1 for none) forces one extra server inactive — the
// RecoverServer path, where the dead server must shed its slots regardless
// of its Down flag.
func (d *Deployment) rebalanceState(exclude int) rebalance.ClusterState {
	d.mu.Lock()
	defer d.mu.Unlock()
	list := d.serverList()
	state := rebalance.ClusterState{
		Servers:  make([]rebalance.ServerState, len(list)),
		Segments: make([]rebalance.SegmentState, 0, len(d.placement)),
	}
	for i, s := range list {
		state.Servers[i] = rebalance.ServerState{
			Index:  i,
			Active: i != exclude && !d.decommissioned[i] && !s.Down(),
		}
	}
	for name, replicas := range d.placement {
		seg := rebalance.SegmentState{
			Name:     name,
			Replicas: append([]int(nil), replicas...),
			Pin:      -1,
		}
		if d.cfg.Upsert {
			if m := d.segMeta[name]; m != nil {
				if owner, ok := d.partitionOwner[m.partition]; ok {
					seg.Pin = owner
				}
			}
		}
		for _, ri := range replicas {
			if list[ri].Resident(name) {
				seg.Resident++
			}
		}
		state.Segments = append(state.Segments, seg)
	}
	// The planner sheds the tail of each server's list: give it the same
	// order every pass, or successive passes undo each other's moves.
	sort.Slice(state.Segments, func(i, j int) bool { return state.Segments[i].Name < state.Segments[j].Name })
	return state
}

// RebalanceState snapshots the current placement, residency and membership
// as the planner's input — exported so experiments can compare the sticky
// plan against the naive baseline on the same state.
func (d *Deployment) RebalanceState() rebalance.ClusterState {
	return d.rebalanceState(-1)
}

// Rebalance computes and applies the sticky minimum-move plan against the
// current membership: slots on decommissioned or down servers re-home, a
// newly joined server fills up to the balanced share, and everything else
// stays put. Offloaded segments move as metadata only — zero bytes copied.
// Safe to call concurrently with ingestion, queries and lifecycle sweeps;
// moves that lose a race (segment under compaction, placement changed) are
// reported as SkippedBusy for the caller to retry.
func (d *Deployment) Rebalance(ctx context.Context) (RebalanceReport, error) {
	return d.rebalanceExcluding(ctx, -1)
}

func (d *Deployment) rebalanceExcluding(ctx context.Context, exclude int) (RebalanceReport, error) {
	sp, ctx := obs.StartSpan(ctx, "rebalance")
	defer sp.End()
	var report RebalanceReport
	var firstErr error
	// A single sticky pass can leave residual imbalance when both replicas
	// of one segment orphan toward the same target (the conflict rule sends
	// one back home). Iterate to the fixed point — each pass strictly
	// shrinks the remaining imbalance, and a balanced cluster plans zero
	// moves, so Rebalance is idempotent from the caller's view.
	for pass := 0; pass < 5; pass++ {
		plan := rebalance.PlanSticky(d.rebalanceState(exclude))
		if exclude >= 0 {
			// Recovery: only the dead server's slots move; balance-restoring
			// moves between healthy servers are not this call's business.
			moves := plan.Moves[:0]
			for _, m := range plan.Moves {
				if m.From == exclude {
					moves = append(moves, m)
				}
			}
			plan.Moves = moves
		}
		report.Slots = plan.Slots
		if len(plan.Moves) == 0 {
			break
		}
		report.Planned += len(plan.Moves)
		rep, err := rebalance.Execute(ctx, deploymentMover{d}, plan, func(err error) bool {
			return errors.Is(err, ErrSegmentsBusy) || errors.Is(err, errPlanStale)
		})
		report.absorb(rep)
		d.rebalanceMoves.Add(int64(rep.Applied))
		d.rebalanceBytes.Add(rep.BytesCopied)
		d.rebalanceMeta.Add(int64(rep.MetadataMoves))
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if rep.Applied == 0 {
			break // only busy skips or errors left: yield to the caller's retry loop
		}
	}
	if sp.Active() {
		sp.SetAttr("applied", fmt.Sprint(report.Applied))
		sp.SetAttr("bytes_copied", fmt.Sprint(report.BytesCopied))
	}
	return report, firstErr
}

// RecoverServer re-hosts the segments a failed server held on the remaining
// live servers — from peer replicas in P2P mode, or by downloading from the
// segment store — by planning a rebalance with the failed server inactive
// and applying only the moves off it. It returns the number of re-hosted
// segments and an error if any segment could not be recovered.
func (d *Deployment) RecoverServer(failed int) (int, error) {
	//lint:ignore ctxflow recovery must run to completion even if the detecting caller goes away; a severed chain is the contract here
	rep, err := d.rebalanceExcluding(context.Background(), failed)
	return rep.Applied, err
}

// deploymentMover adapts Deployment.applyMove to the executor's interface.
type deploymentMover struct{ d *Deployment }

func (mv deploymentMover) Move(ctx context.Context, m rebalance.Move) (rebalance.MoveResult, error) {
	return mv.d.applyMove(ctx, m)
}

// applyMove relocates one replica slot with the same swap-time revalidation
// discipline compaction uses, so concurrent queries never see the segment
// twice or not at all:
//
//  1. validate the move is still current and claim the segment (all
//     claims release on return);
//  2. obtain the bytes outside the deployment lock — a pointer share from
//     the live source, a peer or deep-store copy when the source is down,
//     or nothing at all when the segment is offloaded (metadata-only);
//  3. revalidate under the lock, install on the target, swap the placement
//     slot and bump the generation atomically — no validity moves: upsert
//     validity lives on the deployment, not on replicas;
//  4. retire the source copy — queries routed before the swap finish on
//     it during the grace window.
func (d *Deployment) applyMove(ctx context.Context, m rebalance.Move) (rebalance.MoveResult, error) {
	var res rebalance.MoveResult
	if err := ctx.Err(); err != nil {
		return res, err
	}

	// Phase 1: validate + claim.
	d.mu.Lock()
	if err := d.validateMoveLocked(m); err != nil {
		d.mu.Unlock()
		return res, err
	}
	if d.busy[m.Segment] {
		d.mu.Unlock()
		return res, fmt.Errorf("%w: %s", ErrSegmentsBusy, m.Segment)
	}
	d.busy[m.Segment] = true
	src := d.serverAt(m.From)
	dst := d.serverAt(m.To)
	peers := append([]int(nil), d.placement[m.Segment]...)
	meta := *d.segMeta[m.Segment]
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		delete(d.busy, m.Segment)
		d.mu.Unlock()
	}()

	// Phase 2: obtain the bytes (no deployment lock — the deep store may
	// be slow or down). Segments are immutable, so a pointer share from a
	// resident copy is exact.
	var seg *Segment
	metadataOnly := false
	var bytes int64
	srcDown := src.Down()
	if !srcDown {
		if seg = src.Segment(m.Segment); seg != nil {
			bytes = seg.MemBytes()
		} else if src.Hosts(m.Segment) {
			// Offloaded at the source: the archive-before-offload invariant
			// means the deep store has the bytes — verify, then move
			// metadata only.
			if err := d.EnsureArchived(m.Segment); err != nil {
				return res, err
			}
			metadataOnly = true
		}
	}
	if seg == nil && !metadataOnly {
		// Source down (or its copy vanished): a resident peer replica, then
		// the deep store.
		for _, ri := range peers {
			if ri == m.From {
				continue
			}
			if s2 := d.serverAt(ri).Segment(m.Segment); s2 != nil {
				seg = s2
				bytes = seg.MemBytes()
				break
			}
		}
		if seg == nil {
			data, err := d.store.Get(d.storeKey(m.Segment))
			if err != nil {
				return res, fmt.Errorf("%w: %s: %v", ErrSegmentUnavailable, m.Segment, err)
			}
			if seg, err = DecodeSegment(data); err != nil {
				return res, err
			}
			bytes = int64(len(data))
		}
	}

	// Phase 3: revalidate + install + swap, one critical section.
	d.mu.Lock()
	if err := d.validateMoveLocked(m); err != nil {
		d.mu.Unlock()
		return res, err
	}
	if metadataOnly {
		dst.addOffloaded(m.Segment, meta.minTime, meta.maxTime)
	} else {
		dst.addSegment(seg)
	}
	replicas := append([]int(nil), d.placement[m.Segment]...)
	replicas[m.Slot] = m.To
	d.placement[m.Segment] = replicas
	d.bumpGen()
	d.mu.Unlock()

	// Phase 4: the source copy leaves routing but stays resident for the
	// grace window, so queries that routed before the swap still finish.
	src.Retire(m.Segment)
	res.BytesCopied = bytes
	res.MetadataOnly = metadataOnly
	return res, nil
}

// validateMoveLocked checks a planned move against current state: the slot
// must still be owned by the move's source, and the target must be an
// active server not already holding a replica. Caller holds d.mu.
func (d *Deployment) validateMoveLocked(m rebalance.Move) error {
	replicas, ok := d.placement[m.Segment]
	if !ok || m.Slot < 0 || m.Slot >= len(replicas) || replicas[m.Slot] != m.From {
		return fmt.Errorf("%w: %s slot %d", errPlanStale, m.Segment, m.Slot)
	}
	if m.To < 0 || m.To >= len(d.serverList()) || d.decommissioned[m.To] {
		return fmt.Errorf("%w: %s target %d inactive", errPlanStale, m.Segment, m.To)
	}
	for _, ri := range replicas {
		if ri == m.To {
			return fmt.Errorf("%w: %s already on %d", errPlanStale, m.Segment, m.To)
		}
	}
	return nil
}
