package olap

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/record"
)

// This file is the maintenance surface of a deployment — the handles the
// segment lifecycle manager (internal/olap/lifecycle) steers: sealed-segment
// metadata for policy decisions, deep-store archival and tiered offload,
// retention drops, and background compaction of many small sealed segments
// into one. All operations are safe against concurrent ingestion, queries
// and upsert invalidation.

// segMeta is the deployment's resident record of one sealed segment —
// enough to drive retention, pruning-ratio accounting and compaction
// candidate selection even while the segment's data lives only in the deep
// store.
type segMeta struct {
	partition int
	numRows   int
	minTime   int64
	maxTime   int64
	// valid is the segment's upsert validity (nil: every row is valid), the
	// one copy there is — replicas hold none. It is copy-on-write: share
	// hands it to a reader outside d.mu and marks it shared, and the next
	// invalidateLocked clears its bit in a clone, so no writer touches a
	// bitmap a scan or a compaction is reading.
	valid  *Bitmap
	shared bool
	// version counts invalidateLocked calls: it names the segment's visible
	// row set, as the key of a cached per-segment partial. (The bitmap's
	// address cannot: the bitmap is mutated in place between shares, and a
	// collected one's address can be reused.)
	version uint64
}

// share hands the validity bitmap to a query or a compaction that reads it
// outside d.mu. Caller holds d.mu.
func (m *segMeta) share() *Bitmap {
	m.shared = m.valid != nil
	return m.valid
}

// invalidateLocked clears an upsert-superseded doc of a sealed segment —
// in a clone when the current bitmap is shared. Caller holds d.mu.
func (d *Deployment) invalidateLocked(segment string, doc int) {
	m := d.segMeta[segment]
	if m == nil {
		return
	}
	switch {
	case m.valid == nil:
		m.valid = NewBitmap(m.numRows)
		m.valid.Fill()
	case m.shared:
		m.valid = m.valid.Clone()
		m.shared = false
	}
	m.valid.Clear(doc)
	m.version++
}

// SegmentInfo describes one sealed segment for lifecycle decisions.
type SegmentInfo struct {
	Name      string
	Partition int
	NumRows   int
	MinTime   int64
	MaxTime   int64
	Replicas  []int
	// Resident counts replica servers currently holding the segment's
	// data in memory (0 = fully offloaded to the deep store).
	Resident int
	// LastQuery is the latest query touch across replicas.
	LastQuery time.Time
	// MemBytes is the resident footprint on one replica (0 when
	// offloaded).
	MemBytes int64
}

// SegmentInfos lists every routable sealed segment with its placement and
// residency, sorted by name for determinism.
func (d *Deployment) SegmentInfos() []SegmentInfo {
	d.mu.Lock()
	metas := make(map[string]segMeta, len(d.segMeta))
	placement := make(map[string][]int, len(d.placement))
	for name, m := range d.segMeta {
		metas[name] = *m
	}
	for name, r := range d.placement {
		placement[name] = append([]int(nil), r...)
	}
	d.mu.Unlock()

	infos := make([]SegmentInfo, 0, len(placement))
	for name, replicas := range placement {
		m := metas[name]
		info := SegmentInfo{
			Name:      name,
			Partition: m.partition,
			NumRows:   m.numRows,
			MinTime:   m.minTime,
			MaxTime:   m.maxTime,
			Replicas:  replicas,
		}
		for _, ri := range replicas {
			srv := d.serverAt(ri)
			if srv.Resident(name) {
				info.Resident++
				if info.MemBytes == 0 {
					if seg := srv.Segment(name); seg != nil {
						info.MemBytes = seg.MemBytes()
					}
				}
			}
			if t := srv.LastQuery(name); t.After(info.LastQuery) {
				info.LastQuery = t
			}
		}
		infos = append(infos, info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// ResidentBytes sums the resident segment memory across all servers, plus
// each sealed segment's validity bitmap once — the quantity the lifecycle
// manager keeps bounded.
func (d *Deployment) ResidentBytes() int64 {
	var n int64
	for _, s := range d.serverList() {
		n += s.MemBytes()
	}
	d.mu.Lock()
	for _, m := range d.segMeta {
		if m.valid != nil {
			n += m.valid.MemBytes()
		}
	}
	d.mu.Unlock()
	return n
}

// Reloads sums deep-store segment reloads across all servers.
func (d *Deployment) Reloads() int64 {
	var n int64
	for _, s := range d.serverList() {
		n += s.Reloads()
	}
	return n
}

// AttachLoaders installs a deep-store loader on every server so queries
// over offloaded segments transparently reload them. Idempotent; servers
// joining later (AddServer) are wired the same way.
func (d *Deployment) AttachLoaders() {
	d.loadersOn.Store(true)
	for _, s := range d.serverList() {
		s.SetLoader(d.segmentLoader())
	}
}

// segmentLoader is the deep-store fetch AttachLoaders installs per server.
func (d *Deployment) segmentLoader() func(name string) (*Segment, error) {
	return func(name string) (*Segment, error) {
		data, err := d.store.Get(d.storeKey(name))
		if err != nil {
			return nil, err
		}
		return DecodeSegment(data)
	}
}

// EnsureArchived guarantees the segment's encoded form is in the deep
// store, uploading from a resident replica if the async P2P upload never
// landed. It must succeed before a segment may be offloaded — the
// invariant that makes offload safe.
func (d *Deployment) EnsureArchived(name string) error {
	key := d.storeKey(name)
	if _, err := d.store.Size(key); err == nil {
		return nil
	}
	seg := d.residentSegment(name)
	if seg == nil {
		return fmt.Errorf("%w: %s not resident and not archived", ErrSegmentUnavailable, name)
	}
	data, err := seg.Encode()
	if err != nil {
		return err
	}
	return d.store.Put(key, data)
}

// residentSegment returns the segment's data from any replica currently
// holding it in memory (nil when fully offloaded).
func (d *Deployment) residentSegment(name string) *Segment {
	d.mu.Lock()
	replicas := append([]int(nil), d.placement[name]...)
	d.mu.Unlock()
	for _, ri := range replicas {
		if seg := d.serverAt(ri).Segment(name); seg != nil {
			return seg
		}
	}
	return nil
}

// loadSegment returns the segment's data from a resident replica or, when
// fully offloaded, from the deep store.
func (d *Deployment) loadSegment(name string) (*Segment, error) {
	if seg := d.residentSegment(name); seg != nil {
		return seg, nil
	}
	data, err := d.store.Get(d.storeKey(name))
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrSegmentUnavailable, name, err)
	}
	return DecodeSegment(data)
}

// OffloadSegment moves a sealed segment to the cold tier: its encoded form
// is verified (or uploaded) in the deep store, then every replica drops the
// resident data, keeping only routing metadata. Queries touching it later
// reload it transparently. Returns how many replicas released data. A
// deep-store outage fails the archival check and leaves the segment hot —
// data is never dropped without a durable copy. An offload changes no
// answer, so it leaves the generation, and cached results, alone.
func (d *Deployment) OffloadSegment(name string) (int, error) {
	if err := d.EnsureArchived(name); err != nil {
		return 0, err
	}
	d.mu.Lock()
	replicas := append([]int(nil), d.placement[name]...)
	d.mu.Unlock()
	if len(replicas) == 0 {
		return 0, fmt.Errorf("olap: offload of unknown segment %q", name)
	}
	released := 0
	for _, ri := range replicas {
		if d.serverAt(ri).Offload(name) {
			released++
		}
	}
	return released, nil
}

// DropSegment removes an expired segment from routing: placement and
// metadata go immediately, replicas retire their copies (reclaimed by
// PurgeRetired after in-flight queries drain), upsert locations pointing at
// it are forgotten, and — when deleteArchive is set — the deep-store copy
// is deleted best-effort (a store outage never blocks retention).
func (d *Deployment) DropSegment(name string, deleteArchive bool) {
	d.mu.Lock()
	replicas := append([]int(nil), d.placement[name]...)
	delete(d.placement, name)
	meta := d.segMeta[name]
	delete(d.segMeta, name)
	if meta != nil && d.cfg.Upsert {
		if locs := d.upsertLoc[meta.partition]; locs != nil {
			for pk, loc := range locs {
				if loc.segment == name {
					delete(locs, pk)
				}
			}
		}
	}
	part := -1
	if meta != nil {
		part = meta.partition
	}
	// A retention drop removes visible rows — a retraction for any
	// registered materialized view (and, via the bump, every cached
	// result). Emitted inside the critical section that unrouted the
	// segment so the seq orders against routing snapshots.
	d.emitMutationLocked(part, record.Row{}, true)
	d.mu.Unlock()
	for _, ri := range replicas {
		d.serverAt(ri).Retire(name)
	}
	if deleteArchive {
		// Best-effort: the archive may never have landed (P2P upload
		// failure) or the store may be down; retention proceeds anyway.
		_ = d.store.Delete(d.storeKey(name))
	}
}

// PurgeRetired reclaims retired segment copies older than the grace window
// on every server, returning the number purged.
func (d *Deployment) PurgeRetired(grace time.Duration) int {
	cutoff := time.Now().Add(-grace)
	n := 0
	for _, s := range d.serverList() {
		n += s.PurgeRetired(cutoff)
	}
	return n
}

// CompactResult reports one compaction merge.
type CompactResult struct {
	// Merged is the new segment's name ("" when every input row was
	// upsert-superseded and the inputs were simply dropped).
	Merged  string
	RowsIn  int
	RowsOut int
	Dropped []string
}

// Compact merges several small sealed segments of one partition into a
// single segment: their still-valid rows, gathered column-wise into one
// column store, which is then sealed as ingestion seals its stores.
// Queries keep running throughout: they either see the old segments (which
// stay briefly resident as retired copies) or the merged one, never both.
// For upsert tables the merge stays exact under concurrent updates: rows
// are gathered under the inputs' validity as of the claim, and at swap time
// each merged row is kept only if its key's location still points at the
// source row — keys updated mid-merge surface their newer row instead, and
// the location map is rewritten to the merged segment atomically.
func (d *Deployment) Compact(names []string) (CompactResult, error) {
	var res CompactResult
	if len(names) < 2 {
		return res, fmt.Errorf("olap: compaction needs >= 2 segments, got %d", len(names))
	}
	d.mu.Lock()
	part := -2
	var replicas []int
	for _, name := range names {
		m, ok := d.segMeta[name]
		if !ok {
			d.mu.Unlock()
			return res, fmt.Errorf("olap: compaction input %q is not a routable sealed segment", name)
		}
		if part == -2 {
			part = m.partition
			replicas = append([]int(nil), d.placement[name]...)
		} else if m.partition != part {
			d.mu.Unlock()
			return res, fmt.Errorf("olap: compaction inputs span partitions %d and %d", part, m.partition)
		}
	}
	// Claim every input all-or-nothing: a rebalance move mid-flight on any
	// of them would otherwise race this merge's gather-then-swap (the swap
	// re-reads placement, but the gathered rows came from a replica the
	// move may be retiring). The claim is released on every exit path.
	for _, name := range names {
		if d.busy[name] {
			d.mu.Unlock()
			return res, fmt.Errorf("%w: compaction input %s", ErrSegmentsBusy, name)
		}
	}
	valids := make([]*Bitmap, len(names))
	for i, name := range names {
		d.busy[name] = true
		valids[i] = d.segMeta[name].share()
	}
	cseq := d.compactSeq[part]
	d.compactSeq[part] = cseq + 1
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		for _, name := range names {
			delete(d.busy, name)
		}
		d.mu.Unlock()
	}()

	// Gather phase (no deployment lock): append the still-valid rows of
	// every input to one store, remembering each row's provenance for the
	// upsert revalidation at swap time.
	type prov struct {
		pk  string
		seg string
		doc int
	}
	mergedName := fmt.Sprintf("%s__%d__c%d", d.cfg.Name, part, cseq)
	ms := newMutableSegment(mergedName, d.cfg.Schema, 0, nil)
	fields := d.cfg.Schema.Fields
	vecs := make([]record.Vector, len(fields))
	row := make([]record.Value, len(fields))
	var provs []prov
	scratch := getScratch()
	defer scratch.put()
	block := &scratch.block
	for i, name := range names {
		seg, err := d.loadSegment(name)
		if err != nil {
			return res, err
		}
		sel := make([]int32, 0, seg.NumRows)
		for doc := range seg.NumRows {
			if valids[i] == nil || valids[i].Get(doc) {
				sel = append(sel, int32(doc))
			}
		}
		sc := seg.scan()
		for fi, f := range fields {
			vecs[fi].Reset(f.Type)
			if c := sc.col(f.Name); c != nil {
				c.gather(&vecs[fi], sel, block[:])
			} else { // a blob: never encoded, NULL as any query sees it
				vecs[fi].AppendNulls(len(sel))
			}
		}
		for j, doc := range sel {
			for fi := range row {
				row[fi] = vecs[fi].Value(j)
			}
			mdoc := ms.appendRow(row)
			if d.cfg.Upsert {
				provs = append(provs, prov{pk: d.keyOf(ms, mdoc, row), seg: name, doc: int(doc)})
			}
		}
		res.RowsIn += seg.NumRows
	}
	res.Dropped = append([]string(nil), names...)

	if ms.n == 0 {
		// Every row superseded: compaction degenerates to garbage
		// collection of the inputs (retireSegments bumps the generation).
		d.retireSegments(names)
		return res, nil
	}

	upsertPartition := -1
	if d.cfg.Upsert {
		upsertPartition = part
	}
	merged, err := ms.seal(d.cfg.Indexes, upsertPartition)
	if err != nil {
		return res, err
	}
	res.Merged = mergedName
	res.RowsOut = merged.NumRows

	// Swap phase, under the deployment lock so it is atomic with respect
	// to ingestion and broker routing snapshots.
	d.mu.Lock()
	var valid *Bitmap
	if d.cfg.Upsert {
		// Upsert tables never configure a sorted column, so seal preserved
		// row order: provs[i] is merged doc i. The locations, not
		// the claimed bitmaps, decide: a row superseded since the claim is
		// no longer its key's location.
		valid = NewBitmap(merged.NumRows)
		locs := d.upsertLoc[part]
		for doc, pv := range provs {
			if cur, ok := locs[pv.pk]; ok && cur.segment == pv.seg && cur.doc == pv.doc {
				valid.Set(doc)
				locs[pv.pk] = location{segment: mergedName, doc: doc}
			}
		}
	}
	// The merged segment goes where the inputs were, less any replica
	// decommissioned meanwhile; the inputs retire from their holders.
	d.installLocked(merged, part, replicas, valid)
	for _, name := range names {
		delete(d.placement, name)
		delete(d.segMeta, name)
	}
	// Neutral for views (the visible rows are unchanged: superseded rows
	// were already invisible) but bumped inside the swap section to keep
	// generation ordering exact.
	d.bumpGen() // segment set swapped (inputs replaced by the merged segment)
	d.mu.Unlock()
	for _, name := range names {
		for _, ri := range replicas {
			d.serverAt(ri).Retire(name)
		}
	}

	// Archive the merged segment best-effort (like a P2P upload); a store
	// outage leaves it hot-only and EnsureArchived retries before any
	// offload.
	if data, err := merged.Encode(); err == nil {
		if err := d.store.Put(d.storeKey(mergedName), data); err != nil {
			d.mu.Lock()
			d.uploadErrors++
			d.mu.Unlock()
		}
	}
	return res, nil
}

// retireSegments unroutes segments and retires every replica copy.
func (d *Deployment) retireSegments(names []string) {
	d.mu.Lock()
	replicasOf := make(map[string][]int, len(names))
	for _, name := range names {
		replicasOf[name] = append([]int(nil), d.placement[name]...)
		delete(d.placement, name)
		delete(d.segMeta, name)
	}
	d.bumpGen() // segments left routing (visible rows unchanged: all superseded)
	d.mu.Unlock()
	for _, name := range names {
		for _, ri := range replicasOf[name] {
			d.serverAt(ri).Retire(name)
		}
	}
}
