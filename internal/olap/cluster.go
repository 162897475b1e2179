package olap

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metadata"
	"repro/internal/objstore"
	"repro/internal/obs"
	"repro/internal/olap/qcache"
	"repro/internal/record"
)

// Errors returned by the serving layer.
var (
	// ErrServerDown is returned when a subquery lands on a failed server.
	ErrServerDown = errors.New("olap: server down")
	// ErrSegmentUnavailable is returned when no live replica holds a
	// segment and recovery from the segment store failed too.
	ErrSegmentUnavailable = errors.New("olap: segment unavailable")
	// ErrSegmentsBusy is returned when a maintenance operation (compaction,
	// rebalance move) finds its segments already claimed by another
	// in-flight operation. Retryable: the claim is released when that
	// operation finishes.
	ErrSegmentsBusy = errors.New("olap: segments busy")
	// errPlanStale marks a rebalance move whose placement changed between
	// planning and the swap (compaction replaced the segment, another move
	// won the slot, the target left the active set). Retryable by
	// re-planning.
	errPlanStale = errors.New("olap: rebalance plan stale")
)

// location tracks an upsert key's latest record.
type location struct {
	segment string // "" means the consuming (mutable) segment
	doc     int
}

// BackupMode selects how sealed segments reach the segment store (§4.3.4).
type BackupMode int

const (
	// BackupCentralized is the original Pinot design: completed segments
	// are synchronously backed up through one controller before ingestion
	// proceeds, and replicas download from the store. A store outage halts
	// ingestion — the scalability bottleneck the paper describes.
	BackupCentralized BackupMode = iota
	// BackupP2P is Uber's scheme: sealed segments replicate directly to
	// peer servers (which can serve them on failure) while the deep-store
	// upload happens asynchronously, best-effort.
	BackupP2P
)

// String names the mode.
func (m BackupMode) String() string {
	if m == BackupP2P {
		return "p2p"
	}
	return "centralized"
}

// DeploymentConfig wires a table onto servers and a segment store.
type DeploymentConfig struct {
	Table TableConfig
	// Servers host segments; partition p's consuming segment lives on
	// servers[p % len].
	Servers []*Server
	// SegmentStore is the deep store (HDFS stand-in).
	SegmentStore objstore.Store
	// Backup selects the §4.3.4 scheme.
	Backup BackupMode
}

// Deployment is one table running on a set of servers: it ingests from the
// stream layer, seals and replicates segments, maintains upsert metadata and
// answers broker queries.
type Deployment struct {
	cfg    TableConfig
	store  objstore.Store
	backup BackupMode
	// keyField and partitionField are the schema indexes of the primary key
	// and the partition column, -1 when the table has none.
	keyField, partitionField int

	// servers is the membership list. It is append-only — indexes are the
	// stable identity placement and partition ownership are keyed by, so a
	// removed server is marked decommissioned, never deleted. The atomic
	// pointer lets the query hot path (routing closures, scatter) read the
	// list lock-free while AddServer publishes a new one under mu.
	servers atomic.Pointer[[]*Server]

	mu sync.Mutex
	// decommissioned marks servers leaving the cluster: they accept no new
	// placements (and own no partitions) but keep serving their remaining
	// segments until the rebalancer drains them — membership change without
	// a query-visible gap.
	decommissioned map[int]bool
	// busy claims segments under an in-flight multi-step operation
	// (compaction's gather→swap, a rebalance move's copy→swap) so two such
	// operations never interleave on one segment. Claims are all-or-nothing
	// per operation and released when it finishes.
	busy map[string]bool
	// consuming per partition.
	consuming map[int]*mutableSegment
	// sealing holds consuming segments mid-seal, oldest first: frozen
	// stores (nothing appends to them any more) whose sealed segment has
	// not entered routing yet. Queries keep serving them (routeView scans
	// them next to the live store), so a Seal in progress never makes rows
	// transiently invisible; the swap to the sealed segment is atomic under
	// mu and is a store's only way out — a failed seal leaves it here for
	// the next one. Their invalid sets keep absorbing upsert supersedes
	// under mu until then.
	sealing map[int][]*mutableSegment
	segSeq  map[int]int
	// lastDicts is what the dictionaries of each partition's last frozen
	// store came to, which its next store is sized by.
	lastDicts map[int][]dictSize
	// upsert metadata per partition: pk -> latest location.
	upsertLoc map[int]map[string]location
	// segment placement: name -> replica server indexes.
	placement map[string][]int
	// segMeta: sealed-segment metadata the lifecycle layer steers by
	// (retention, pruning ratios, compaction candidates) without needing
	// the segments resident anywhere.
	segMeta map[string]*segMeta
	// compactSeq numbers compacted segments per partition so merged names
	// never collide with consuming-segment names.
	compactSeq map[int]int
	// partitionOwner: partition -> primary server index.
	partitionOwner map[int]int
	// controller serializes centralized backups (the single-controller
	// bottleneck).
	controller sync.Mutex

	ingested     int64
	sealed       int64
	uploadErrors int64
	// lastIngestNanos is the wall time of the latest ingested row, for
	// freshness measurement.
	lastIngestNanos int64

	// gen is the table's mutation fingerprint: bumped by every ingest,
	// seal, compaction, offload, drop and recovery (reads stay lock-free on
	// the query hot path). Visible-data mutations bump it INSIDE their mu
	// critical section, in the same section that changes row visibility —
	// so the value read by routeView under mu totally orders the snapshot
	// against every ViewMutation seq (see AddMutationHook). Broker
	// result-cache entries record it and invalidate on any mismatch; see
	// brokercache.go.
	gen atomic.Int64

	// hooks observe visible-data mutations (appends, upsert supersedes,
	// segment drops) synchronously inside the critical section that applied
	// them — the matview registry's maintenance feed. Registered before
	// traffic; see AddMutationHook.
	hooks []func(ViewMutation)

	asyncWG sync.WaitGroup

	// metrics is the deployment's registry; every layer (broker, lifecycle,
	// ingester, matviews) binds its handles and gauge funcs here, and
	// MetricsSnapshot is what bench/CI tooling reads. Handles below are
	// bound once in NewDeployment and used lock-free on the hot paths.
	metrics    *obs.Registry
	ingestRows *obs.Counter
	sealHist   *obs.Histogram

	// loadersOn records that AttachLoaders ran, so servers joining later
	// (AddServer) get the same transparent deep-store reload wiring.
	loadersOn atomic.Bool

	// Rebalance instrumentation (see elastic.go): slots moved, data volume
	// copied, and zero-copy metadata moves of offloaded segments.
	rebalanceMoves *obs.Counter
	rebalanceBytes *obs.Counter
	rebalanceMeta  *obs.Counter
}

// serverList reads the current membership lock-free. The slice is
// append-only and never mutated in place; indexes are stable server ids.
func (d *Deployment) serverList() []*Server { return *d.servers.Load() }

// serverAt returns the server with the given stable index.
func (d *Deployment) serverAt(i int) *Server { return (*d.servers.Load())[i] }

// NumServers returns the membership size, including decommissioned servers
// (indexes stay allocated; see Decommissioned).
func (d *Deployment) NumServers() int { return len(*d.servers.Load()) }

// Decommissioned reports whether a server has been removed from the active
// set (it accepts no new placements; the rebalancer drains its segments).
func (d *Deployment) Decommissioned(i int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.decommissioned[i]
}

// activeCountLocked counts servers accepting placements. Caller holds d.mu.
func (d *Deployment) activeCountLocked() int {
	n := 0
	for i := range d.serverList() {
		if !d.decommissioned[i] {
			n++
		}
	}
	return n
}

// pickOwnerLocked picks a partition's primary server: partition mod servers,
// advanced past decommissioned indexes. Caller holds d.mu.
func (d *Deployment) pickOwnerLocked(partition int) int {
	n := len(d.serverList())
	for i := 0; i < n; i++ {
		si := (partition + i) % n
		if !d.decommissioned[si] {
			return si
		}
	}
	return partition % n
}

// replicasForLocked picks replica indexes for a new segment: the partition
// owner first, then the following active servers in index order. Caller
// holds d.mu.
func (d *Deployment) replicasForLocked(owner int) []int {
	n := len(d.serverList())
	out := make([]int, 0, d.cfg.Replicas)
	for i := 0; i < n && len(out) < d.cfg.Replicas; i++ {
		si := (owner + i) % n
		if d.decommissioned[si] {
			continue
		}
		out = append(out, si)
	}
	if len(out) == 0 {
		out = append(out, owner)
	}
	return out
}

// activeSubstituteLocked finds an active server not already in replicas, to
// stand in for a replica decommissioned while a compaction was in flight.
// Returns -1 when every active server already holds one. Caller holds d.mu.
func (d *Deployment) activeSubstituteLocked(replicas []int, from int) int {
	n := len(d.serverList())
	for i := 0; i < n; i++ {
		si := (from + i) % n
		if d.decommissioned[si] {
			continue
		}
		taken := false
		for _, r := range replicas {
			if r == si {
				taken = true
				break
			}
		}
		if !taken {
			return si
		}
	}
	return -1
}

// ViewMutation describes one visible-data mutation, delivered to mutation
// hooks inside the deployment critical section that applied it. Seq is the
// generation value assigned to the mutation, so hooks observe mutations in
// the exact order queries observe their effects: a routing snapshot taken
// at generation G contains precisely the mutations with Seq <= G.
type ViewMutation struct {
	Seq       int64
	Partition int
	// Row is the appended row as cells of the table schema, built only when
	// a hook is registered and shared, read-only, by every hook: string
	// cells alias the consuming store's dictionary, blobs are copies, and a
	// NULL is Value{Null: true}. Zero (nil Vals) for coarse retractions
	// such as segment drops.
	Row record.Row
	// Retract marks a non-monotonic mutation: visible rows were removed or
	// replaced (an upsert supersede, a retention drop). Mergeable
	// partial-aggregate states cannot subtract, so incremental view
	// maintenance must fall back to re-materialization past one of these.
	Retract bool
}

// AddMutationHook registers fn to observe every visible-data mutation.
// fn runs inside the deployment's mu critical section: it must be fast
// and must not call back into the Deployment or a Broker (routeView takes
// the same lock). Neutral mutations — seals, compactions, offloads,
// recoveries — still bump the generation but deliver no event: they never
// change which rows a query sees.
func (d *Deployment) AddMutationHook(fn func(ViewMutation)) {
	d.mu.Lock()
	d.hooks = append(d.hooks, fn)
	d.mu.Unlock()
}

// emitMutationLocked bumps the generation and notifies hooks of one
// visible-data mutation. Caller holds d.mu — the bump and the hook delivery
// must share the critical section that changed row visibility, or the
// seq-vs-snapshot ordering contract above breaks.
func (d *Deployment) emitMutationLocked(partition int, row record.Row, retract bool) {
	seq := d.gen.Add(1)
	for _, fn := range d.hooks {
		fn(ViewMutation{Seq: seq, Partition: partition, Row: row, Retract: retract})
	}
}

// sealingLocked finds a partition's in-flight sealing store by name — the
// future sealed-segment name, which upsert locations already point at.
// Caller holds d.mu.
func (d *Deployment) sealingLocked(partition int, name string) *mutableSegment {
	for _, ms := range d.sealing[partition] {
		if ms.name == name {
			return ms
		}
	}
	return nil
}

// unplacedLocked returns the partition's oldest frozen store that no seal is
// placing, or nil. Caller holds d.mu.
func (d *Deployment) unplacedLocked(partition int) *mutableSegment {
	for _, ms := range d.sealing[partition] {
		if !ms.placing {
			return ms
		}
	}
	return nil
}

// NewDeployment validates the config and prepares a deployment.
func NewDeployment(cfg DeploymentConfig) (*Deployment, error) {
	tcfg, err := cfg.Table.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(cfg.Servers) == 0 {
		return nil, fmt.Errorf("olap: deployment needs servers")
	}
	if tcfg.Replicas > len(cfg.Servers) {
		return nil, fmt.Errorf("olap: %d replicas > %d servers", tcfg.Replicas, len(cfg.Servers))
	}
	d := &Deployment{
		cfg:            tcfg,
		store:          cfg.SegmentStore,
		backup:         cfg.Backup,
		decommissioned: make(map[int]bool),
		busy:           make(map[string]bool),
		consuming:      make(map[int]*mutableSegment),
		sealing:        make(map[int][]*mutableSegment),
		segSeq:         make(map[int]int),
		lastDicts:      make(map[int][]dictSize),
		upsertLoc:      make(map[int]map[string]location),
		placement:      make(map[string][]int),
		segMeta:        make(map[string]*segMeta),
		compactSeq:     make(map[int]int),
		partitionOwner: make(map[int]int),
		metrics:        obs.NewRegistry(),
		keyField:       -1,
		partitionField: -1,
	}
	for i, f := range tcfg.Schema.Fields {
		if f.Name == tcfg.Schema.PrimaryKey {
			d.keyField = i
		}
		if f.Name == tcfg.PartitionColumn {
			d.partitionField = i
		}
	}
	servers := append([]*Server(nil), cfg.Servers...)
	d.servers.Store(&servers)
	d.ingestRows = d.metrics.Counter("olap_ingest_rows_total")
	d.sealHist = d.metrics.Histogram("olap_seal_ns")
	d.rebalanceMoves = d.metrics.Counter("rebalance_segments_moved_total")
	d.rebalanceBytes = d.metrics.Counter("rebalance_bytes_copied_total")
	d.rebalanceMeta = d.metrics.Counter("rebalance_metadata_moves_total")
	for _, s := range cfg.Servers {
		s.bindMetrics(d.metrics)
	}
	d.metrics.SetGaugeFunc("olap_table_generation", func() float64 {
		return float64(d.gen.Load())
	})
	d.metrics.SetGaugeFunc("olap_upload_errors_total", func() float64 {
		_, _, uploadErrors := d.Stats()
		return float64(uploadErrors)
	})
	d.metrics.SetGaugeFunc("olap_sealed_segments_total", func() float64 {
		_, sealed, _ := d.Stats()
		return float64(sealed)
	})
	return d, nil
}

// Metrics returns the deployment's metrics registry, the binding point for
// every layer's counters, gauges and histograms.
func (d *Deployment) Metrics() *obs.Registry { return d.metrics }

// MetricsSnapshot reads every registered metric — the payload bench/CI
// tooling and the SLO harness consume.
func (d *Deployment) MetricsSnapshot() []obs.MetricPoint { return d.metrics.Snapshot() }

// Table returns the deployment's table config.
func (d *Deployment) Table() TableConfig { return d.cfg }

// Ingest adds one record from the given input partition: the one-row call
// of IngestBatch.
func (d *Deployment) Ingest(partition int, r record.Record) error {
	_, err := d.IngestBatch(partition, []record.Record{r})
	return err
}

// IngestBatch adds records from the given input partition, in order. For
// upsert tables a record's primary key supersedes any prior record with the
// same key — the shared-nothing scheme of §4.3.1: all records of one key
// arrive on one partition, whose metadata lives on exactly one server.
//
// Rows are conformed into typed cells (and checked against the partition
// column) before d.mu is taken, up to the first that does not conform, and
// appended by ingestBlock, the path the realtime ingester's decoded
// payloads take too.
//
// n is the number of rows consumed: rows[:n] are in the table and must not
// be offered again, rows[n:] are not and may be retried. n can equal
// len(rows) with a non-nil error when the seal after the last row failed.
func (d *Deployment) IngestBatch(partition int, rows []record.Record) (n int, err error) {
	b := newCellBlock(d.cfg.Schema, len(rows))
	var rowErr error // the first row that does not conform ends the batch
	for _, r := range rows {
		row := b.slot()
		if rowErr = record.Conform(d.cfg.Schema, r, row); rowErr == nil {
			rowErr = d.checkPartition(partition, row)
		}
		if rowErr != nil {
			break
		}
		b.keep()
	}
	if n, err = d.ingestBlock(partition, &b); err == nil {
		err = rowErr
	}
	return n, err
}

// ingestBlock appends a block of conformed rows under one d.mu acquisition
// per consuming store, each row with its own generation bump and hook
// delivery inside that critical section. The store is frozen exactly when it
// reaches SegmentRows, splitting the block there, and sealed before the next
// row is appended. A frozen store still unplaced on entry — its seal failed —
// is sealed before anything is appended, so a centralized backup outage
// halts ingestion (§4.3.4): an unplaced frozen store blocks its partition.
// n counts the rows appended, as IngestBatch's does.
func (d *Deployment) ingestBlock(partition int, b *cellBlock) (n int, err error) {
	for {
		d.mu.Lock()
		blocked := d.unplacedLocked(partition) != nil
		if !blocked && n < b.rows() {
			var added int
			added, blocked = d.appendLocked(partition, b, n)
			n += added
		}
		d.mu.Unlock()
		if !blocked {
			return n, nil // every row is in
		}
		if err := d.placeSealing(partition); err != nil {
			return n, err
		}
	}
}

// checkPartition enforces the partition-aware router's contract on a
// conformed row: the router prunes servers assuming records landed on
// PartitionFor(partition column), so a row elsewhere could be silently
// missed.
func (d *Deployment) checkPartition(partition int, row []record.Value) error {
	if d.partitionField < 0 {
		return nil
	}
	f := d.cfg.Schema.Fields[d.partitionField]
	v := row[d.partitionField]
	if want := partitionOfValue(v, f.Type, d.cfg.Partitions); want != partition {
		return fmt.Errorf("olap: record with %s=%v belongs on partition %d, ingested on %d",
			f.Name, v.Box(f.Type), want, partition)
	}
	return nil
}

// appendLocked appends rows [from, b.rows()) of the block to the partition's
// consuming store until they run out or the store reaches SegmentRows,
// which freezes it (full). Caller holds d.mu.
func (d *Deployment) appendLocked(partition int, b *cellBlock, from int) (added int, full bool) {
	if _, ok := d.partitionOwner[partition]; !ok {
		d.partitionOwner[partition] = d.pickOwnerLocked(partition)
	}
	ms, ok := d.consuming[partition]
	if !ok {
		// Room for a whole segment up front (growing a vector copies it),
		// unless the seal threshold is too large to reserve on spec, and
		// for the dictionaries the last store of the partition needed.
		ms = newMutableSegment(d.segmentName(partition, d.segSeq[partition]), d.cfg.Schema, min(d.cfg.SegmentRows, 1<<16), d.lastDicts[partition])
		d.consuming[partition] = ms
	}
	now := time.Now().UnixNano()
	for i := from; i < b.rows(); i++ {
		row := b.row(i)
		doc := ms.appendRow(row)
		superseded := d.cfg.Upsert && d.supersedeLocked(partition, ms, d.keyOf(ms, doc, row), doc)
		d.ingested++
		d.ingestRows.Inc()
		d.lastIngestNanos = now
		added++
		// The bump (and hook delivery) happens inside the same critical
		// section that made the row visible, so the generation totally
		// orders this mutation against every routing snapshot — the
		// invariant both the result cache and incremental view maintenance
		// rely on. An upsert supersede is a retraction: the old row left
		// the visible set, which mergeable aggregates cannot undo
		// incrementally.
		var r record.Row
		if len(d.hooks) > 0 {
			r = ms.hookRow(doc, row)
		}
		d.emitMutationLocked(partition, r, superseded)
		if ms.n >= d.cfg.SegmentRows {
			d.freezeLocked(partition, ms)
			return added, true
		}
	}
	return added, false
}

// keyOf is the upsert primary key of row doc of store ms, appended from
// row: the one key format of the location map, which ingest and Compact
// both key it by. A string key is the store's dictionary entry, so the map
// never holds a payload's bytes; any other is formatted with %v.
func (d *Deployment) keyOf(ms *mutableSegment, doc int, row []record.Value) string {
	f := d.cfg.Schema.Fields[d.keyField]
	switch {
	case row[d.keyField].Null:
		return ""
	case f.Type == metadata.TypeString:
		return ms.str(d.keyField, doc)
	}
	return fmt.Sprintf("%v", row[d.keyField].Box(f.Type))
}

// supersedeLocked points the primary key pk at its new location, row doc of
// the consuming store, and invalidates the row it replaces, if any,
// wherever that row lives. It reports whether a row was replaced. Caller
// holds d.mu.
func (d *Deployment) supersedeLocked(partition int, ms *mutableSegment, pk string, doc int) bool {
	locs, ok := d.upsertLoc[partition]
	if !ok {
		locs = make(map[string]location)
		d.upsertLoc[partition] = locs
	}
	old, exists := locs[pk]
	if exists {
		if old.segment == "" {
			ms.invalid[old.doc] = true
		} else if sb := d.sealingLocked(partition, old.segment); sb != nil {
			// The superseded row is mid-seal: record it on the frozen
			// store, whose invalid set becomes the sealed segment's
			// validity bitmap at the swap.
			sb.invalid[old.doc] = true
		} else {
			d.invalidateLocked(old.segment, old.doc)
		}
	}
	locs[pk] = location{segment: "", doc: doc}
	return exists
}

func (d *Deployment) segmentName(partition, seq int) string {
	return fmt.Sprintf("%s__%d__%d", d.cfg.Name, partition, seq)
}

// Seal converts the partition's consuming segment into an immutable sealed
// segment, places it on replicas and backs it up per the configured mode.
// The rows never become invisible mid-seal: the store moves, frozen, to the
// sealing list, which queries keep serving (routeView scans it next to the
// live store) until the sealed segment atomically replaces it in routing —
// so a cached or uncached query racing the seal always sees every row
// exactly once. The segment is built outside the lock by freezing the
// store's columns (mutableSegment.seal). Upsert supersedes that land
// meanwhile accumulate on the frozen store (the future segment name is
// already in the location map), whose invalid set becomes the segment's
// validity bitmap at the swap.
//
// Seal also places every older frozen store of the partition that no other
// seal is placing, oldest first. A seal only moves forward: a failed build
// or centralized backup leaves the store frozen on the sealing list, still
// served and still absorbing supersedes, for the next Seal or IngestBatch
// on the partition to retry.
func (d *Deployment) Seal(partition int) error {
	d.mu.Lock()
	if ms, ok := d.consuming[partition]; ok {
		d.freezeLocked(partition, ms)
	}
	d.mu.Unlock()
	return d.placeSealing(partition)
}

// freezeLocked moves the partition's live store, frozen, to the sealing
// list. Caller holds d.mu.
func (d *Deployment) freezeLocked(partition int, ms *mutableSegment) {
	delete(d.consuming, partition)
	d.segSeq[partition]++
	d.lastDicts[partition] = ms.dictSizes()
	d.sealing[partition] = append(d.sealing[partition], ms)
	if d.cfg.Upsert {
		// Point mutable locations at the future sealed segment now, so
		// supersedes until the swap land on the frozen store (seal
		// preserves row order for upsert tables, so docs carry over).
		locs := d.upsertLoc[partition]
		for pk, loc := range locs {
			if loc.segment == "" {
				locs[pk] = location{segment: ms.name, doc: loc.doc}
			}
		}
	}
	// The visible set is unchanged (routeView scans both lists), but the
	// rows changed store: bumped with the move, like every routing change.
	d.bumpGen()
}

// placeSealing seals every frozen store of the partition that no other
// caller is placing, oldest first, and stops at the first failure. The
// placing flag, set and cleared under d.mu, is the claim.
func (d *Deployment) placeSealing(partition int) error {
	for {
		d.mu.Lock()
		ms := d.unplacedLocked(partition)
		if ms != nil {
			ms.placing = true
		}
		d.mu.Unlock()
		if ms == nil {
			return nil
		}
		if err := d.place(partition, ms); err != nil {
			d.mu.Lock()
			ms.placing = false
			d.mu.Unlock()
			return err
		}
	}
}

// place builds a claimed frozen store's segment, backs it up per the
// configured mode and swaps it in for the store.
func (d *Deployment) place(partition int, ms *mutableSegment) error {
	start := time.Now()
	defer func() { d.sealHist.Observe(time.Since(start)) }()
	upsertPartition := -1
	if d.cfg.Upsert {
		upsertPartition = partition
	}
	seg, err := ms.seal(d.cfg.Indexes, upsertPartition)
	if err != nil {
		return err
	}
	if d.backup == BackupCentralized {
		// Synchronous upload through the single controller before any
		// replica gets the segment; ingestion (this caller) blocks, and a
		// store outage fails the seal.
		d.controller.Lock()
		data, err := seg.Encode()
		if err == nil {
			err = d.store.Put(d.storeKey(seg.Name), data)
		}
		d.controller.Unlock()
		if err != nil {
			return fmt.Errorf("olap: centralized backup of %s: %w", seg.Name, err)
		}
	}

	d.mu.Lock()
	// Replicas (owner plus the next Replicas-1 active servers) are picked in
	// the swap's critical section, so no decommission can slip in between.
	// Every supersede of the store's rows is on ms.invalid by now: they run
	// under d.mu, and the locations name this segment from here on.
	d.installLocked(seg, partition, d.replicasForLocked(d.partitionOwner[partition]), ms.validSnapshot())
	d.sealed++
	d.removeSealingLocked(partition, ms)
	// Neutral for view maintenance (the same rows, now sealed) but bumped
	// inside the swap's critical section so the generation keeps totally
	// ordering routing snapshots against mutations.
	d.bumpGen() // rows moved from sealing to sealed; trims/routing may differ
	d.mu.Unlock()

	if d.backup == BackupP2P {
		// The peer replicas already serve the segment; the deep-store
		// upload is async best-effort.
		d.asyncWG.Add(1)
		go func() {
			defer d.asyncWG.Done()
			data, err := seg.Encode()
			if err == nil {
				err = d.store.Put(d.storeKey(seg.Name), data)
			}
			if err != nil {
				d.mu.Lock()
				d.uploadErrors++
				d.mu.Unlock()
			}
		}()
	}
	return nil
}

// installLocked routes a freshly built sealed segment: each replica — or an
// active substitute for one decommissioned since the replicas were chosen,
// so a decommission's drain is not reopened — adds it, and it enters
// placement and segMeta. The caller bumps the generation. Caller holds d.mu.
func (d *Deployment) installLocked(seg *Segment, partition int, replicas []int, valid *Bitmap) {
	replicas = append([]int(nil), replicas...)
	for i, ri := range replicas {
		if d.decommissioned[ri] {
			if sub := d.activeSubstituteLocked(replicas, ri); sub >= 0 {
				replicas[i] = sub
			}
		}
		d.serverAt(replicas[i]).addSegment(seg)
	}
	d.placement[seg.Name] = replicas
	d.segMeta[seg.Name] = &segMeta{
		partition: partition,
		numRows:   seg.NumRows,
		minTime:   seg.MinTime,
		maxTime:   seg.MaxTime,
		valid:     valid,
	}
}

// removeSealingLocked unlinks a sealing store. Caller holds d.mu.
func (d *Deployment) removeSealingLocked(partition int, ms *mutableSegment) {
	bs := d.sealing[partition]
	for i, b := range bs {
		if b == ms {
			d.sealing[partition] = append(bs[:i:i], bs[i+1:]...)
			return
		}
	}
}

func (d *Deployment) storeKey(segment string) string {
	return fmt.Sprintf("segments/%s/%s", d.cfg.Name, segment)
}

// WaitUploads blocks until async P2P deep-store uploads settle.
func (d *Deployment) WaitUploads() { d.asyncWG.Wait() }

// Stats reports ingestion counters.
func (d *Deployment) Stats() (ingested, sealed, uploadErrors int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ingested, d.sealed, d.uploadErrors
}

// Broker answers queries over a deployment with scatter-gather-merge: the
// query is decomposed into per-server subqueries over the segments each
// server hosts, executed in parallel (with per-server segment-scan worker
// pools), and the partial-aggregate states are merged as they stream back
// (§4.3). Which server answers each segment is a pluggable Router decision
// (round-robin, replica-group-aware, partition-aware); see router.go. The
// typed entry point is Execute (request.go).
type Broker struct {
	d    *Deployment
	opts BrokerOptions

	// cache/flight/admit are the qcache subsystem (nil when disabled):
	// bounded LRU result cache, in-flight deduplication, and per-tenant
	// admission control. See brokercache.go.
	cache  *qcache.Cache
	flight *qcache.Group
	admit  *qcache.Admission

	// views serves registered materialized-view shapes ahead of the cache
	// (nil when disabled); see brokercache.go and internal/olap/matview.
	views ViewServer

	// pool recycles streamed batches from one stream to the next.
	pool batchPool
}

// BrokerOptions tunes query execution.
type BrokerOptions struct {
	// Workers bounds the per-server segment-scan worker pool. 0 means
	// GOMAXPROCS; 1 forces the serial baseline.
	Workers int
	// Router selects the routing strategy for every query of this broker.
	// Nil means the round-robin default, which preserves the §4.3.1
	// partition-owner strategy for upsert tables.
	Router Router
	// CacheMaxBytes enables the broker result cache with that memory bound
	// (0 disables it). Enabling the cache also enables in-flight
	// deduplication: N concurrent identical queries execute once and share
	// the response. Entries invalidate automatically on any ingest, seal,
	// compaction, drop or recovery of the table. Under the same bound the
	// cache also keeps each sealed segment's partial of an aggregate, which
	// ingest elsewhere does not invalidate (ExecStats.SegmentsCached). With
	// the cache enabled, a QueryResponse.Batch is shared read-only data —
	// callers must copy its vectors before mutating (see QueryResponse). An
	// entry is charged what it keeps resident: its key and the cache's
	// bookkeeping, the response struct, a name and a vector header per
	// column, and the cells by record.Vector.Size.
	CacheMaxBytes int64
	// Admission enables per-tenant token-bucket quotas and the bounded
	// execution queue with deadline-aware shedding (typed ErrOverloaded).
	// Nil disables admission control.
	Admission *qcache.AdmissionConfig
	// Views serves registered materialized-view shapes ahead of the result
	// cache: a request whose ViewKey matches a registered view is answered
	// from the view's incrementally-maintained state (ExecStats.ViewHit)
	// without routing, scanning, or filling the cache.
	// Typically a *matview.Registry over the same deployment. Nil disables
	// view serving.
	Views ViewServer
	// Tracer enables per-query span tracing: Execute opens a broker.execute
	// root (unless the caller's context already carries a span — the fedsql
	// case — in which case it nests under it), the scatter/merge phases
	// record child spans, and finished traces land in the tracer's recent
	// ring and slow-query log. Nil disables tracing; the disabled-path cost
	// is a nil check per query.
	Tracer *obs.Tracer
}

// NewBroker creates a broker over a deployment with default options
// (parallel scans, round-robin routing, no cache or admission control).
func NewBroker(d *Deployment) *Broker { return NewBrokerWithOptions(d, BrokerOptions{}) }

// NewBrokerWithOptions creates a broker with explicit execution options.
func NewBrokerWithOptions(d *Deployment, opts BrokerOptions) *Broker {
	b := &Broker{d: d, opts: opts}
	if b.opts.Router == nil {
		b.opts.Router = defaultRouter
	}
	if opts.CacheMaxBytes > 0 {
		b.cache = qcache.NewCache(opts.CacheMaxBytes)
		b.flight = qcache.NewGroup()
		// Pull gauges over the cache: SetGaugeFunc replaces, so the newest
		// broker over a deployment owns the reading (E20 builds several).
		reg, cache, flight := d.Metrics(), b.cache, b.flight
		reg.SetGaugeFunc("qcache_hits_total", func() float64 { return float64(cache.Stats().Hits) })
		reg.SetGaugeFunc("qcache_misses_total", func() float64 { return float64(cache.Stats().Misses) })
		reg.SetGaugeFunc("qcache_segment_hits_total", func() float64 { return float64(cache.Stats().SegmentHits) })
		reg.SetGaugeFunc("qcache_segment_misses_total", func() float64 { return float64(cache.Stats().SegmentMisses) })
		reg.SetGaugeFunc("qcache_evictions_total", func() float64 { return float64(cache.Stats().Evictions) })
		reg.SetGaugeFunc("qcache_entries", func() float64 { return float64(cache.Stats().Entries) })
		reg.SetGaugeFunc("qcache_bytes", func() float64 { return float64(cache.Bytes()) })
		reg.SetGaugeFunc("qcache_coalesced_total", func() float64 { return float64(flight.Coalesced()) })
	}
	if opts.Admission != nil {
		b.admit = qcache.NewAdmission(*opts.Admission)
		reg, admit := d.Metrics(), b.admit
		reg.SetGaugeFunc("admission_shed_total", func() float64 { return float64(admit.Stats().Shed) })
		reg.SetGaugeFunc("admission_queue_len", func() float64 { return float64(admit.Stats().QueueLen) })
	}
	b.views = opts.Views
	return b
}
