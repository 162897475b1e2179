package reftest

import (
	"math/rand"
	"os"
	"strconv"
	"testing"

	"repro/internal/record"
)

// seedVar names the environment variable that sets the seed of every
// randomized differential harness.
const seedVar = "REFTEST_SEED"

// Seed returns the seed t's harness derives its inputs from — seedVar's
// value, else 1 — and arranges for a failing t to print it.
func Seed(t testing.TB) int64 {
	t.Helper()
	seed := int64(1)
	if s := os.Getenv(seedVar); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("%s: %v", seedVar, err)
		}
		seed = v
	}
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("replay with %s=%d", seedVar, seed)
		}
	})
	return seed
}

// System is one system under test as the driver drives it: a table taking
// rows by input partition, the maintenance operations on one partition's
// segments, and queries. Test directories adapt their deployments to it.
type System interface {
	Ingest(partition int, r record.Record) error
	Seal(partition int) error
	// Compact merges the partition's sealed segments; with fewer than two
	// it does nothing.
	Compact(partition int) error
	// Offload moves the partition's newest sealed segment to the deep
	// store; with none it does nothing.
	Offload(partition int) error
	Query(q *Query) (cols []string, rows [][]any, err error)
}

// Elastic is a System whose membership the driver changes.
type Elastic interface {
	System
	// Churn adds or decommissions a server, drawing from rng, and
	// rebalances.
	Churn(rng *rand.Rand) error
}

// Midway is a System that can hold a seal in flight: during runs after the
// partition's rows are frozen for the seal and before the sealed segment
// replaces them in routing.
type Midway interface {
	SealWhile(partition int, during func()) error
}

// Driver applies one schedule to every system and copies each data
// operation into the reference table, so that between operations every
// system's answers can be held to the reference's.
type Driver struct {
	t       testing.TB
	gen     *Gen
	Ref     *Table
	db      DB
	systems []System
	// parts input partitions; a row's key picks its partition, so all rows
	// of one key land on one (§4.3.1).
	parts int
	// keys > 0 draws keys below it — later rows supersede earlier ones on
	// the upsert table the reference then is; 0 gives every row a new key.
	keys int
	rows int // rows ingested
}

// NewDriver returns a driver over systems fed from g on partitions input
// partitions; keySpace > 0 makes the table an upsert table with keys below
// it.
func NewDriver(t testing.TB, g *Gen, partitions, keySpace int, systems ...System) *Driver {
	ref := NewTable(g.Schema, keySpace > 0)
	return &Driver{t: t, gen: g, Ref: ref, db: DB{g.Schema.Name: ref}, systems: systems, parts: partitions, keys: keySpace}
}

// draw returns the next row for partition p.
func (d *Driver) draw(p int) record.Record {
	k := d.rows
	if d.keys > 0 {
		k = p + d.parts*d.gen.Rng.Intn(max(d.keys/d.parts, 1))
	}
	d.rows++
	return d.gen.Row(k)
}

func (d *Driver) ingest(s System, p int, r record.Record) {
	d.t.Helper()
	if err := s.Ingest(p, r); err != nil {
		d.t.Fatalf("%T: ingest into partition %d: %v", s, p, err)
	}
}

// Ingest draws n rows, round robin over the partitions, into every system
// and the reference.
func (d *Driver) Ingest(n int) {
	d.t.Helper()
	for i := 0; i < n; i++ {
		p := d.rows % d.parts
		r := d.draw(p)
		d.Ref.Put(r)
		for _, s := range d.systems {
			d.ingest(s, p, r)
		}
	}
}

// each applies one maintenance operation to every system.
func (d *Driver) each(op string, p int, fn func(System) error) {
	d.t.Helper()
	for _, s := range d.systems {
		if err := fn(s); err != nil {
			d.t.Fatalf("%T: %s partition %d: %v", s, op, p, err)
		}
	}
}

// Seal seals partition p of every system.
func (d *Driver) Seal(p int) {
	d.t.Helper()
	d.each("seal", p, func(s System) error { return s.Seal(p) })
}

// Compact compacts partition p of every system.
func (d *Driver) Compact(p int) {
	d.t.Helper()
	d.each("compact", p, func(s System) error { return s.Compact(p) })
}

// Offload offloads partition p's newest segment on every system.
func (d *Driver) Offload(p int) {
	d.t.Helper()
	d.each("offload", p, func(s System) error { return s.Offload(p) })
}

// SealMidway seals partition p of every system and, while each seal is in
// flight, ingests n more rows into p — superseding rows the seal holds, on
// an upsert table — and checks qs. Every system must be a Midway.
func (d *Driver) SealMidway(p, n int, qs ...*Query) {
	d.t.Helper()
	rows := make([]record.Record, n)
	for i := range rows {
		rows[i] = d.draw(p)
		d.Ref.Put(rows[i])
	}
	for _, s := range d.systems {
		m, ok := s.(Midway)
		if !ok {
			d.t.Fatalf("%T cannot hold a seal in flight", s)
		}
		err := m.SealWhile(p, func() {
			for _, r := range rows {
				d.ingest(s, p, r)
			}
			for _, q := range qs {
				d.check(s, q)
			}
		})
		if err != nil {
			d.t.Fatalf("%T: seal partition %d midway: %v", s, p, err)
		}
	}
}

// Churn changes the membership of every Elastic system.
func (d *Driver) Churn() {
	d.t.Helper()
	for _, s := range d.systems {
		if e, ok := s.(Elastic); ok {
			if err := e.Churn(d.gen.Rng); err != nil {
				d.t.Fatalf("%T: churn: %v", s, err)
			}
		}
	}
}

// Step applies one random operation to a random partition: a seal, a
// compaction or an offload one time in ten each, else an ingest of 5 to 40
// rows.
func (d *Driver) Step() {
	d.t.Helper()
	p := d.gen.Rng.Intn(d.parts)
	switch d.gen.Rng.Intn(10) {
	case 0:
		d.Seal(p)
	case 1:
		d.Compact(p)
	case 2:
		d.Offload(p)
	default:
		d.Ingest(5 + d.gen.Rng.Intn(36))
	}
}

// Want evaluates q over the reference table.
func (d *Driver) Want(q *Query) *Result {
	d.t.Helper()
	want, err := d.db.Eval(q)
	if err != nil {
		d.t.Fatalf("reference: %s: %v", q, err)
	}
	return want
}

// Check fails the test unless every system answers q as the reference
// accepts.
func (d *Driver) Check(q *Query) {
	d.t.Helper()
	for _, s := range d.systems {
		d.check(s, q)
	}
}

func (d *Driver) check(s System, q *Query) {
	d.t.Helper()
	cols, rows, err := s.Query(q)
	if err != nil {
		d.t.Fatalf("%T: %s: %v", s, q, err)
	}
	if err := d.Want(q).Check(q, cols, rows); err != nil {
		d.t.Fatalf("%T: %s: %v", s, q, err)
	}
}
