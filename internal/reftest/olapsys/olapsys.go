// Package olapsys adapts an OLAP deployment to reftest's schedule driver,
// for the differential tests of internal/olap and the packages above it. It
// is test support, linked into no program; tests inside package olap cannot
// import it, as it imports olap.
package olapsys

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/objstore"
	"repro/internal/olap"
	"repro/internal/reftest"
)

// Config shapes the deployment New builds.
type Config struct {
	Servers, Replicas int
	Upsert            bool
	Backup            olap.BackupMode
	// CacheMaxBytes > 0 gives the broker a cache of that bound, and every
	// other query a segment budget no fan-out reaches: the request key then
	// differs between two consecutive identical queries, so the second
	// misses the result cache and is answered from the per-segment
	// partials the first one left.
	CacheMaxBytes int64
}

// System is a deployment as the reference driver drives it, read through
// Broker.
type System struct {
	*olap.Deployment
	Broker *olap.Broker
	ctx    context.Context // the test's: queries end with it
	// translate is the test directory's reference-to-OLAP query translation.
	translate func(*reftest.Query) *olap.Query
	// hook, when set, runs inside the next deep-store write: under
	// centralized backup, a seal's backup with the seal in flight.
	hook func()
	// cached alternates the segment budget of a cached system's queries.
	cached  bool
	queries atomic.Int64
}

// New returns a deployment of g's table — 60-row segments, one random
// inverted column, an in-memory deep store, loaders attached — whose queries
// translate turns into the OLAP layer's.
func New(t testing.TB, g *reftest.Gen, cfg Config, translate func(*reftest.Query) *olap.Query) *System {
	t.Helper()
	servers := make([]*olap.Server, cfg.Servers)
	for i := range servers {
		servers[i] = olap.NewServer(fmt.Sprintf("server-%d", i))
	}
	s := &System{ctx: t.Context(), translate: translate, cached: cfg.CacheMaxBytes > 0}
	var store objstore.Store = objstore.NewMemStore()
	if cfg.Backup == olap.BackupCentralized { // the only backup a seal waits for
		store = &hookStore{Store: store, s: s}
	}
	fields := g.Queryable()
	d, err := olap.NewDeployment(olap.DeploymentConfig{
		Table: olap.TableConfig{
			Name:        g.Schema.Name,
			Schema:      g.Schema,
			SegmentRows: 60,
			Upsert:      cfg.Upsert,
			Replicas:    cfg.Replicas,
			Indexes:     olap.IndexConfig{InvertedColumns: []string{fields[g.Rng.Intn(len(fields))].Name}},
		},
		Servers:      servers,
		SegmentStore: store,
		Backup:       cfg.Backup,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.AttachLoaders()
	s.Deployment, s.Broker = d, olap.NewBrokerWithOptions(d, olap.BrokerOptions{CacheMaxBytes: cfg.CacheMaxBytes})
	return s
}

type hookStore struct {
	objstore.Store
	s *System
}

func (h *hookStore) Put(key string, value []byte) error {
	if hook := h.s.hook; hook != nil {
		h.s.hook = nil
		hook()
	}
	return h.Store.Put(key, value)
}

// SealWhile seals the partition, running during inside the seal's backup
// when the backup is centralized, else after the seal.
func (s *System) SealWhile(p int, during func()) error {
	s.hook = during
	err := s.Seal(p)
	if s.hook != nil { // no backup ran mid-seal: peer-to-peer, or nothing to seal
		s.hook = nil
		during()
	}
	return err
}

func (s *System) sealed(p int) []string {
	var names []string
	for _, info := range s.SegmentInfos() {
		if info.Partition == p {
			names = append(names, info.Name)
		}
	}
	return names
}

// Compact merges the partition's sealed segments; with fewer than two it
// does nothing.
func (s *System) Compact(p int) error {
	if names := s.sealed(p); len(names) >= 2 {
		_, err := s.Deployment.Compact(names)
		return err
	}
	return nil
}

// Offload moves the partition's newest sealed segment to the deep store;
// with none it does nothing.
func (s *System) Offload(p int) error {
	if names := s.sealed(p); len(names) > 0 {
		_, err := s.OffloadSegment(names[len(names)-1])
		return err
	}
	return nil
}

// Execute answers q through Broker, stats and all.
func (s *System) Execute(q *reftest.Query) (*olap.QueryResponse, error) {
	req := &olap.QueryRequest{Query: s.translate(q)}
	if s.cached && s.queries.Add(1)%2 == 0 {
		req.MaxSegments = math.MaxInt32
	}
	return s.Broker.Execute(s.ctx, req)
}

// Query answers q through Broker.
func (s *System) Query(q *reftest.Query) ([]string, [][]any, error) {
	res, err := s.Execute(q)
	if err != nil {
		return nil, nil, err
	}
	return res.Columns, res.Rows, nil
}

var (
	_ reftest.System = (*System)(nil)
	_ reftest.Midway = (*System)(nil)
)
