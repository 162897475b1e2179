package analysis

import "strings"

// Config is the facts layer driving every analyzer: it names the guarded
// types, mutex fields, generation-bump calls, blocking operations, shared
// response types and context conventions. A new subsystem opts into a check
// by appending one entry to the relevant list — the analyzers themselves
// never hard-code a package.
type Config struct {
	// GenGuarded lists the types whose routing/visibility state is
	// fingerprinted by a generation counter (analyzer: genbump).
	GenGuarded []GenGuard

	// Locks lists the mutexes that must never be held across a blocking
	// operation (analyzer: lockscope).
	Locks []LockSpec

	// Blocking lists the calls lockscope treats as blocking — query
	// execution, connector scans, deep-store I/O, sleeps, waits. Channel
	// operations and select statements are always blocking.
	Blocking []CallSpec

	// CtxLibraryPrefixes are the import-path prefixes ctxflow treats as
	// library code, where minting context.Background()/TODO() is forbidden.
	CtxLibraryPrefixes []string

	// CtxExemptSubstrings exempt packages (by import-path substring) from
	// ctxflow: experiment harnesses and similar leaf drivers.
	CtxExemptSubstrings []string

	// SharedResponses lists the result types that cache/view/singleflight
	// paths hand out; statscopy requires each caller to receive its own
	// struct copy, never a stored pointer.
	SharedResponses []TypeSpec

	// StatscopyPkgs limits statscopy to the packages that implement the
	// shared-result paths; elsewhere returning a response pointer you were
	// handed is normal plumbing.
	StatscopyPkgs []string

	// Iterators lists the streaming-iterator types whose values, once
	// obtained from an opening call, must be Closed on every path
	// (analyzer: iterclose).
	Iterators []TypeSpec
}

// GenGuard names one generation-guarded type: mutations of the listed
// fields must bump the generation (via one of Bumps, or GenField.Add)
// inside the Mutex critical section. The conventions are:
//   - functions suffixed "Locked" run with the caller holding Mutex and are
//     the caller's responsibility;
//   - functions prefixed "New" construct the value before it is shared.
type GenGuard struct {
	Pkg      string   // package path defining the type
	Type     string   // type name, e.g. "Deployment"
	Mutex    string   // mutex field name, e.g. "mu"
	GenField string   // atomic counter field, e.g. "gen" (recv.gen.Add(…) is a bump)
	Fields   []string // guarded routing/visibility fields
	Bumps    []string // method names that perform the bump, e.g. bumpGen
	// HookEmitters are methods that deliver mutation events to registered
	// hooks; calls to them must stay inside the Mutex critical section.
	HookEmitters []string
}

// LockSpec names one guarded mutex field on a type.
type LockSpec struct {
	Pkg   string
	Type  string
	Field string
}

// CallSpec names blocking calls: methods on a (possibly interface) type, or
// package-level functions when Type is empty.
type CallSpec struct {
	Pkg     string
	Type    string // empty for package-level functions
	Methods []string
}

// TypeSpec names a type by package path and name.
type TypeSpec struct {
	Pkg  string
	Name string
}

// DefaultConfig is the repo's fact base. Every entry cites the PR that
// established the invariant it encodes (see DESIGN.md "Static analysis").
func DefaultConfig() *Config {
	return &Config{
		GenGuarded: []GenGuard{
			{
				// PR 5/6: cache entries and materialized views key on
				// Deployment.gen; any mutation of routing or visibility
				// state that does not bump it inside the same d.mu critical
				// section can serve stale cached results.
				Pkg:      "repro/internal/olap",
				Type:     "Deployment",
				Mutex:    "mu",
				GenField: "gen",
				Fields: []string{
					"placement", "partitionOwner", "consuming", "sealing",
					"upsertLoc", "segMeta", "decommissioned",
				},
				Bumps:        []string{"bumpGen", "emitMutationLocked"},
				HookEmitters: []string{"emitMutationLocked"},
			},
		},
		Locks: []LockSpec{
			// PR 2/8: segment bytes are obtained outside the lock; holding
			// d.mu or s.mu across execution or deep-store I/O serializes
			// the whole query path behind one segment fetch.
			{Pkg: "repro/internal/olap", Type: "Deployment", Field: "mu"},
			{Pkg: "repro/internal/olap", Type: "Server", Field: "mu"},
		},
		Blocking: []CallSpec{
			{Pkg: "repro/internal/objstore", Type: "Store",
				Methods: []string{"Get", "Put", "Delete", "List", "Size"}},
			{Pkg: "repro/internal/fedsql", Type: "Connector",
				Methods: []string{"Scan", "AggregateScan"}},
			{Pkg: "repro/internal/fedsql", Type: "StreamingConnector",
				Methods: []string{"OpenScan", "OpenAggregateScan"}},
			{Pkg: "repro/internal/fedsql", Type: "RowIterator",
				Methods: []string{"Next", "Close"}},
			{Pkg: "repro/internal/olap", Type: "Broker",
				Methods: []string{"Execute", "MaterializePartial", "ExecuteStream"}},
			{Pkg: "repro/internal/olap", Type: "Server",
				Methods: []string{"scanSegments"}},
			{Pkg: "repro/internal/olap", Type: "QueryStream",
				Methods: []string{"Next", "Close"}},
			// PR 14: consuming segments are scanned and sealed from a
			// prefix snapshot taken under d.mu, outside it — a scan or a
			// seal under the lock stalls every ingest and every routeView
			// for milliseconds.
			{Pkg: "repro/internal/olap", Type: "scanSet",
				Methods: []string{"executePartial", "streamSelect"}},
			{Pkg: "repro/internal/olap", Type: "consumingScan",
				Methods: []string{"scanUnits"}},
			{Pkg: "repro/internal/olap", Type: "mutableSegment",
				Methods: []string{"seal"}},
			// PR 22: the stream layer's parks. A reader waits for a produce
			// for as long as its bound allows; d.mu or s.mu held across one
			// stalls every ingest and every query's routeView that long.
			{Pkg: "repro/internal/stream", Type: "Cluster",
				Methods: []string{"Wait"}},
			{Pkg: "repro/internal/stream", Type: "Reader",
				Methods: []string{"Wait"}},
			{Pkg: "repro/internal/stream", Type: "Consumer",
				Methods: []string{"Poll"}},
			{Pkg: "time", Methods: []string{"Sleep"}},
			{Pkg: "sync", Type: "WaitGroup", Methods: []string{"Wait"}},
		},
		CtxLibraryPrefixes: []string{"repro/internal/"},
		CtxExemptSubstrings: []string{
			// Experiment harnesses are top-level drivers, not library code:
			// they own their lifecycles the way cmd/ binaries do.
			"/experiments",
		},
		SharedResponses: []TypeSpec{
			// PR 5: the shared-ExecStats race — cache hits and coalesced
			// followers must never share one mutable QueryResponse.
			{Pkg: "repro/internal/olap", Name: "QueryResponse"},
		},
		StatscopyPkgs: []string{
			"repro/internal/olap",
			"repro/internal/olap/matview",
		},
		Iterators: []TypeSpec{
			// PR 10: the Connector v3 streaming contract — a RowIterator from
			// OpenScan holds broker producers and pooled batches until Close;
			// a leaked one strands goroutines for the query's lifetime.
			{Pkg: "repro/internal/fedsql", Name: "RowIterator"},
			{Pkg: "repro/internal/olap", Name: "QueryStream"},
		},
	}
}

// ctxExempt reports whether ctxflow skips the package entirely.
func (c *Config) ctxExempt(pkgPath string) bool {
	lib := false
	for _, p := range c.CtxLibraryPrefixes {
		if strings.HasPrefix(pkgPath, p) {
			lib = true
			break
		}
	}
	if !lib {
		return true
	}
	for _, s := range c.CtxExemptSubstrings {
		if strings.Contains(pkgPath, s) {
			return true
		}
	}
	return false
}

// statscopyPkg reports whether statscopy applies to the package.
func (c *Config) statscopyPkg(pkgPath string) bool {
	for _, p := range c.StatscopyPkgs {
		if pkgPath == p {
			return true
		}
	}
	return false
}
