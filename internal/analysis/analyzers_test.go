package analysis_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// Each test drives one analyzer over its fixture under testdata/src/ with a
// fixture-local Config — the same facts layer DefaultConfig feeds the real
// suite — and asserts the // want annotations: seeded violations are
// caught, conforming shapes stay clean.

func fixture(name string) string {
	return filepath.Join("testdata", "src", name)
}

func TestGenBump(t *testing.T) {
	cfg := &analysis.Config{GenGuarded: []analysis.GenGuard{{
		Pkg:          "fix/genbump",
		Type:         "D",
		Mutex:        "mu",
		GenField:     "gen",
		Fields:       []string{"placement", "owner"},
		Bumps:        []string{"bumpGen", "emitLocked"},
		HookEmitters: []string{"emitLocked"},
	}}}
	analysistest.Run(t, fixture("genbump"), "fix/genbump", []*analysis.Analyzer{analysis.GenBump}, cfg)
}

func TestLockScope(t *testing.T) {
	cfg := &analysis.Config{
		Locks: []analysis.LockSpec{{Pkg: "fix/lockscope", Type: "S", Field: "mu"}},
		Blocking: []analysis.CallSpec{
			{Pkg: "time", Methods: []string{"Sleep"}},
			{Pkg: "fix/lockscope", Type: "Store", Methods: []string{"Get"}},
		},
	}
	analysistest.Run(t, fixture("lockscope"), "fix/lockscope", []*analysis.Analyzer{analysis.LockScope}, cfg)
}

func TestSentinelErr(t *testing.T) {
	analysistest.Run(t, fixture("sentinelerr"), "fix/sentinelerr", []*analysis.Analyzer{analysis.SentinelErr}, &analysis.Config{})
}

func TestCtxFlow(t *testing.T) {
	cfg := &analysis.Config{CtxLibraryPrefixes: []string{"fix/"}}
	analysistest.Run(t, fixture("ctxflow"), "fix/ctxflow", []*analysis.Analyzer{analysis.CtxFlow}, cfg)
}

func TestCtxFlowExemptPackage(t *testing.T) {
	// The same fixture under an exempt path produces nothing: the seeded
	// Background/TODO violations are out of scope for experiment harnesses.
	cfg := &analysis.Config{
		CtxLibraryPrefixes:  []string{"fix/"},
		CtxExemptSubstrings: []string{"/ctxflow"},
	}
	diags := analysistest.RunNoWants(t, fixture("ctxflow"), "fix/ctxflow", []*analysis.Analyzer{analysis.CtxFlow}, cfg)
	for _, d := range diags {
		if d.Analyzer == "ctxflow" {
			t.Errorf("exempt package still flagged: %s", d)
		}
	}
}

func TestStatsCopy(t *testing.T) {
	cfg := &analysis.Config{
		SharedResponses: []analysis.TypeSpec{{Pkg: "fix/statscopy", Name: "Resp"}},
		StatscopyPkgs:   []string{"fix/statscopy"},
	}
	analysistest.Run(t, fixture("statscopy"), "fix/statscopy", []*analysis.Analyzer{analysis.StatsCopy}, cfg)
}

func TestIterClose(t *testing.T) {
	cfg := &analysis.Config{Iterators: []analysis.TypeSpec{{Pkg: "fix/iterclose", Name: "Iter"}}}
	analysistest.Run(t, fixture("iterclose"), "fix/iterclose", []*analysis.Analyzer{analysis.IterClose}, cfg)
}
