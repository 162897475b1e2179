package analysis_test

import (
	"go/types"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// TestDefaultConfigResolves loads the real packages DefaultConfig names and
// fails when a configured (package, type, method or field) no longer
// resolves to a declaration. The config names them by string, so a rename in
// the program would otherwise switch a check off for that call or field
// without anything failing.
func TestDefaultConfigResolves(t *testing.T) {
	cfg := analysis.DefaultConfig()
	want := map[string]bool{}
	for _, g := range cfg.GenGuarded {
		want[g.Pkg] = true
	}
	for _, l := range cfg.Locks {
		want[l.Pkg] = true
	}
	for _, c := range cfg.Blocking {
		want[c.Pkg] = true
	}
	for _, ts := range append(append([]analysis.TypeSpec(nil), cfg.SharedResponses...), cfg.Iterators...) {
		want[ts.Pkg] = true
	}
	var patterns []string
	for p := range want {
		patterns = append(patterns, p)
	}
	units, err := load.Load(".", patterns...)
	if err != nil {
		t.Fatal(err)
	}
	// Standard-library packages are not units; they are reached through the
	// imports of the ones that are.
	pkgs := map[string]*types.Package{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if pkgs[p.Path()] == nil {
			pkgs[p.Path()] = p
			for _, imp := range p.Imports() {
				visit(imp)
			}
		}
	}
	for _, u := range units {
		visit(u.Pkg)
	}

	// member resolves pkg.typ.name (a field or a method, exported or not), or
	// the package-level pkg.name when typ is empty.
	member := func(kind, pkg, typ, name string) {
		t.Helper()
		p := pkgs[pkg]
		if p == nil {
			t.Errorf("%s: package %q is not loaded", kind, pkg)
			return
		}
		if typ == "" {
			if p.Scope().Lookup(name) == nil {
				t.Errorf("%s: %s.%s is not declared", kind, pkg, name)
			}
			return
		}
		obj, ok := p.Scope().Lookup(typ).(*types.TypeName)
		if !ok {
			t.Errorf("%s: type %s.%s is not declared", kind, pkg, typ)
			return
		}
		if name == "" {
			return
		}
		if m, _, _ := types.LookupFieldOrMethod(types.NewPointer(obj.Type()), true, p, name); m == nil {
			if m, _, _ = types.LookupFieldOrMethod(obj.Type(), true, p, name); m == nil {
				t.Errorf("%s: %s.%s has no field or method %q", kind, pkg, typ, name)
			}
		}
	}
	for _, g := range cfg.GenGuarded {
		for _, name := range append(append(append([]string{g.Mutex, g.GenField}, g.Fields...), g.Bumps...), g.HookEmitters...) {
			member("GenGuarded", g.Pkg, g.Type, name)
		}
	}
	for _, l := range cfg.Locks {
		member("Locks", l.Pkg, l.Type, l.Field)
	}
	for _, c := range cfg.Blocking {
		for _, name := range c.Methods {
			member("Blocking", c.Pkg, c.Type, name)
		}
	}
	for _, ts := range cfg.SharedResponses {
		member("SharedResponses", ts.Pkg, ts.Name, "")
	}
	for _, ts := range cfg.Iterators {
		member("Iterators", ts.Pkg, ts.Name, "")
	}
}
