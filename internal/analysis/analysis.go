package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
)

// Analyzer is one named invariant check. Run inspects a single package and
// reports findings through the pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one package's syntax and type information to an analyzer,
// mirroring x/tools' analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Config   *Config

	diags []Diagnostic
}

// Diagnostic is one finding, positioned for file:line:col reporting.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// ObjectOf returns the object denoted by ident, consulting both Uses and
// Defs, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	return p.Info.ObjectOf(id)
}

// eachFunc calls check on every function declaration with a body.
func (p *Pass) eachFunc(check func(*ast.FuncDecl)) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				check(fn)
			}
		}
	}
}

// namedOf unwraps pointers and aliases down to a named type.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		case *types.Alias:
			t = types.Unalias(tt)
		default:
			return nil
		}
	}
}

// isNamed reports whether t, through pointers and aliases, is the named type
// pkg.name.
func isNamed(t types.Type, pkg, name string) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Name() != name {
		return false
	}
	if n.Obj().Pkg() == nil {
		return pkg == ""
	}
	return n.Obj().Pkg().Path() == pkg
}

// isOneOf reports whether t is one of the named types specs lists.
func isOneOf(t types.Type, specs []TypeSpec) bool {
	return slices.ContainsFunc(specs, func(s TypeSpec) bool { return isNamed(t, s.Pkg, s.Name) })
}

// Unit is the loaded form of one package, produced by the load package.
type Unit struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
}

// Run executes the analyzers over one loaded package and returns the
// surviving diagnostics: suppressed findings are filtered (each consuming a
// lint:ignore directive), and malformed or unused directives become
// diagnostics themselves so a stale suppression cannot silently outlive the
// code it excused.
func Run(u *Unit, cfg *Config, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     u.Fset,
			Files:    u.Files,
			Pkg:      u.Pkg,
			Info:     u.Info,
			Config:   cfg,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		diags = append(diags, pass.diags...)
	}
	sup := collectSuppressions(u.Fset, u.Files)
	diags = sup.filter(diags)
	diags = append(diags, sup.problems(analyzers)...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}
