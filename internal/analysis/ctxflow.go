package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlow enforces the PR 1 cancellation discipline: library packages under
// internal/ never mint their own root context — context.Background() and
// context.TODO() sever the caller's deadline/cancellation chain exactly
// where it matters (blocking paths deep in the engine). Contexts are
// created at the process edge (cmd/, examples/, experiments, tests) and
// threaded down.
//
// Additionally, an exported function or method that takes a
// context.Context must take it as the first parameter (after the
// receiver), the convention every call site in the repo relies on.
//
// Test files are exempt (a test is a process edge); so are packages the
// config lists as exempt (experiment harnesses).
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "no context.Background()/TODO() in library packages; exported APIs take ctx first",
	Run:  runCtxFlow,
}

func runCtxFlow(p *Pass) error {
	if p.Config.ctxExempt(p.Pkg.Path()) {
		return nil
	}
	for _, f := range p.Files {
		name := p.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if fn := contextRootCall(p, n); fn != "" {
					p.Reportf(n.Pos(), "context.%s() in a library package severs the caller's cancellation chain: thread a ctx parameter instead", fn)
				}
			case *ast.FuncDecl:
				checkCtxPosition(p, n)
			}
			return true
		})
	}
	return nil
}

// contextRootCall matches context.Background() / context.TODO().
func contextRootCall(p *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
		return ""
	}
	obj := p.ObjectOf(sel.Sel)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	return fn.Name()
}

// checkCtxPosition flags exported declarations whose context parameter is
// not first.
func checkCtxPosition(p *Pass, fn *ast.FuncDecl) {
	if !fn.Name.IsExported() || fn.Type.Params == nil {
		return
	}
	pos := 0
	for _, field := range fn.Type.Params.List {
		isCtx := isContextType(p.TypeOf(field.Type))
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isCtx && pos > 0 {
			p.Reportf(field.Pos(), "exported %s takes context.Context at parameter %d: ctx must come first", fn.Name.Name, pos)
			return
		}
		pos += n
	}
}

func isContextType(t types.Type) bool {
	return isNamed(t, "context", "Context")
}
