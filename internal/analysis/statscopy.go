package analysis

import (
	"go/ast"
	"go/types"
)

// StatsCopy enforces the PR 5 handout rule: a response that can be served
// to more than one caller — from the result cache, a materialized view, or
// a singleflight group — must reach each caller as its own struct copy.
// Returning the stored pointer hands every caller the same mutable
// ExecStats block, the data race PR 5 fixed (the broker's respond() copies:
// `out := *src; return &out`).
//
// The check is a per-function taint pass over the configured packages: a
// value read from storage (a struct field, a map/slice element, a type
// assertion on a cache hit) or received as a *T parameter is "shared"; a
// value built locally (&T{…}, &local, new(T), a call result) is fresh.
// Returning a shared *T is the violation.
var StatsCopy = &Analyzer{
	Name: "statscopy",
	Doc:  "cache/view/singleflight paths must return per-caller copies of shared responses",
	Run:  runStatsCopy,
}

func runStatsCopy(p *Pass) error {
	if !p.Config.statscopyPkg(p.Pkg.Path()) {
		return nil
	}
	p.eachFunc(func(fn *ast.FuncDecl) { checkStatsCopyFunc(p, fn) })
	return nil
}

// sharedPtrResultPositions returns the indexes of fn's results whose type
// is a pointer to a configured shared type.
func sharedPtrResultPositions(p *Pass, ftype *ast.FuncType) []int {
	if ftype.Results == nil {
		return nil
	}
	var out []int
	pos := 0
	for _, field := range ftype.Results.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isSharedPtr(p, p.TypeOf(field.Type)) {
			for i := 0; i < n; i++ {
				out = append(out, pos+i)
			}
		}
		pos += n
	}
	return out
}

func isSharedPtr(p *Pass, t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	return ok && isOneOf(ptr.Elem(), p.Config.SharedResponses)
}

func checkStatsCopyFunc(p *Pass, fn *ast.FuncDecl) {
	resultPos := sharedPtrResultPositions(p, fn.Type)
	if len(resultPos) == 0 {
		return
	}

	// shared tracks locals known to alias a stored response; fresh tracks
	// locals known to be this function's own allocation.
	shared := map[types.Object]bool{}
	fresh := map[types.Object]bool{}

	// Parameters of shared pointer type are shared: the caller may be
	// handing us its stored copy.
	for _, field := range fn.Type.Params.List {
		if isSharedPtr(p, p.TypeOf(field.Type)) {
			for _, name := range field.Names {
				if obj := p.ObjectOf(name); obj != nil {
					shared[obj] = true
				}
			}
		}
	}

	// classify reports whether e is a shared (stored) response pointer.
	var classify func(e ast.Expr) (isShared, known bool)
	classify = func(e ast.Expr) (bool, bool) {
		switch ee := e.(type) {
		case *ast.ParenExpr:
			return classify(ee.X)
		case *ast.Ident:
			if obj := p.ObjectOf(ee); obj != nil {
				if shared[obj] {
					return true, true
				}
				if fresh[obj] {
					return false, true
				}
			}
			return false, false
		case *ast.SelectorExpr:
			// A field read of *T is a stored pointer. Method values and
			// package selectors are not field reads.
			if sel, ok := p.Info.Selections[ee]; ok && sel.Kind() == types.FieldVal && isSharedPtr(p, sel.Type()) {
				return true, true
			}
			return false, false
		case *ast.IndexExpr:
			if isSharedPtr(p, p.TypeOf(ee)) {
				return true, true
			}
			return false, false
		case *ast.TypeAssertExpr:
			// v.(*QueryResponse): the any-typed slot almost always comes
			// from a cache or flight result.
			if isSharedPtr(p, p.TypeOf(ee)) {
				return true, true
			}
			return false, false
		case *ast.UnaryExpr, *ast.CompositeLit, *ast.CallExpr:
			return false, true
		default:
			return false, false
		}
	}

	// First pass: propagate through simple assignments in source order.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != len(asg.Rhs) {
			return true
		}
		for i, lhs := range asg.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := p.ObjectOf(id)
			if obj == nil || !isSharedPtr(p, obj.Type()) {
				continue
			}
			if isShared, known := classify(asg.Rhs[i]); known {
				shared[obj] = isShared
				fresh[obj] = !isShared
			}
		}
		return true
	})

	// Second pass: check returns.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			// Closures have their own result signatures; a shared return
			// from a closure is checked when the closure's value flows out,
			// which this per-function pass does not model.
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) == 0 {
			return true
		}
		for _, pos := range resultPos {
			if pos >= len(ret.Results) {
				continue
			}
			if isShared, _ := classify(ret.Results[pos]); isShared {
				p.Reportf(ret.Results[pos].Pos(), "returning a stored response pointer: hand each caller its own copy (out := *src; return &out) so ExecStats are never shared")
			}
		}
		return true
	})
}
