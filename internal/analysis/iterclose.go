package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// IterClose enforces the Connector v3 streaming contract: a RowIterator
// obtained from an opening call must be Closed on every path out of the
// function that opened it. It runs on the region engine in lockregion.go,
// which lockscope and genbump share: an iterator-typed assignment opens a
// live region; `defer it.Close()` (directly or inside a deferred closure)
// settles it; a plain `it.Close()` in a terminating nested branch punches a
// hole covering the branch remainder; a same-level Close ends the region. A
// return inside a live region, or falling off the end of the function with
// the region still open, is the leak.
//
// Ownership transfers settle the region too: returning the iterator,
// passing it as a call argument, storing it in a struct/map/slice/channel,
// or aliasing it hands the Close obligation to the recipient. The
// error-guard idiom `it, err := open(); if err != nil { return err }` is
// exempt on the guard path because the iterator is nil there.
var IterClose = &Analyzer{
	Name: "iterclose",
	Doc:  "iterators obtained from opening calls must be closed on every path",
	Run:  runIterClose,
}

func runIterClose(p *Pass) error {
	if len(p.Config.Iterators) == 0 {
		return nil
	}
	p.eachFunc(func(fn *ast.FuncDecl) {
		checkIterBody(p, fn.Body)
		// Function literals are independent units: an iterator a closure
		// opens must be closed by the closure (or escape from it).
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				checkIterBody(p, lit.Body)
			}
			return true
		})
	})
	return nil
}

// iterScan feeds one body's iterator opens, closes and hand-offs to the
// region engine and records its returns.
type iterScan struct {
	regionWalk
	p       *Pass
	returns []token.Pos
}

// checkIterBody checks one function (or function-literal) body. The walk
// does not enter nested literals — runIterClose checks each as its own
// unit, so a return inside a closure never counts against the outer
// function's regions.
func checkIterBody(p *Pass, body *ast.BlockStmt) {
	sc := &iterScan{p: p}
	sc.walk(body, sc.visit)
	for _, r := range sc.regions {
		if r.settled {
			continue
		}
		if i := slices.IndexFunc(sc.returns, r.live); i >= 0 {
			p.Reportf(r.start, "iterator %s is not closed on the path returning at line %d: defer %s.Close() after the open, or close it before every return",
				r.name, p.Fset.Position(sc.returns[i]).Line, r.name)
		} else if r.end == sc.bodyEnd && !terminates(body.List) {
			p.Reportf(r.start, "iterator %s is not closed before the function falls off the end: defer %s.Close() after the open", r.name, r.name)
		}
	}
}

func (sc *iterScan) visit(st ast.Stmt) {
	switch s := st.(type) {
	case *ast.ExprStmt:
		if !sc.closes(s.X) {
			sc.findEscapes(s)
		}
	case *ast.AssignStmt:
		// `_ = it.Close()` / `err = it.Close()`
		if len(s.Rhs) == 1 && sc.closes(s.Rhs[0]) {
			return
		}
		sc.findEscapes(s)
		sc.handleOpen(s)
	case *ast.DeferStmt:
		if obj := sc.closeReceiver(s.Call); obj != nil {
			sc.settle(obj)
			return
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			sc.litCloses(lit)
		}
		for _, a := range s.Call.Args {
			sc.escapeIfIter(a)
		}
	case *ast.ReturnStmt:
		sc.findEscapes(s)
		sc.returns = append(sc.returns, s.Pos())
	case *ast.GoStmt, *ast.SendStmt, *ast.DeclStmt, *ast.IncDecStmt:
		sc.findEscapes(s)
	case *ast.IfStmt:
		sc.guardHole(s)
	}
}

// closes hands the engine a close when e is x.Close() on an open iterator
// x, and reports whether it was.
func (sc *iterScan) closes(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	obj := sc.closeReceiver(call)
	if obj != nil {
		sc.closeRegion(obj, call)
	}
	return obj != nil
}

// handleOpen opens regions for iterator-typed results of a call
// assignment. A result assigned to the blank identifier can never be
// closed and is reported outright; a result assigned into a field or
// element is an ownership store and tracked by whoever owns the field.
func (sc *iterScan) handleOpen(s *ast.AssignStmt) {
	if len(s.Rhs) != 1 {
		return
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	t := sc.p.TypeOf(call)
	if t == nil {
		return
	}
	results, ok := t.(*types.Tuple)
	if !ok {
		results = types.NewTuple(types.NewVar(token.NoPos, nil, "", t))
	}
	if results.Len() != len(s.Lhs) {
		return
	}
	var guard types.Object
	for i, lhs := range s.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" && types.Identical(results.At(i).Type(), types.Universe.Lookup("error").Type()) {
			guard = sc.p.ObjectOf(id)
		}
	}
	for i, lhs := range s.Lhs {
		if !isOneOf(results.At(i).Type(), sc.p.Config.Iterators) {
			continue
		}
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue // stored straight into a field/element: ownership transferred
		}
		if id.Name == "_" {
			sc.p.Reportf(s.Pos(), "iterator result of %s is discarded without Close", exprPath(call.Fun))
		} else if obj := sc.p.ObjectOf(id); obj != nil {
			sc.openRegion(obj, id.Name, s.End()).guard = guard
		}
	}
}

// guardHole exempts the error-guard idiom: a terminating branch whose
// condition mentions the error (or the iterator itself, for nil checks)
// assigned at the open — the iterator is nil on that path.
func (sc *iterScan) guardHole(s *ast.IfStmt) {
	if !terminates(s.Body.List) {
		return
	}
	for _, opens := range sc.open {
		r := opens[len(opens)-1]
		if s.Body.Pos() > r.start && sc.mentions(s.Cond, r) {
			r.holes = append(r.holes, posRange{start: s.Body.Pos(), end: s.Body.End()})
		}
	}
}

// mentions reports whether cond names r's iterator or its error.
func (sc *iterScan) mentions(cond ast.Expr, r *region) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := sc.p.ObjectOf(id); obj != nil && (obj == r.key || obj == r.guard) {
				found = true
			}
		}
		return !found
	})
	return found
}

// findEscapes settles regions whose iterator flows out of the function's
// hands inside the statement: as a call argument, a return value, an
// assignment or composite-literal element, or a channel send. A closure
// that closes the iterator also settles the region (deferred-cleanup
// helpers, goroutine consumers).
func (sc *iterScan) findEscapes(n ast.Node) {
	ast.Inspect(n, func(nn ast.Node) bool {
		switch e := nn.(type) {
		case *ast.FuncLit:
			sc.litCloses(e)
		case *ast.CallExpr:
			for _, a := range e.Args {
				sc.escapeIfIter(a)
			}
		case *ast.ReturnStmt:
			for _, r := range e.Results {
				sc.escapeIfIter(r)
			}
		case *ast.AssignStmt:
			for _, r := range e.Rhs {
				if _, isCall := r.(*ast.CallExpr); !isCall {
					sc.escapeIfIter(r)
				}
			}
		case *ast.ValueSpec:
			for _, v := range e.Values {
				sc.escapeIfIter(v)
			}
		case *ast.CompositeLit:
			for _, el := range e.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					sc.escapeIfIter(kv.Value)
				} else {
					sc.escapeIfIter(el)
				}
			}
		case *ast.SendStmt:
			sc.escapeIfIter(e.Value)
		}
		return true
	})
}

func (sc *iterScan) escapeIfIter(e ast.Expr) {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := sc.p.ObjectOf(id); obj != nil {
			sc.settle(obj)
		}
	}
}

// litCloses settles any open region the literal's body closes.
func (sc *iterScan) litCloses(lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if obj := sc.closeReceiver(call); obj != nil {
				sc.settle(obj)
			}
		}
		return true
	})
}

// closeReceiver returns x when call is `x.Close()` on a currently-open
// iterator x, and nil otherwise.
func (sc *iterScan) closeReceiver(call *ast.CallExpr) types.Object {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" || len(call.Args) != 0 {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := sc.p.ObjectOf(id); obj != nil && sc.innermost(obj) != nil {
		return obj
	}
	return nil
}
