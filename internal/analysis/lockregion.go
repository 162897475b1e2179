package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The region engine: a control-flow-aware lexical approximation of "which
// statements run while a resource is live", shared by genbump and lockscope
// (a configured mutex is held) and iterclose (an opened iterator is not yet
// closed).
//
// A function body's statement lists are walked structurally, each statement
// with its nesting depth and the remainder of its list; an if or for
// statement's init runs at the statement's own level. The analyzer's visit
// function reports what a statement does to its resources: an open starts a
// region; a close at the open's depth ends it; a deferred close settles it,
// holding it to the end of the body. A close in a nested branch that
// terminates —
//
//	if !ok {
//	    d.mu.Unlock()
//	    return nil
//	}
//
// does not end the outer region: it punches a hole covering the branch
// remainder, because control either leaves through the branch or continues
// past the if with the resource still live. Ambiguous shapes (a close in a
// branch that falls through) end the region, which can only under-report,
// never over-report, "X happened while live".
//
// The walk does not descend into function literals. For the lock checks a
// literal is attributed to the function in which it appears only when
// invoked immediately; bodies of go statements, deferred closures and stored
// closures execute outside the lexical critical section and are excluded
// (cutouts). iterclose checks each literal as a body of its own.

type posRange struct{ start, end token.Pos }

func (r posRange) contains(p token.Pos) bool { return p > r.start && p < r.end }

// region is one live interval of an opened resource.
type region struct {
	key     any    // the resource: a lockKey, an iterator's types.Object
	name    string // how findings spell the resource
	start   token.Pos
	end     token.Pos    // the close, or the end of the body while open
	holes   []posRange   // branch remainders after a close in a terminating nested branch
	depth   int          // statement-list nesting level at the open
	settled bool         // a deferred close, or an ownership hand-off, answers for it
	read    bool         // an RLock region
	guard   types.Object // iterclose: the error assigned beside the iterator
}

// live reports whether pos falls inside the region and outside its holes.
func (r *region) live(pos token.Pos) bool {
	if pos <= r.start || pos >= r.end {
		return false
	}
	for _, h := range r.holes {
		if h.contains(pos) {
			return false
		}
	}
	return true
}

// regionWalk walks one body and collects the regions its visit function
// opens.
type regionWalk struct {
	regions []*region
	open    map[any][]*region // open regions per key, innermost last
	bodyEnd token.Pos
	visit   func(ast.Stmt)
	rest    []ast.Stmt // the remainder of the visited statement's list
	depth   int        // the visited statement's nesting level
}

// walk hands visit each simple statement of body in source order, and each
// if statement after its init and before its branches.
func (w *regionWalk) walk(body *ast.BlockStmt, visit func(ast.Stmt)) {
	w.open, w.bodyEnd, w.visit = map[any][]*region{}, body.End(), visit
	w.list(body.List, 0)
}

func (w *regionWalk) list(list []ast.Stmt, depth int) {
	for i, st := range list {
		w.stmt(st, list[i+1:], depth)
	}
}

func (w *regionWalk) stmt(st ast.Stmt, rest []ast.Stmt, depth int) {
	switch s := st.(type) {
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, rest, depth)
		}
		w.rest, w.depth = rest, depth
		w.visit(s)
		w.list(s.Body.List, depth+1)
		if s.Else != nil {
			w.stmt(s.Else, nil, depth)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, nil, depth)
		}
		w.list(s.Body.List, depth+1)
	case *ast.RangeStmt:
		w.list(s.Body.List, depth+1)
	case *ast.SwitchStmt:
		w.clauses(s.Body, depth+1)
	case *ast.TypeSwitchStmt:
		w.clauses(s.Body, depth+1)
	case *ast.SelectStmt:
		w.clauses(s.Body, depth+1)
	case *ast.BlockStmt:
		w.list(s.List, depth+1)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, rest, depth)
	default:
		w.rest, w.depth = rest, depth
		w.visit(st)
	}
}

// clauses walks the case or comm clauses of a switch or select body.
func (w *regionWalk) clauses(body *ast.BlockStmt, depth int) {
	for _, cc := range body.List {
		switch c := cc.(type) {
		case *ast.CaseClause:
			w.list(c.Body, depth)
		case *ast.CommClause:
			w.list(c.Body, depth)
		}
	}
}

// openRegion starts a region of key after start at the visited statement's
// depth; it stays open until a close or the end of the body.
func (w *regionWalk) openRegion(key any, name string, start token.Pos) *region {
	r := &region{key: key, name: name, start: start, end: w.bodyEnd, depth: w.depth}
	w.regions = append(w.regions, r)
	w.open[key] = append(w.open[key], r)
	return r
}

// innermost returns key's innermost open region, or nil.
func (w *regionWalk) innermost(key any) *region {
	if opens := w.open[key]; len(opens) > 0 {
		return opens[len(opens)-1]
	}
	return nil
}

func (w *regionWalk) pop(key any) *region {
	r := w.innermost(key)
	if opens := w.open[key]; len(opens) > 1 {
		w.open[key] = opens[:len(opens)-1]
	} else {
		delete(w.open, key)
	}
	return r
}

// closeRegion applies a close of key at the visited statement: it ends the
// innermost open region, or, from a terminating nested branch, punches a
// hole over the branch remainder.
func (w *regionWalk) closeRegion(key any, call ast.Node) {
	r := w.innermost(key)
	if r == nil {
		return
	}
	if r.depth < w.depth && terminates(w.rest) {
		r.holes = append(r.holes, posRange{start: call.End(), end: w.rest[len(w.rest)-1].End()})
		return
	}
	w.pop(key)
	r.end = call.Pos()
}

// settle answers for key's innermost open region to the end of the body: a
// deferred close, or a hand-off of the resource to another owner.
func (w *regionWalk) settle(key any) {
	if r := w.pop(key); r != nil {
		r.settled = true
	}
}

// terminates reports whether control definitely leaves a statement list
// through its last statement: a return, a branch statement, a panic, or a
// block or an if/else all of whose arms terminate.
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch s := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	case *ast.IfStmt:
		return s.Else != nil && terminates(s.Body.List) && terminates([]ast.Stmt{s.Else})
	case *ast.BlockStmt:
		return terminates(s.List)
	case *ast.LabeledStmt:
		return terminates([]ast.Stmt{s.Stmt})
	}
	return false
}

// lockKey identifies a mutex instance well enough for intra-function
// matching: the root object of the selector path plus the spelled path.
type lockKey struct {
	root types.Object
	path string
}

// lockInfo is one function's held intervals plus the cutout subtrees that
// must not count as locked.
type lockInfo struct {
	regions []*region
	cutouts []ast.Node
}

// cut reports whether pos lies in a cutout.
func (li *lockInfo) cut(pos token.Pos) bool {
	for _, c := range li.cutouts {
		if pos >= c.Pos() && pos < c.End() {
			return true
		}
	}
	return false
}

// inside returns the region (optionally only a write-locked one) that holds
// a lock at pos, or nil.
func (li *lockInfo) inside(pos token.Pos, writeOnly bool) *region {
	if li.cut(pos) {
		return nil
	}
	for _, r := range li.regions {
		if !(writeOnly && r.read) && r.live(pos) {
			return r
		}
	}
	return nil
}

// computeLockInfo runs the region engine over body with the configured
// mutexes' Lock/RLock as opens and Unlock/RUnlock as closes.
func computeLockInfo(p *Pass, body *ast.BlockStmt, specs []LockSpec) *lockInfo {
	var w regionWalk
	w.walk(body, func(st ast.Stmt) {
		switch s := st.(type) {
		case *ast.ExprStmt:
			key, op, ok := mutexOp(p, s.X, specs)
			switch {
			case !ok:
			case op == "Lock" || op == "RLock":
				w.openRegion(key, key.path, s.End()).read = op == "RLock"
			default:
				w.closeRegion(key, s)
			}
		case *ast.DeferStmt:
			if key, op, ok := mutexOp(p, s.Call, specs); ok && (op == "Unlock" || op == "RUnlock") {
				w.settle(key)
			}
		}
	})
	return &lockInfo{regions: w.regions, cutouts: cutouts(body)}
}

// cutouts returns the subtrees that do not run inline: go-statement calls,
// deferred closures, and stored/passed function literals. Only an
// immediately-invoked literal (the Fun of a plain CallExpr) runs within the
// lexical critical section.
func cutouts(body *ast.BlockStmt) []ast.Node {
	var out []ast.Node
	iife := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			out = append(out, n.Call)
		case *ast.DeferStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				out = append(out, lit)
			}
		case *ast.CallExpr:
			if lit, ok := n.Fun.(*ast.FuncLit); ok {
				iife[lit] = true
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && !iife[lit] {
			out = append(out, lit)
			return false
		}
		return true
	})
	return out
}

// mutexOp matches a call of the form <path>.<mutex>.(R)Lock/(R)Unlock on a
// configured mutex and returns its key and operation.
func mutexOp(p *Pass, e ast.Expr, specs []LockSpec) (lockKey, string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return lockKey{}, "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockKey{}, "", false
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return lockKey{}, "", false
	}
	// sel.X must be a selector ending in a configured mutex field.
	mutexSel, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return lockKey{}, "", false
	}
	owner := p.TypeOf(mutexSel.X)
	for _, s := range specs {
		if mutexSel.Sel.Name == s.Field && isNamed(owner, s.Pkg, s.Type) {
			return lockKey{root: rootObject(p, mutexSel.X), path: exprPath(mutexSel)}, op, true
		}
	}
	return lockKey{}, "", false
}

// rootObject resolves the base identifier's object of a selector chain.
func rootObject(p *Pass, e ast.Expr) types.Object {
	for {
		switch ee := e.(type) {
		case *ast.Ident:
			return p.ObjectOf(ee)
		case *ast.SelectorExpr:
			e = ee.X
		case *ast.ParenExpr:
			e = ee.X
		case *ast.IndexExpr:
			e = ee.X
		default:
			return nil
		}
	}
}

// exprPath renders a selector chain as text (d.mu, s.peers[i].mu → approx).
func exprPath(e ast.Expr) string {
	switch ee := e.(type) {
	case *ast.Ident:
		return ee.Name
	case *ast.SelectorExpr:
		return exprPath(ee.X) + "." + ee.Sel.Name
	case *ast.ParenExpr:
		return exprPath(ee.X)
	case *ast.IndexExpr:
		return exprPath(ee.X) + "[…]"
	default:
		return "…"
	}
}
