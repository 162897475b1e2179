package analysis

import (
	"go/ast"
	"go/types"
	"slices"
)

// LockScope enforces the PR 2/8 discipline: segment bytes (and every other
// blocking result) are obtained OUTSIDE the lock. While a configured mutex
// is held — s.mu, d.mu — the critical section must not perform a channel
// send/receive, a select, a query execution (Execute/scanSegments/Scan/
// AggregateScan), deep-store I/O, a sleep or a WaitGroup wait. Holding the
// lock across any of these serializes the whole query path behind one slow
// operation and, for channel operations, risks deadlock against goroutines
// that need the same lock to drain.
//
// Read locks are held across CPU-bound scans by design, so RLock regions
// are checked for the same blocking set — an RLock across deep-store I/O
// still blocks every writer — but not for lock-free atomics or plain reads.
var LockScope = &Analyzer{
	Name: "lockscope",
	Doc:  "no channel operation, query execution, or deep-store I/O while a guarded mutex is held",
	Run:  runLockScope,
}

func runLockScope(p *Pass) error {
	specs := lockSpecsForPkg(p)
	if len(specs) == 0 {
		return nil
	}
	p.eachFunc(func(fn *ast.FuncDecl) {
		li := computeLockInfo(p, fn.Body, specs)
		if len(li.regions) == 0 {
			return
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SendStmt:
				if r := li.inside(n.Pos(), false); r != nil {
					p.Reportf(n.Pos(), "channel send while %s is held", r.name)
				}
			case *ast.UnaryExpr:
				if n.Op.String() == "<-" {
					if r := li.inside(n.Pos(), false); r != nil {
						p.Reportf(n.Pos(), "channel receive while %s is held", r.name)
					}
				}
			case *ast.SelectStmt:
				if r := li.inside(n.Pos(), false); r != nil {
					p.Reportf(n.Pos(), "select while %s is held", r.name)
				}
				// The comm clauses are already under the lock; don't
				// double-report each send/recv inside.
				return false
			case *ast.RangeStmt:
				t := p.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					if r := li.inside(n.Pos(), false); r != nil {
						p.Reportf(n.Pos(), "range over channel while %s is held", r.name)
					}
				}
			case *ast.CallExpr:
				if name, ok := blockingCall(p, n); ok {
					if r := li.inside(n.Pos(), false); r != nil {
						p.Reportf(n.Pos(), "blocking call %s while %s is held: obtain the result outside the lock", name, r.name)
					}
				}
			}
			return true
		})
	})
	return nil
}

// lockSpecsForPkg filters configured locks to those whose guarded type this
// package can name (its own, plus imported ones — a caller holding a lock
// from another package is still in scope).
func lockSpecsForPkg(p *Pass) []LockSpec {
	var out []LockSpec
	for _, s := range p.Config.Locks {
		if s.Pkg == p.Pkg.Path() {
			out = append(out, s)
			continue
		}
		for _, imp := range p.Pkg.Imports() {
			if imp.Path() == s.Pkg {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// blockingCall matches a call against the configured blocking set and
// returns a printable name.
func blockingCall(p *Pass, call *ast.CallExpr) (string, bool) {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		// Package-level function (time.Sleep) or method call.
		if obj := p.ObjectOf(fun.Sel); obj != nil {
			if f, ok := obj.(*types.Func); ok {
				sig, _ := f.Type().(*types.Signature)
				if sig != nil && sig.Recv() == nil && f.Pkg() != nil {
					for _, spec := range p.Config.Blocking {
						if spec.Type != "" || spec.Pkg != f.Pkg().Path() {
							continue
						}
						if slices.Contains(spec.Methods, f.Name()) {
							return f.Pkg().Path() + "." + f.Name(), true
						}
					}
					return "", false
				}
			}
		}
		// An interface method matches when its static type is named.
		recv := recvType(p, fun)
		for _, spec := range p.Config.Blocking {
			if spec.Type != "" && isNamed(recv, spec.Pkg, spec.Type) && slices.Contains(spec.Methods, fun.Sel.Name) {
				return spec.Type + "." + fun.Sel.Name, true
			}
		}
	}
	return "", false
}
