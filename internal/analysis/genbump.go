package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// GenBump enforces the PR 5/6 coherence invariant: every mutation of a
// generation-guarded field (routing tables, segment slots, consuming /
// sealing state, upsert locations) happens inside the guarded mutex's
// critical section and that same critical section bumps the generation —
// via one of the configured bump methods or <recv>.<gen>.Add(…) — so the
// result cache and materialized views always observe the mutation.
// Mutation-hook emission must likewise stay under the lock: a hook
// delivered outside it can reorder against the query snapshots that
// record their generation under the same lock.
//
// Conventions (from config.GenGuard): functions suffixed "Locked" run with
// the caller already holding the mutex — the caller's critical section is
// checked instead; functions prefixed "New" construct the value before it
// escapes.
var GenBump = &Analyzer{
	Name: "genbump",
	Doc:  "generation-guarded fields must be mutated under the lock, with a generation bump in the same critical section",
	Run:  runGenBump,
}

func runGenBump(p *Pass) error {
	for _, g := range p.Config.GenGuarded {
		if p.Pkg.Path() != g.Pkg {
			continue
		}
		p.eachFunc(func(fn *ast.FuncDecl) { checkGenBumpFunc(p, fn, g) })
	}
	return nil
}

func checkGenBumpFunc(p *Pass, fn *ast.FuncDecl, g GenGuard) {
	callerHoldsLock := strings.HasSuffix(fn.Name.Name, "Locked")
	constructor := strings.HasPrefix(fn.Name.Name, "New") || fn.Name.Name == "init"

	li := computeLockInfo(p, fn.Body, []LockSpec{{Pkg: g.Pkg, Type: g.Type, Field: g.Mutex}})

	type mutation struct {
		pos   token.Pos
		field string
	}
	var muts []mutation   // guarded-field writes
	var bumps []token.Pos // bump calls
	var emits []token.Pos // hook-emitter calls

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if name, ok := guardedFieldTarget(p, lhs, g); ok && !li.cut(lhs.Pos()) {
					muts = append(muts, mutation{pos: lhs.Pos(), field: name})
				}
			}
		case *ast.IncDecStmt:
			if name, ok := guardedFieldTarget(p, n.X, g); ok && !li.cut(n.Pos()) {
				muts = append(muts, mutation{pos: n.Pos(), field: name})
			}
		case *ast.CallExpr:
			if li.cut(n.Pos()) {
				return true
			}
			// delete(d.field, k) mutates the map.
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "delete" && len(n.Args) == 2 {
				if name, ok := guardedFieldTarget(p, n.Args[0], g); ok {
					muts = append(muts, mutation{pos: n.Pos(), field: name})
				}
			}
			if isBumpCall(p, n, g) {
				bumps = append(bumps, n.Pos())
			}
			if isMethodCallOn(p, n, g, g.HookEmitters) {
				emits = append(emits, n.Pos())
			}
		}
		return true
	})

	// Hook emission must stay under the lock regardless of mutations.
	if !callerHoldsLock {
		for _, e := range emits {
			if li.inside(e, true) == nil {
				p.Reportf(e, "mutation-hook emission outside the %s.%s critical section: hooks must observe mutations in snapshot order", g.Type, g.Mutex)
			}
		}
	}

	if len(muts) == 0 || constructor || callerHoldsLock {
		return
	}

	for _, m := range muts {
		region := li.inside(m.pos, true)
		if region == nil {
			p.Reportf(m.pos, "%s.%s mutated outside the %s critical section (or move this into a *Locked helper)", g.Type, m.field, g.Mutex)
			continue
		}
		// A bump (or hook emission, which bumps) must land in the same
		// lexical critical section as the mutation.
		bumped := false
		for _, b := range append(bumps, emits...) {
			if b > region.start && b < region.end {
				bumped = true
				break
			}
		}
		if !bumped {
			p.Reportf(m.pos, "%s.%s mutated without a generation bump in the same %s critical section: cached results and views will not invalidate", g.Type, m.field, g.Mutex)
		}
	}
}

// guardedFieldTarget matches expressions that write a guarded field:
// d.field = …, d.field[k] = …, d.field[k] = append(…) etc. It unwraps index
// expressions so map/slice element writes count as field mutations.
func guardedFieldTarget(p *Pass, e ast.Expr, g GenGuard) (string, bool) {
	for {
		switch ee := e.(type) {
		case *ast.IndexExpr:
			e = ee.X
			continue
		case *ast.ParenExpr:
			e = ee.X
			continue
		case *ast.SelectorExpr:
			if isNamed(p.TypeOf(ee.X), g.Pkg, g.Type) && slices.Contains(g.Fields, ee.Sel.Name) {
				return ee.Sel.Name, true
			}
			return "", false
		default:
			return "", false
		}
	}
}

// isBumpCall matches <recv>.bumpMethod(…) and <recv>.<gen>.Add(…) on the
// guarded type.
func isBumpCall(p *Pass, call *ast.CallExpr, g GenGuard) bool {
	if isMethodCallOn(p, call, g, g.Bumps) {
		return true
	}
	// <recv>.gen.Add(…)
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Add" || g.GenField == "" {
		return false
	}
	genSel, ok := sel.X.(*ast.SelectorExpr)
	if !ok || genSel.Sel.Name != g.GenField {
		return false
	}
	return isNamed(p.TypeOf(genSel.X), g.Pkg, g.Type)
}

// isMethodCallOn matches <expr of guarded type>.<one of names>(…).
func isMethodCallOn(p *Pass, call *ast.CallExpr, g GenGuard, names []string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && slices.Contains(names, sel.Sel.Name) && isNamed(recvType(p, sel), g.Pkg, g.Type)
}

// recvType returns the receiver type of a method selection, or nil.
func recvType(p *Pass, sel *ast.SelectorExpr) types.Type {
	if s, ok := p.Info.Selections[sel]; ok {
		return s.Recv()
	}
	return p.TypeOf(sel.X)
}
