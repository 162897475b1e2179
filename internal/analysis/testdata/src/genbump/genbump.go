// Fixture for the genbump analyzer: D mirrors olap.Deployment's shape —
// a mutex-guarded routing map fingerprinted by an atomic generation.
package genbump

import (
	"sync"
	"sync/atomic"
)

type D struct {
	mu        sync.Mutex
	gen       atomic.Int64
	placement map[string]int
	owner     map[int]int
	hooks     []func(int64)
}

func (d *D) bumpGen() { d.gen.Add(1) }

func (d *D) emitLocked() {
	seq := d.gen.Add(1)
	for _, h := range d.hooks {
		h(seq)
	}
}

// NewD constructs before the value escapes: no lock or bump required.
func NewD() *D {
	d := &D{}
	d.placement = map[string]int{}
	return d
}

// Good: mutation and bump share one critical section.
func (d *D) Good(k string, v int) {
	d.mu.Lock()
	d.placement[k] = v
	d.bumpGen()
	d.mu.Unlock()
}

// GoodDefer: defer-unlock extends the region to the function end.
func (d *D) GoodDefer(k string, v int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.placement[k] = v
	d.bumpGen()
}

// GoodEmit: the hook emitter is itself a bump.
func (d *D) GoodEmit(k string, v int) {
	d.mu.Lock()
	d.placement[k] = v
	d.emitLocked()
	d.mu.Unlock()
}

// GoodEarlyReturn: an Unlock in a terminating branch must not make the
// remainder of the function look unlocked (regression for the hole
// computation in lockregion.go).
func (d *D) GoodEarlyReturn(k string, v int) {
	d.mu.Lock()
	if v < 0 {
		d.mu.Unlock()
		return
	}
	d.placement[k] = v
	d.bumpGen()
	d.mu.Unlock()
}

// GoodGenAdd: bumping through the configured atomic field directly.
func (d *D) GoodGenAdd(k string, v int) {
	d.mu.Lock()
	d.placement[k] = v
	d.gen.Add(1)
	d.mu.Unlock()
}

// applyLocked runs with the caller holding d.mu: the caller's critical
// section is accountable, not this helper.
func (d *D) applyLocked(k string, v int) {
	d.placement[k] = v
}

func (d *D) NoBump(k string, v int) {
	d.mu.Lock()
	d.placement[k] = v // want `D\.placement mutated without a generation bump`
	d.mu.Unlock()
}

func (d *D) NoLock(k string, v int) {
	d.placement[k] = v // want `D\.placement mutated outside the mu critical section`
}

func (d *D) DeleteNoBump(k string) {
	d.mu.Lock()
	delete(d.placement, k) // want `D\.placement mutated without a generation bump`
	d.mu.Unlock()
}

func (d *D) OwnerNoBump(p, srv int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.owner[p] = srv // want `D\.owner mutated without a generation bump`
}

func (d *D) EmitOutside() {
	d.mu.Lock()
	d.mu.Unlock()
	d.emitLocked() // want `mutation-hook emission outside`
}

// NoBumpAfterEarlyReturn: the mutation after the hole still runs locked
// and still needs its bump.
func (d *D) NoBumpAfterEarlyReturn(k string, v int) {
	d.mu.Lock()
	if v < 0 {
		d.mu.Unlock()
		return
	}
	d.placement[k] = v // want `D\.placement mutated without a generation bump`
	d.mu.Unlock()
}

// NoBumpAfterNestedExit: the early-exit branch ends in an if/else whose
// arms both return, so the mutation after it still runs locked and still
// needs its bump.
func (d *D) NoBumpAfterNestedExit(k string, v int) {
	d.mu.Lock()
	if v < 0 {
		d.mu.Unlock()
		if k == "" {
			return
		} else {
			panic(k)
		}
	}
	d.placement[k] = v // want `D\.placement mutated without a generation bump`
	d.mu.Unlock()
}
