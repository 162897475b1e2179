// Package analysis is repolint's analyzer framework: a stdlib-only subset
// of golang.org/x/tools/go/analysis (which this container does not have)
// hosting the project-specific analyzers that machine-check the repo's
// concurrency and cache-coherence invariants.
//
// The invariants were established by earlier PRs as prose in DESIGN.md and
// enforced, until now, only by differential tests and -race runs:
//
//   - genbump: every routing/segment mutation on a Deployment bumps the
//     generation counter inside the same critical section, and mutation-hook
//     emission stays under the lock (PR 5/6 cache + view coherence).
//   - lockscope: no channel operation, query execution, or deep-store I/O
//     while s.mu/d.mu is held — segment bytes are obtained outside the lock
//     (PR 2/8 compaction and rebalance discipline).
//   - sentinelerr: package sentinel Err* values are matched with errors.Is,
//     never ==/!=, so wrapped errors keep driving retry/failover (PR 3/8).
//   - ctxflow: library packages never mint context.Background()/TODO(); the
//     caller's context threads through every blocking path (PR 1).
//   - statscopy: responses handed out from cache/view/singleflight paths are
//     per-caller copies — the PR 5 shared-ExecStats race class.
//   - iterclose: an iterator obtained from an opening call is closed on
//     every path out of the function, or handed on (PR 10).
//
// Each analyzer is driven by the facts layer in config.go, which names the
// guarded types, mutex fields, sentinel conventions and blocking calls; a
// new subsystem opts in by appending one entry there.
//
// genbump, lockscope and iterclose share one region engine (lockregion.go):
// it walks a body's statement lists, opens a region where the analyzer sees
// an open (a Lock, an iterator-typed assignment), ends it at a close at the
// same depth, punches a hole for a close inside a terminating nested branch
// and holds it to the end of the body for a deferred close. One rule,
// terminates, decides whether a branch leaves; it sees through blocks and
// if/else.
//
// Findings are suppressed line-by-line with a justification:
//
//	//lint:ignore lockscope segment bytes are metadata-only here (see X)
//
// The comment must name the analyzer and carry a non-empty justification;
// it covers diagnostics on the same line and the line below. The driver is
// cmd/repolint, a vet tool that also covers test files
// (go vet -vettool=$(go env GOPATH)/bin/repolint ./...).
package analysis
