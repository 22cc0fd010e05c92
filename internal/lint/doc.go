// Package lint is ziplint's analysis framework: a small, dependency-free
// equivalent of golang.org/x/tools/go/analysis, sized to what ZipLine's
// invariant checkers need.
//
// ZipLine's performance claims rest on source-level invariants that PRs
// 3–5 established by hand: 0 allocs/op on the dataplane and pooled-Reset
// hot paths, byte-stable simulation reports for any worker count, and
// stream Close errors that always reach an exit code. The analyzers in
// this package enforce those invariants mechanically so that future
// churn (batched kernels, event-loop rewrites, the ziphttp gateway)
// cannot silently regress them.
//
// The framework mirrors go/analysis deliberately — Analyzer, Pass,
// Diagnostic — so the checkers port to the real framework unchanged if
// x/tools ever becomes a dependency. Two drivers exist: a standalone
// loader backed by `go list -export` (load.go) and the `go vet
// -vettool` unit-checker protocol (unit.go).
//
// # Suppression
//
// A diagnostic is suppressed by a comment on the flagged line or the
// line above it:
//
//	//ziplint:allow <analyzer> <reason>
//
// The reason is mandatory by convention (it is the audit trail for why
// the invariant does not apply — e.g. a cold validation branch inside a
// //zipline:noalloc function) but not enforced syntactically.
package lint
