// Package lint is spgcmp's static-analysis suite: five custom analyzers
// that machine-check the invariants every scaling PR has leaned on —
// deterministic iteration order, wire-codable structs, copy-on-return
// memos, mutex discipline, and context propagation. They are compiled into
// the cmd/spglint multichecker and run over ./... in CI; an unsuppressed
// finding fails the build.
//
// The five analyzers:
//
//   - detrange: flags `for range` over maps in internal/core, internal/spg
//     and internal/engine when the (nondeterministic) iteration order can
//     escape into float accumulation, slice appends, hashing, or wire
//     output. The sorted-keys idiom — append the keys to a slice, sort it,
//     iterate the slice — is recognized and exempt.
//
//   - wirecodec: every exported field of a struct reachable from the wire
//     seams (engine cell specs and wire results, mapping.WireMapping, the
//     service request/response types) must carry a json tag and must not be
//     func-, chan-, or unserializable-interface-typed. Wire roots are found
//     three ways: arguments to encoding/json calls, type names matching the
//     wire naming convention (Wire* prefix, *Request/*Response suffix), and
//     explicit `//spglint:wire` annotations.
//
//   - memoalias: functions in internal/core and internal/spg that return
//     values read out of memo/cache maps or memo struct fields (a field
//     whose name or comment says memo or cache) must return copies (the
//     copy-on-return rule): returning the looked-up slice or map — directly,
//     via an untouched local, through a field or element of a memo entry,
//     or via a same-package helper that returns one — aliases cache-private
//     state to the caller. Pointer-valued caches are exempt (sharing
//     internally-synchronized values is their point).
//
//   - lockguard: struct fields annotated `// guarded by mu` (where mu names
//     a sibling sync.Mutex/RWMutex field) must only be accessed in functions
//     that lexically lock that mutex on the same receiver first. Methods
//     whose name ends in "Locked" document a caller-held lock and are
//     exempt. This is an intra-package lexical heuristic, not an
//     inter-procedural proof — it catches the overwhelmingly common slip of
//     touching a guarded map from a new method without taking the lock.
//
//   - ctxflow: request-path code in internal/engine and internal/service
//     must propagate the incoming context.Context: minting
//     context.Background()/context.TODO(), or building requests with the
//     context-less http.NewRequest/http.Get/http.Post helpers, is flagged.
//     Deliberately detached lifecycles (probe loops, async campaign jobs)
//     carry suppression annotations explaining why.
//
// # Suppression
//
// A finding is suppressed by a directive comment on the flagged line or the
// line directly above it:
//
//	//spglint:ignore <analyzer>[,<analyzer>...] <reason>
//
// The analyzer list may be * to match any analyzer. The reason is
// mandatory: a directive without one is itself reported (and cannot be
// suppressed). Suppressions are surfaced by `spglint -v` so deliberate
// exemptions stay auditable.
//
// # Implementation note
//
// The package deliberately mirrors the golang.org/x/tools/go/analysis API
// (Analyzer, Pass, Diagnostic) and its analysistest golden-fixture harness
// (internal/lint/linttest), but is built on the standard library alone:
// packages are loaded with `go list -export -deps -json` and type-checked
// against compiler export data via go/importer, so the suite needs no
// dependencies beyond the Go toolchain that builds the repo.
package lint
