// Package memoalias exercises the memoalias analyzer: copy-on-return for
// values read out of memo/cache maps.
package memoalias

import "sort"

type result struct {
	Chunks [][]int
	Score  float64
}

type solverMemo struct {
	sol     map[string][][]int
	results map[string]result
	scores  map[string]float64
	ptrs    map[string]*result
}

// direct returns the cached slice itself.
func (m *solverMemo) direct(key string) [][]int {
	return m.sol[key] // want `returns m.sol\[key\] straight out of a memo/cache map`
}

// viaLocal leaks the cached slice through an untouched local.
func (m *solverMemo) viaLocal(key string) ([][]int, bool) {
	chunks, ok := m.sol[key]
	if !ok {
		return nil, false
	}
	return chunks, true // want `returns chunks, read from a memo/cache map and never copied`
}

// copied passes the value through a clone helper: the blessed pattern.
func (m *solverMemo) copied(key string) ([][]int, bool) {
	chunks, ok := m.sol[key]
	if !ok {
		return nil, false
	}
	return copyChunks(chunks), true
}

// rebound overwrites the local with a fresh copy before returning it.
func (m *solverMemo) rebound(key string) []int {
	flat, ok := m.flatCache()[key]
	_ = ok
	flat = append([]int(nil), flat...)
	return flat
}

func (m *solverMemo) flatCache() map[string][]int { return nil }

// structValue returns a struct containing a slice field: still aliasing.
func (m *solverMemo) structValue(key string) result {
	return m.results[key] // want `returns m.results\[key\] straight out of a memo/cache map`
}

// scalar values copy on return by definition.
func (m *solverMemo) scalar(key string) float64 {
	return m.scores[key]
}

// pointer caches share deliberately (internally synchronized values).
func (m *solverMemo) pointer(key string) *result {
	return m.ptrs[key]
}

// plainMap is not memo-like: no finding even though the value aliases.
type index struct {
	children map[string][]string
}

func (ix *index) kids(key string) []string {
	return ix.children[key]
}

// sortedCopyKeys shows a memo map participating in ordinary, non-returning
// reads without findings.
func (m *solverMemo) keys() []string {
	out := make([]string, 0, len(m.scores))
	for k := range m.scores {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// suppressed demonstrates //spglint:ignore on the return line.
func (m *solverMemo) suppressed(key string) [][]int {
	return m.sol[key] //spglint:ignore memoalias fixture: caller is package-internal and treats the slice as read-only
}

// lattice mirrors DownsetSpace's expansion memo: a struct-field memo (the
// field comment names it), an internal helper handing out memo entries to
// same-package callers, and the exported accessors built on it.
type expansion struct {
	to   int
	work float64
}

type expEntry struct {
	maxWork float64
	exps    []expansion
}

type lattice struct {
	// exps memoizes enumerations per source state.
	exps  []expEntry
	plain [][]int
}

// ensureLocked returns the memoized entry itself; its callers must copy.
func (l *lattice) ensureLocked(id int) expEntry {
	return l.exps[id] //spglint:ignore memoalias fixture: internal helper, its callers are checked through the call
}

// expansionsLeak is the shape memoalias once missed: when the budget
// matches, the memoized slice itself is handed out.
func (l *lattice) expansionsLeak(id int, maxWork float64) []expansion {
	entry := l.ensureLocked(id)
	if entry.maxWork == maxWork {
		return entry.exps // want `returns entry.exps, which holds memo/cache state`
	}
	var out []expansion
	for _, ex := range entry.exps {
		if ex.work <= maxWork {
			out = append(out, ex)
		}
	}
	return out
}

// expansionsCopy copies out of the entry: blessed.
func (l *lattice) expansionsCopy(id int) []expansion {
	entry := l.ensureLocked(id)
	return append([]expansion(nil), entry.exps...)
}

// entryExps reaches the memo slice through the field directly.
func (l *lattice) entryExps(id int) []expansion {
	return l.exps[id].exps // want `returns l.exps\[id\].exps, which holds memo/cache state`
}

// row reads a field nobody marked as a memo: no finding.
func (l *lattice) row(i int) []int {
	return l.plain[i]
}

// verdictMemo mirrors DPA1D's family verdict memo: pointer entries, each
// holding a certificate slice.
type verdict struct {
	layer  int
	states []uint8
	err    error
}

type verdictMemo struct {
	m map[string][]*verdict
}

// all hands out the memo's verdict list.
func (vm *verdictMemo) all(key string) []*verdict {
	return vm.m[key] // want `returns vm.m\[key\] straight out of a memo/cache map`
}

// certificate hands out a memoized verdict's certificate.
func (vm *verdictMemo) certificate(key string) []uint8 {
	for _, v := range vm.m[key] {
		if v.layer > 1 {
			return v.states // want `returns v.states, which holds memo/cache state`
		}
	}
	return nil
}

// replay returns only the verdict's error value: no finding.
func (vm *verdictMemo) replay(key string, applies func(*verdict) bool) error {
	verdicts := vm.m[key]
	for _, v := range verdicts {
		if applies(v) {
			return v.err
		}
	}
	return nil
}

// first shares a verdict pointer deliberately: exempt like any pointer.
func (vm *verdictMemo) first(key string) *verdict {
	return vm.m[key][0]
}

// firstCertificate reaches the certificate through a helper returning a
// memoized verdict pointer.
func (vm *verdictMemo) firstCertificate(key string) []uint8 {
	v := vm.first(key)
	return v.states // want `returns v.states, which holds memo/cache state`
}

// certificateCopy copies the certificate out: blessed.
func (vm *verdictMemo) certificateCopy(key string) []uint8 {
	v := vm.m[key][0]
	return append([]uint8(nil), v.states...)
}

func copyChunks(chunks [][]int) [][]int {
	out := make([][]int, len(chunks))
	for i, c := range chunks {
		out[i] = append([]int(nil), c...)
	}
	return out
}
