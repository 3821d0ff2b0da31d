package spg

import "testing"

// CheckWalk exposes the differential check against the reference walk to
// the external test package, whose StreamIt and random-SPG panels cannot be
// imported from package spg itself.
func CheckWalk(tb testing.TB, g *Graph, seed int64, budget int) { checkWalk(tb, g, seed, budget) }
