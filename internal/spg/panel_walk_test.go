package spg_test

import (
	"testing"

	"spgcmp/internal/randspg"
	"spgcmp/internal/spg"
	"spgcmp/internal/streamit"
)

// TestDownsetWalkStreamItPanel runs the differential check against the
// reference walk on every StreamIt graph, at a budget that binds early, one
// that binds mid-lattice on the fat graphs, and one that rarely binds.
func TestDownsetWalkStreamItPanel(t *testing.T) {
	for _, a := range streamit.Suite() {
		g, err := a.Graph()
		if err != nil {
			t.Fatal(err)
		}
		for i, budget := range []int{60, 2_000, 20_000} {
			spg.CheckWalk(t, g, int64(a.Index*10+i), budget)
		}
	}
}

// TestDownsetWalkRandomPanel runs the differential check on seeded random
// SPGs of every elevation the random campaigns use.
func TestDownsetWalkRandomPanel(t *testing.T) {
	for elev := 1; elev <= 6; elev++ {
		for seed := int64(1); seed <= 3; seed++ {
			g, err := randspg.Generate(randspg.Params{N: 40, Elevation: elev, Seed: seed, CCR: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, budget := range []int{25, 5_000} {
				spg.CheckWalk(t, g, seed*100+int64(elev), budget)
			}
		}
	}
}
