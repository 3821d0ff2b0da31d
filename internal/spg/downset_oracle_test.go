package spg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// checkWalk drives the successor-edge core and the reference walk (refCore)
// through one identical, seeded history and fails tb at the first
// divergence. The history covers the ways a DPA1D run meets a space:
//
//   - a fresh core (run 0) and the same core warmed by earlier runs;
//   - runs alternating between the family base's view and a ScaleToCCR
//     sibling's view over the shared core;
//   - descending maxWork levels within a run, so later levels re-filter
//     enumerations cached at larger budgets;
//   - DP-order expansion of run indices until the state budget refuses a
//     charge, which then ends the run.
//
// It compares every ExpansionsInRun list (order, To, ChunkWork bits) and
// error, RunCount after each call, cut volumes through the sibling view, the
// RunID sequence of each run, global Expansions, and a closing AllDownsets.
func checkWalk(tb testing.TB, g *Graph, seed int64, budget int) {
	tb.Helper()
	if err := checkWalkErr(g, seed, budget); err != nil {
		tb.Fatalf("seed %d, budget %d: %v", seed, budget, err)
	}
}

func checkWalkErr(g *Graph, seed int64, budget int) error {
	ref, refErr := newRefCore(g, budget)
	an := NewAnalysis(g)
	base, err := an.DownsetSpace(budget)
	if (err == nil) != (refErr == nil) {
		return fmt.Errorf("construction: %v, reference %v", err, refErr)
	}
	if err != nil {
		if err.Error() != refErr.Error() {
			return fmt.Errorf("construction error %q, reference %q", err, refErr)
		}
		return nil
	}
	sibling, err := an.ScaleToCCR(CCR(g) * 3.5).DownsetSpace(budget)
	if err != nil {
		return err
	}
	if sibling.core != base.core {
		return errors.New("ScaleToCCR sibling does not share the lattice core")
	}

	var total float64
	for _, s := range g.Stages {
		total += s.Weight
	}
	rng := rand.New(rand.NewSource(seed))
	runs := 2 + rng.Intn(3)
	for run := 0; run < runs; run++ {
		view := base
		if run%2 == 1 {
			view = sibling
		}
		if err := checkRun(view, ref, rng, total); err != nil {
			return fmt.Errorf("run %d: %w", run, err)
		}
	}

	// Global-id entry points on the warmed core, under one more epoch.
	base.BeginRun()
	ref.BeginRun()
	if got, want := base.NumStates(), len(ref.size); got != want {
		return fmt.Errorf("NumStates %d, reference %d", got, want)
	}
	for i := 0; i < 4; i++ {
		id := rng.Intn(base.NumStates())
		mw := total * rng.Float64()
		got, gotErr := base.Expansions(id, mw)
		want, wantErr := ref.Expansions(id, mw)
		if err := sameExpansions(got, gotErr, want, wantErr); err != nil {
			return fmt.Errorf("Expansions(%d, %g): %w", id, mw, err)
		}
		if gotErr != nil {
			break
		}
	}
	base.BeginRun()
	ref.BeginRun()
	got, gotErr := base.AllDownsets()
	want, wantErr := ref.AllDownsets()
	if !errors.Is(gotErr, wantErr) || (gotErr == nil) != (wantErr == nil) {
		return fmt.Errorf("AllDownsets error %v, reference %v", gotErr, wantErr)
	}
	if len(got) != len(want) {
		return fmt.Errorf("AllDownsets found %d states, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("AllDownsets[%d] = %d, reference %d", i, got[i], want[i])
		}
	}
	return nil
}

// checkRun opens one epoch on view and ref and expands run indices in DP
// order at one to three descending work budgets.
func checkRun(view *DownsetSpace, ref *refCore, rng *rand.Rand, total float64) error {
	view.LockRun()
	defer view.UnlockRun()
	view.BeginRun()
	ref.BeginRun()
	maxWork := total * (0.15 + rng.Float64())
	levels := 1 + rng.Intn(3)
	calls := 8 + rng.Intn(120)
	for l := 0; l < levels; l++ {
		for k := 0; k < view.RunCount() && k < calls; k++ {
			got, gotErr := view.ExpansionsInRun(k, maxWork)
			want, wantErr := ref.ExpansionsInRun(k, maxWork)
			if err := sameExpansions(got, gotErr, want, wantErr); err != nil {
				return fmt.Errorf("ExpansionsInRun(%d, %g): %w", k, maxWork, err)
			}
			if got, want := view.RunCount(), len(ref.runIDs); got != want {
				return fmt.Errorf("RunCount after ExpansionsInRun(%d, %g) = %d, reference %d", k, maxWork, got, want)
			}
			if gotErr != nil {
				return sameRunIDs(view, ref)
			}
			gotCut, wantCut := view.CoutRun(k), ref.cout(view.g, ref.runIDs[k])
			if math.Float64bits(gotCut) != math.Float64bits(wantCut) {
				return fmt.Errorf("CoutRun(%d) = %g, reference %g", k, gotCut, wantCut)
			}
		}
		maxWork *= 0.3 + 0.6*rng.Float64()
	}
	return sameRunIDs(view, ref)
}

func sameRunIDs(view *DownsetSpace, ref *refCore) error {
	for k := range ref.runIDs {
		if got := view.RunID(k); got != ref.runIDs[k] {
			return fmt.Errorf("RunID(%d) = %d, reference %d", k, got, ref.runIDs[k])
		}
	}
	return nil
}

func sameExpansions(got []Expansion, gotErr error, want []Expansion, wantErr error) error {
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		return fmt.Errorf("error %v, reference %v", gotErr, wantErr)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d expansions, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i].To != want[i].To || math.Float64bits(got[i].ChunkWork) != math.Float64bits(want[i].ChunkWork) {
			return fmt.Errorf("expansion %d = %+v, reference %+v", i, got[i], want[i])
		}
	}
	return nil
}

// TestDownsetWalkMatchesReference runs the differential check over seeded
// random SPGs at state budgets from "fails while constructing" to "never
// binds".
func TestDownsetWalkMatchesReference(t *testing.T) {
	budgets := []int{1, 2, 3, 7, 40, 300, 5000}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomSPG(rng, 4+rng.Intn(36))
		checkWalk(t, g, seed, budgets[int(seed)%len(budgets)])
	}
}

// FuzzDownsetWalk drives the differential check with fuzzed graphs, budgets
// and histories. The seed corpus lives under testdata/fuzz/FuzzDownsetWalk.
func FuzzDownsetWalk(f *testing.F) {
	f.Add(int64(1), uint16(12), uint16(50))
	f.Fuzz(func(t *testing.T, seed int64, n, budget uint16) {
		rng := rand.New(rand.NewSource(seed))
		g := randomSPG(rng, 2+int(n%48))
		checkWalk(t, g, seed, 1+int(budget%4000))
	})
}

// TestExpansionsCopyOnReturn: Expansions hands the caller its own slice, so
// writing to it never reaches the memoized enumeration that later queries
// (at the same or a smaller budget) replay.
func TestExpansionsCopyOnReturn(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomSPG(rng, 16)
	ds, err := NewDownsetSpace(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	first, err := ds.Expansions(ds.EmptyID(), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("no expansions")
	}
	want := append([]Expansion(nil), first...)
	for i := range first {
		first[i] = Expansion{To: -1, ChunkWork: -1}
	}
	for _, mw := range []float64{math.Inf(1), math.Inf(1)} {
		again, err := ds.Expansions(ds.EmptyID(), mw)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameExpansions(again, nil, want, nil); err != nil {
			t.Fatalf("after mutating a returned slice: %v", err)
		}
		again[0].To = -2
	}
}

// TestDownsetEpochWrap: run and DFS stamps are int32 and wrap by sweeping
// every stamp back to "never". A core pushed to the wrap point, with states
// still carrying stamps from epoch 1, must keep answering exactly like the
// reference, whose counters never wrap.
func TestDownsetEpochWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomSPG(rng, 24)
	ds, err := NewDownsetSpace(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefCore(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, s := range g.Stages {
		total += s.Weight
	}
	step := func(k int, maxWork float64) {
		t.Helper()
		got, gotErr := ds.ExpansionsInRun(k, maxWork)
		want, wantErr := ref.ExpansionsInRun(k, maxWork)
		if err := sameExpansions(got, gotErr, want, wantErr); err != nil {
			t.Fatalf("ExpansionsInRun(%d, %g): %v", k, maxWork, err)
		}
		if got, want := ds.RunCount(), len(ref.runIDs); got != want {
			t.Fatalf("RunCount after ExpansionsInRun(%d) = %d, reference %d", k, got, want)
		}
	}
	// Stamp the whole lattice with run and DFS epoch 1, then jump to the
	// wrap point: the next run and the second walk after it wrap.
	step(0, total)
	ds.core.epoch = math.MaxInt32 - 1
	ds.core.dfsEpoch = math.MaxInt32 - 1
	for run := 0; run < 3; run++ {
		ds.BeginRun()
		ref.BeginRun()
		for k := 0; k < ds.RunCount() && k < 40; k++ {
			step(k, total/3)
		}
	}
}
