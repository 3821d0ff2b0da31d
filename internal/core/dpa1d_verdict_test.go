package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"spgcmp/internal/platform"
	"spgcmp/internal/randspg"
	"spgcmp/internal/spg"
	"spgcmp/internal/streamit"
)

// verdictsUnder returns a snapshot of the family verdicts recorded under key.
func verdictsUnder(an *spg.Analysis, key verdictKey) []*budgetVerdict {
	vm := verdictMemoFor(an)
	vm.mu.Lock()
	defer vm.mu.Unlock()
	return append([]*budgetVerdict(nil), vm.m[key]...)
}

// dpa1dOutcome renders a DPA1D result for exact comparison: the error text,
// or the energy's bits and the stage-to-core allocation.
func dpa1dOutcome(sol *Solution, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("energy %x alloc %v", math.Float64bits(sol.Energy()), sol.Mapping.Alloc)
}

// solveFresh runs h on a clone of member's graph with its own analysis, so
// no verdict of any sibling can reach it.
func solveFresh(h *DPA1D, member *spg.Analysis, pl *platform.Platform, T float64) string {
	return dpa1dOutcome(h.Solve(NewInstance(member.Graph().Clone(), pl, T)))
}

func solveMember(h *DPA1D, member *spg.Analysis, pl *platform.Platform, T float64) string {
	return dpa1dOutcome(h.Solve(Instance{Graph: member.Graph(), Platform: pl, Period: T, Analysis: member}))
}

// TestDPA1DFirstExpansionVerdictSharedByFamily: on every StreamIt family
// whose DPA1D runs out of states in the first expansion at T = 1 s, the CCR
// members replay the family's verdict, and each member's DPA1D error text
// and cell outcomes are exactly those of a member with its own fresh
// analysis (which burns the enumeration itself).
func TestDPA1DFirstExpansionVerdictSharedByFamily(t *testing.T) {
	if testing.Short() {
		t.Skip("burns five 150k-state enumerations per family")
	}
	pl := platform.XScale(4, 4)
	h := NewDPA1D()
	key := verdictKey{maxStates: h.MaxStates, maxChunk: 1 * pl.MaxSpeed()}
	firstExpansion := func(an *spg.Analysis) bool {
		v := verdictsUnder(an, key)
		return len(v) == 1 && v[0].failLayer == 1 && len(v[0].states) == 0
	}
	for _, name := range []string{"Beamformer", "ChannelVocoder", "Filterbank", "FMRadio", "Vocoder"} {
		a, err := streamit.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		base, err := a.BaseGraph()
		if err != nil {
			t.Fatal(err)
		}
		family := spg.NewAnalysis(base)
		for i, ccr := range []float64{a.CCR, 10, 1, 0.1} {
			member := family.ScaleToCCR(ccr)
			shared := Instance{Graph: member.Graph(), Platform: pl, Period: 1, Analysis: member}
			if i > 0 && !firstExpansion(family) {
				t.Fatalf("%s: no first-expansion verdict recorded before CCR %g", name, ccr)
			}
			_, sharedErr := h.Solve(shared)

			g, err := a.GraphWithCCR(ccr)
			if err != nil {
				t.Fatal(err)
			}
			fresh := NewInstance(g, pl, 1)
			_, freshErr := h.Solve(fresh)
			if !errors.Is(freshErr, ErrBudget) || !firstExpansion(fresh.Analysis) {
				t.Fatalf("%s CCR %g: fresh run did not fail in its first expansion: %v", name, ccr, freshErr)
			}
			if sharedErr == nil || sharedErr.Error() != freshErr.Error() {
				t.Fatalf("%s CCR %g: shared error %v, fresh %v", name, ccr, sharedErr, freshErr)
			}
			o := Options{KeepMappings: true}
			if got, want := SolveCell(shared, o), SolveCell(fresh, o); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s CCR %g: shared outcomes %+v, fresh %+v", name, ccr, got, want)
			}
		}
	}
}

// laterFailureGraph is a random SPG whose DPA1D runs at T = 0.2 s on a 4x4
// grid fail past the first expansion under the budgets of
// TestDPA1DLaterFailureSharedByCertificate, and whose communication-heavy
// CCR members are pruned by their cuts instead.
func laterFailureGraph(t *testing.T) (*spg.Graph, int) {
	t.Helper()
	g, err := randspg.Generate(randspg.Params{N: 30, Elevation: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A state budget admitting exactly the first expansion's states.
	probe, err := spg.NewDownsetSpace(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	probe.BeginRun()
	if _, err := probe.ExpansionsInRun(0, 0.2*platform.XScale(4, 4).MaxSpeed()); err != nil {
		t.Fatal(err)
	}
	return g, probe.RunCount()
}

// TestDPA1DLaterFailureSharedByCertificate: a budget failure past the first
// expansion is recorded for the family with the cut decisions the run made.
// A second communication-light sibling, whose cuts reproduce every decision,
// replays it — the same error a fresh analysis reaches by burning the
// enumeration itself. A communication-heavy sibling, whose cuts prune
// later expansions, fails the certificate and must still get its own
// (non-budget) answer — exactly a fresh analysis's.
func TestDPA1DLaterFailureSharedByCertificate(t *testing.T) {
	g, firstStates := laterFailureGraph(t)
	pl := platform.XScale(4, 4)
	const T = 0.2
	key := func(h *DPA1D) verdictKey { return verdictKey{maxStates: h.MaxStates, maxChunk: T * pl.MaxSpeed()} }

	for _, h := range []*DPA1D{
		{MaxStates: firstStates, MaxTransitions: 24_000_000}, // state limit in a later expansion
		{MaxStates: 150_000, MaxTransitions: 2_000},          // transition budget
	} {
		family := spg.NewAnalysis(g)
		light, light2 := family.ScaleToCCR(10), family.ScaleToCCR(20)
		heavy := family.ScaleToCCR(0.01)
		_, lightErr := h.Solve(Instance{Graph: light.Graph(), Platform: pl, Period: T, Analysis: light})
		if !errors.Is(lightErr, ErrBudget) {
			t.Fatalf("%+v: light member error %v, want a budget failure", *h, lightErr)
		}
		verdicts := verdictsUnder(family, key(h))
		if len(verdicts) != 1 || verdicts[0].failLayer < 2 || len(verdicts[0].states) == 0 {
			t.Fatalf("%+v: want one certified later-layer verdict, got %d", *h, len(verdicts))
		}

		evals := verdictMemoFor(family).evals.Load()
		got, want := solveMember(h, light2, pl, T), solveFresh(h, light2, pl, T)
		if got != want {
			t.Fatalf("%+v: second light member %s, fresh %s", *h, got, want)
		}
		if verdictMemoFor(family).evals.Load() == evals || len(verdictsUnder(family, key(h))) != 1 {
			t.Fatalf("%+v: second light member did not replay the family verdict", *h)
		}

		_, heavyErr := h.Solve(Instance{Graph: heavy.Graph(), Platform: pl, Period: T, Analysis: heavy})
		_, freshErr := h.Solve(NewInstance(heavy.Graph().Clone(), pl, T))
		if errors.Is(heavyErr, ErrBudget) || !errors.Is(heavyErr, ErrNoSolution) {
			t.Fatalf("%+v: heavy member error %v, want a plain infeasibility", *h, heavyErr)
		}
		if freshErr == nil || heavyErr.Error() != freshErr.Error() {
			t.Fatalf("%+v: heavy member error %v, fresh %v", *h, heavyErr, freshErr)
		}
	}
}

// TestDPA1DVerdictScope: a recorded later-layer verdict does not reach a
// sibling on a grid with fewer cores than its failure layer, one with a
// different transition budget, or one whose platform lets candidate
// energies go infinite (there a layer can expand states and still make no
// progress); each gets exactly a fresh analysis's answer.
func TestDPA1DVerdictScope(t *testing.T) {
	g, firstStates := laterFailureGraph(t)
	const T = 0.2
	pl := platform.XScale(4, 4)
	costlyLinks := platform.XScale(4, 4)
	costlyLinks.EnergyPerGB = math.Inf(1)
	for _, tc := range []struct {
		name        string
		rec, replay *DPA1D
		grid        *platform.Platform
	}{
		{"fewer cores", &DPA1D{MaxStates: firstStates, MaxTransitions: 24_000_000}, &DPA1D{MaxStates: firstStates, MaxTransitions: 24_000_000}, platform.XScale(1, 1)},
		{"other transition budget", &DPA1D{MaxStates: 150_000, MaxTransitions: 2_000}, &DPA1D{MaxStates: 150_000, MaxTransitions: 24_000_000}, pl},
		{"infinite energy", &DPA1D{MaxStates: 150_000, MaxTransitions: 2_000}, &DPA1D{MaxStates: 150_000, MaxTransitions: 2_000}, costlyLinks},
	} {
		family := spg.NewAnalysis(g)
		light := family.ScaleToCCR(10)
		if _, err := tc.rec.Solve(Instance{Graph: light.Graph(), Platform: pl, Period: T, Analysis: light}); !errors.Is(err, ErrBudget) {
			t.Fatalf("%s: recording run %v, want a budget failure", tc.name, err)
		}
		key := verdictKey{maxStates: tc.rec.MaxStates, maxChunk: T * pl.MaxSpeed()}
		v := verdictsUnder(family, key)
		if len(v) != 1 || v[0].failLayer < 2 {
			t.Fatalf("%s: want one later-layer verdict, got %d", tc.name, len(v))
		}
		if tc.grid.NumCores() >= v[0].failLayer && tc.replay.MaxTransitions == tc.rec.MaxTransitions && tc.grid.EnergyPerGB == pl.EnergyPerGB {
			t.Fatalf("%s: verdict (layer %d) is in scope of the sibling run", tc.name, v[0].failLayer)
		}
		sibling := family.ScaleToCCR(20)
		got, want := solveMember(tc.replay, sibling, tc.grid, T), solveFresh(tc.replay, sibling, tc.grid, T)
		if got != want {
			t.Fatalf("%s: sibling %s, fresh %s", tc.name, got, want)
		}
		if want == dpa1dOutcome(nil, v[0].err) {
			t.Fatalf("%s: a fresh run repeats the verdict, so its scope goes untested", tc.name)
		}
	}
}

// TestDPA1DWarmSolveSkipsCertificates: once a member has checked the family
// verdicts for a configuration, a repeated Solve evaluates no certificate —
// whether the first one replayed a verdict or missed every certificate and
// ran (to a plain infeasibility, which no memo records).
func TestDPA1DWarmSolveSkipsCertificates(t *testing.T) {
	g, firstStates := laterFailureGraph(t)
	const T = 0.2
	pl := platform.XScale(4, 4)
	h := &DPA1D{MaxStates: firstStates, MaxTransitions: 24_000_000}
	family := spg.NewAnalysis(g)
	vm := verdictMemoFor(family)
	solveMember(h, family.ScaleToCCR(10), pl, T) // records the verdict
	for _, ccr := range []float64{20, 0.01} {    // replays; misses
		member := family.ScaleToCCR(ccr)
		before := vm.evals.Load()
		first := solveMember(h, member, pl, T)
		if vm.evals.Load() == before {
			t.Fatalf("CCR %g: first solve evaluated no certificate", ccr)
		}
		before = vm.evals.Load()
		if again := solveMember(h, member, pl, T); again != first {
			t.Fatalf("CCR %g: repeated solve %s, first %s", ccr, again, first)
		}
		if n := vm.evals.Load() - before; n != 0 {
			t.Fatalf("CCR %g: repeated solve made %d certificate evaluations", ccr, n)
		}
	}
}

// TestDPA1DVerdictOracle: for every StreamIt family at T in {1, 0.1, 0.01} s
// on 2x2, 4x4 and 6x6 grids, and a seeded randspg panel, every CCR member's
// DPA1D result on a shared family analysis — solved light-first and
// heavy-first, so verdicts flow both ways — is exactly the result of a fresh
// analysis: the same error text, or the same energy and allocation.
func TestDPA1DVerdictOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("burns every budget-failing DPA1D run of the StreamIt suite")
	}
	type family struct {
		name string
		base *spg.Graph
		ccrs []float64 // light (high CCR) first
	}
	var families []family
	for _, a := range streamit.Suite() {
		base, err := a.BaseGraph()
		if err != nil {
			t.Fatal(err)
		}
		families = append(families, family{a.Name, base, []float64{10, 1, 0.1, 0.01}})
	}
	for seed := int64(1); seed <= 6; seed++ {
		g, err := randspg.Generate(randspg.Params{N: 40, Elevation: int(seed%5) + 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		families = append(families, family{fmt.Sprintf("randspg-%d", seed), g, []float64{10, 1, 0.1}})
	}
	h := NewDPA1D()
	grids := []*platform.Platform{platform.XScale(2, 2), platform.XScale(4, 4), platform.XScale(6, 6)}
	periods := []float64{1, 0.1, 0.01}

	var mu sync.Mutex
	var replays, misses int
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for _, f := range families {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			fresh := map[string]string{}
			for _, pl := range grids {
				for _, T := range periods {
					for _, ccr := range f.ccrs {
						k := fmt.Sprint(pl.NumCores(), T, ccr)
						fresh[k] = solveFresh(h, spg.NewAnalysis(f.base).ScaleToCCR(ccr), pl, T)
					}
				}
			}
			for _, heavyFirst := range []bool{false, true} {
				an := spg.NewAnalysis(f.base)
				vm := verdictMemoFor(an)
				for _, pl := range grids {
					for _, T := range periods {
						for i := range f.ccrs {
							ccr := f.ccrs[i]
							if heavyFirst {
								ccr = f.ccrs[len(f.ccrs)-1-i]
							}
							k := fmt.Sprint(pl.NumCores(), T, ccr)
							key := verdictKey{h.MaxStates, T * pl.MaxSpeed()}
							n, evals := len(verdictsUnder(an, key)), vm.evals.Load()
							got := solveMember(h, an.ScaleToCCR(ccr), pl, T)
							if got != fresh[k] {
								t.Errorf("%s %dx%d T=%g CCR %g heavyFirst=%v: shared %s, fresh %s",
									f.name, pl.P, pl.Q, T, ccr, heavyFirst, got, fresh[k])
							}
							checked := vm.evals.Load() > evals
							recorded := len(verdictsUnder(an, key)) > n
							mu.Lock()
							switch {
							case checked && !recorded && strings.Contains(got, ErrBudget.Error()):
								replays++
							case checked && got == "error: "+ErrNoSolution.Error():
								misses++
							}
							mu.Unlock()
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("%d replayed verdicts, %d certificate misses ending in plain infeasibility", replays, misses)
	if replays == 0 || misses == 0 {
		t.Fatalf("panel exercised %d replays and %d misses, want both", replays, misses)
	}
}

// TestDPA1DVerdictFootprintTracksHeap: recording FMRadio's T = 0.1 s
// verdict, a state-limit failure past the first expansion with a
// certificate of tens of thousands of states, grows Analysis.MemoryFootprint
// by at least the certificate's bytes and by within 25% of the heap the
// analysis really retains once the failed space is evicted.
func TestDPA1DVerdictFootprintTracksHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("burns a 150k-state enumeration")
	}
	a, err := streamit.ByName("FMRadio")
	if err != nil {
		t.Fatal(err)
	}
	g, err := a.GraphWithCCR(1)
	if err != nil {
		t.Fatal(err)
	}
	pl := platform.XScale(4, 4)
	const T = 0.1
	inst := NewInstance(g, pl, T)
	// Build what any solve of the workload builds first, so the deltas
	// below are DPA1D's own.
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	inst.Analysis.Levels()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	footBefore := inst.Analysis.MemoryFootprint()
	if _, err := NewDPA1D().Solve(inst); !errors.Is(err, ErrBudget) {
		t.Fatalf("FMRadio at T = %g s: %v, want a budget failure", T, err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grown := inst.Analysis.MemoryFootprint() - footBefore
	runtime.KeepAlive(inst)
	measured := int64(after.HeapAlloc) - int64(before.HeapAlloc)

	v := verdictsUnder(inst.Analysis, verdictKey{maxStates: NewDPA1D().MaxStates, maxChunk: T * pl.MaxSpeed()})
	if len(v) != 1 || v[0].failLayer < 2 {
		t.Fatalf("want one later-layer verdict, got %d", len(v))
	}
	cert := int64(len(v[0].states)) + int64(len(v[0].over))*8
	if grown < cert {
		t.Fatalf("MemoryFootprint grew %d bytes, less than the %d-byte certificate", grown, cert)
	}
	if ratio := float64(grown) / float64(measured); ratio < 0.75 || ratio > 1.25 {
		t.Fatalf("MemoryFootprint grew %d bytes, heap grew %d bytes (ratio %.2f)", grown, measured, ratio)
	}
	t.Logf("certificate %d bytes (layer %d); MemoryFootprint grew %d bytes, heap %d bytes", cert, v[0].failLayer, grown, measured)
}

// TestDPA1DVerdictConcurrentSiblings: CCR siblings solved at once on one
// family — recording, replaying and missing verdicts concurrently — each
// get exactly a fresh analysis's answer.
func TestDPA1DVerdictConcurrentSiblings(t *testing.T) {
	g, firstStates := laterFailureGraph(t)
	const T = 0.2
	pl := platform.XScale(4, 4)
	h := &DPA1D{MaxStates: firstStates, MaxTransitions: 24_000_000}
	ccrs := []float64{10, 20, 30, 0.01, 0.02}
	want := make([]string, len(ccrs))
	for i, ccr := range ccrs {
		want[i] = solveFresh(h, spg.NewAnalysis(g).ScaleToCCR(ccr), pl, T)
	}
	family := spg.NewAnalysis(g)
	var wg sync.WaitGroup
	for i, ccr := range ccrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := solveMember(h, family.ScaleToCCR(ccr), pl, T); got != want[i] {
				t.Errorf("CCR %g: %s, fresh %s", ccr, got, want[i])
			}
		}()
	}
	wg.Wait()
}
