package core

import (
	"errors"
	"reflect"
	"testing"

	"spgcmp/internal/platform"
	"spgcmp/internal/randspg"
	"spgcmp/internal/spg"
	"spgcmp/internal/streamit"
)

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
	key := firstExpansionKey{maxStates: h.MaxStates, maxChunk: 1 * pl.MaxSpeed()}
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
			if i > 0 && firstExpansionMemoFor(family).lookup(key) == nil {
				t.Fatalf("%s: no family verdict recorded before CCR %g", name, ccr)
			}
			_, sharedErr := h.Solve(shared)

			g, err := a.GraphWithCCR(ccr)
			if err != nil {
				t.Fatal(err)
			}
			fresh := NewInstance(g, pl, 1)
			_, freshErr := h.Solve(fresh)
			if !errors.Is(freshErr, ErrBudget) || firstExpansionMemoFor(fresh.Analysis).lookup(key) == nil {
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

// TestDPA1DLaterFailureNotSharedByFamily: a budget failure past the first
// expansion depends on the member's cut volumes, so it stays in that
// member's memo. A communication-light sibling runs out of budget; a
// communication-heavy one, whose cuts prune every later expansion, must
// still get its own (non-budget) answer — exactly a fresh analysis's.
func TestDPA1DLaterFailureNotSharedByFamily(t *testing.T) {
	g, err := randspg.Generate(randspg.Params{N: 30, Elevation: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pl := platform.XScale(4, 4)
	const T = 0.2
	maxChunk := T * pl.MaxSpeed()

	// The state budget admits exactly the first expansion's states.
	probe, err := spg.NewDownsetSpace(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	probe.BeginRun()
	if _, err := probe.ExpansionsInRun(0, maxChunk); err != nil {
		t.Fatal(err)
	}
	firstStates := probe.RunCount()

	for _, h := range []*DPA1D{
		{MaxStates: firstStates, MaxTransitions: 24_000_000}, // state limit in a later expansion
		{MaxStates: 150_000, MaxTransitions: 2_000},          // transition budget
	} {
		family := spg.NewAnalysis(g)
		light := family.ScaleToCCR(10)
		heavy := family.ScaleToCCR(0.01)
		_, lightErr := h.Solve(Instance{Graph: light.Graph(), Platform: pl, Period: T, Analysis: light})
		if !errors.Is(lightErr, ErrBudget) {
			t.Fatalf("%+v: light member error %v, want a budget failure", *h, lightErr)
		}
		key := firstExpansionKey{maxStates: h.MaxStates, maxChunk: maxChunk}
		if err := firstExpansionMemoFor(family).lookup(key); err != nil {
			t.Fatalf("%+v: later failure recorded family-wide: %v", *h, err)
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
