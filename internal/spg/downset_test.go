package spg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// bruteDownsets enumerates predecessor-closed subsets by brute force (for
// graphs of up to ~16 stages).
func bruteDownsets(g *Graph) int {
	n := g.N()
	count := 0
	r := NewReachability(g)
	for mask := 0; mask < 1<<uint(n); mask++ {
		ok := true
		for i := 0; i < n && ok; i++ {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				if r.Reaches(j, i) && mask&(1<<uint(j)) == 0 {
					ok = false
					break
				}
			}
		}
		if ok {
			count++
		}
	}
	return count
}

func TestDownsetCountMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomSPG(rng, 2+rng.Intn(10))
		ds, err := NewDownsetSpace(g, 1<<20)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		all, err := ds.AllDownsets()
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		want := bruteDownsets(g)
		if len(all) != want {
			t.Logf("seed %d: enumerated %d downsets, brute force %d", seed, len(all), want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDownsetMembersArePredecessorClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(11)) //nolint:gosec
	g := randomSPG(rng, 18)
	ds, err := NewDownsetSpace(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	all, err := ds.AllDownsets()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range all {
		for _, s := range ds.Members(id) {
			for _, p := range g.Predecessors(s) {
				if !ds.Contains(id, p) {
					t.Fatalf("downset %d contains %d but not its predecessor %d", id, s, p)
				}
			}
		}
	}
}

func TestDownsetChainExtremes(t *testing.T) {
	g := mustChain(t, 6)
	ds, err := NewDownsetSpace(g, 1000)
	if err != nil {
		t.Fatal(err)
	}
	all, err := ds.AllDownsets()
	if err != nil {
		t.Fatal(err)
	}
	// A chain of 6 stages has exactly 7 downsets (prefixes).
	if len(all) != 7 {
		t.Fatalf("chain downsets = %d, want 7", len(all))
	}
	if ds.Size(ds.EmptyID()) != 0 || ds.Size(ds.FullID()) != 6 {
		t.Fatalf("extreme sizes wrong: %d %d", ds.Size(ds.EmptyID()), ds.Size(ds.FullID()))
	}
}

func TestDownsetCout(t *testing.T) {
	// Chain 1 -2-> 2 -3-> 3: the downset {1} has Cout 2, {1,2} has Cout 3.
	g, err := Chain([]float64{1, 1, 1}, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDownsetSpace(g, 100)
	if err != nil {
		t.Fatal(err)
	}
	exps, err := ds.Expansions(ds.EmptyID(), 10)
	if err != nil {
		t.Fatal(err)
	}
	byCout := map[int]float64{}
	for _, ex := range exps {
		byCout[ds.Size(ex.To)] = ds.Cout(ex.To)
	}
	if byCout[1] != 2 {
		t.Errorf("Cout({S1}) = %g, want 2", byCout[1])
	}
	if byCout[2] != 3 {
		t.Errorf("Cout({S1,S2}) = %g, want 3", byCout[2])
	}
	if byCout[3] != 0 {
		t.Errorf("Cout(full) = %g, want 0", byCout[3])
	}
}

// TestCutProbeMatchesCout: a cut evaluated from a downset's count vector,
// on any member of the scale family, is bit-identical to the cut that
// member's space computes, and to an independent sum over the downset's
// members in edge order.
func TestCutProbeMatchesCout(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := NewAnalysis(randomSPG(rng, 2+rng.Intn(14)))
		for _, an := range []*Analysis{base, base.ScaleToCCR(0.3), base.ScaleToCCR(7)} {
			ds, err := an.DownsetSpace(1 << 20)
			if err != nil {
				t.Fatal(err)
			}
			ds.BeginRun()
			if _, err := ds.ExpansionsInRun(0, math.Inf(1)); err != nil {
				t.Fatal(err)
			}
			probe := an.CutProbe()
			var counts []uint8
			for k := 0; k < ds.RunCount(); k++ {
				counts = ds.AppendCountsRun(counts[:0], k)
				in := map[int]bool{}
				for _, s := range ds.Members(ds.RunID(k)) {
					in[s] = true
				}
				var want float64
				for _, e := range an.Graph().Edges {
					if in[e.Src] && !in[e.Dst] {
						want += e.Volume
					}
				}
				got, cout := probe.Cut(counts), ds.CoutRun(k)
				if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(cout) != math.Float64bits(want) {
					t.Logf("seed %d run index %d: probe %g, Cout %g, reference %g", seed, k, got, cout, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestExpansionsRespectWorkBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomSPG(rng, 12)
	for i := range g.Stages {
		g.Stages[i].Weight = 1
	}
	ds, err := NewDownsetSpace(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	exps, err := ds.Expansions(ds.EmptyID(), 2.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range exps {
		if ex.ChunkWork > 2.5 {
			t.Fatalf("chunk work %g exceeds budget", ex.ChunkWork)
		}
		if ds.Size(ex.To) > 2 {
			t.Fatalf("chunk of %d unit stages exceeds budget 2.5", ds.Size(ex.To))
		}
	}
	// With unit weights and budget 2.5, chunk sizes are 1 or 2.
	if len(exps) == 0 {
		t.Fatal("no expansions found")
	}
}

func TestExpansionChunkWorkMatchesDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomSPG(rng, 14)
	ds, err := NewDownsetSpace(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	exps, err := ds.Expansions(ds.EmptyID(), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range exps[:min(len(exps), 200)] {
		var w float64
		for _, s := range ds.Diff(ds.EmptyID(), ex.To) {
			w += g.Stages[s].Weight
		}
		if math.Abs(w-ex.ChunkWork) > 1e-9 {
			t.Fatalf("chunk work %g but members weigh %g", ex.ChunkWork, w)
		}
	}
}

func TestStateLimit(t *testing.T) {
	// A wide fork-join has exponentially many downsets; a tiny budget must
	// trip ErrStateLimit.
	middle := make([]float64, 14)
	vols := make([]float64, 14)
	for i := range middle {
		middle[i] = 1
		vols[i] = 1
	}
	g, err := ForkJoin(0, 0, middle, vols, vols)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDownsetSpace(g, 50)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.AllDownsets(); err != ErrStateLimit {
		t.Fatalf("AllDownsets error = %v, want ErrStateLimit", err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
