package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"spgcmp/internal/mapping"
	"spgcmp/internal/platform"
	"spgcmp/internal/spg"
)

// DPA1D configures the CMP as a uni-directional uni-line of r = p*q cores
// (embedded as a snake, Section 5.4) and computes the optimal 1D solution
// with the dynamic programming algorithm of Theorem 1: admissible subgraphs
// (downsets) are split into consecutive chunks, one per processor, subject to
// the cut bandwidth constraint Cout(G')/BW <= T. For a linear chain the
// result is optimal even among 2D mappings, since a chain cannot exploit the
// discarded links; for graphs of large elevation the downset lattice explodes
// and the heuristic fails, exactly as reported in Section 6.2.
type DPA1D struct {
	// MaxStates caps the number of downsets interned before giving up.
	MaxStates int
	// MaxTransitions caps the total number of downset expansions explored.
	MaxTransitions int
}

// NewDPA1D returns the default configuration. The transition budget counts
// DP relaxations (per processor layer), so it scales with the core count;
// the state budget is what stops elevation blow-ups early.
func NewDPA1D() *DPA1D {
	return &DPA1D{MaxStates: 150_000, MaxTransitions: 24_000_000}
}

// Name implements Heuristic.
func (h *DPA1D) Name() string { return "DPA1D" }

// ErrBudget wraps ErrNoSolution for failures caused by state explosion
// rather than by infeasibility.
var ErrBudget = errors.New("state budget exhausted")

// budgetMemoKey identifies one DPA1D run's budget verdict: everything the
// run's exploration sequence — and therefore its budget failure point —
// depends on, besides the member's graph and volumes (the memo lives on the
// member): the period (chunk cap and link capacity scale with it), both
// budgets, the chain length, the bandwidth and the speed ladder (chunk-
// energy finiteness gates which states later layers expand). Energy
// magnitudes never influence which states are touched, so dynamic powers
// and leakage stay out of the key.
type budgetMemoKey struct {
	T                         float64
	maxStates, maxTransitions int
	cores                     int
	bw                        float64
	ladder                    string
}

// solutionMemoKey identifies one DPA1D run's optimal chunk sequence. The
// budget key pins everything the exploration depends on; the chunk sequence
// additionally depends on the platform's energy model — chunk energies
// (dynamic powers, leakage) and the communication energy rate steer the DP's
// argmin even when the explored state set is identical — so the energy
// fingerprint joins the key. Two platforms sharing a ladder but not powers
// therefore never share solutions.
type solutionMemoKey struct {
	budgetMemoKey
	energy string
}

// dpa1dEnergySig fingerprints every platform quantity the solve1D objective
// reads beyond the key's explicit fields: the speed/power ladder with
// leakage (energySig, shared with the rectangle tables) plus the per-GB link
// energy charged on chunk cuts. CommLeakPower stays out: it is a
// mapping-independent constant added by the final evaluation, so it never
// influences which chunk sequence wins.
func dpa1dEnergySig(pl *platform.Platform) string {
	b := []byte(energySig(pl))
	b = append(b, ';')
	b = appendHexFloat(b, pl.EnergyPerGB)
	return string(b)
}

// budgetMemo records, per family member, the outcomes of past DPA1D runs:
// budget-failure verdicts — the member's own, or a family verdict it
// replayed (see verdictMemo) — and successful chunk decompositions. A
// budget-failed run evicts its half-enumerated downset space (see Solve), so
// without this memo every identical later run — the same CCR cell in a
// repeated campaign sweep, say — would re-burn the entire enumeration just
// to fail at the same point; the run is deterministic given the key, so
// replaying the recorded error is bit-identical and free.
//
// A nil error recorded under a key marks a configuration whose family
// verdicts were checked and did not apply: certificate checks cost a cut
// evaluation per certified state, so each member checks a configuration
// once, and warm sweeps stay O(1) per solve even for runs whose outcome is
// not memoized (plain infeasibility).
//
// Successful runs memoize their chunk sequence (not the Solution): a warm
// sweep replays the chunks through finishSnake, which rebuilds mapping,
// routes and evaluation from scratch, so callers never alias mappings while
// skipping the whole DP. The memo stores a private copy and hands out
// fresh copies (copy-on-return), keeping the cached sequence immutable even
// if a caller mutates what it received.
type budgetMemo struct {
	mu  sync.Mutex
	m   map[budgetMemoKey]error
	sol map[solutionMemoKey][][]int
}

type budgetMemoAuxKey struct{}

func budgetMemoFor(an *spg.Analysis) *budgetMemo {
	return an.MemberAux(budgetMemoAuxKey{}, func() any {
		return &budgetMemo{
			m:   make(map[budgetMemoKey]error),
			sol: make(map[solutionMemoKey][][]int),
		}
	}).(*budgetMemo)
}

// lookup returns the budget error recorded for key, and whether the family
// verdicts were already checked for it (true whenever anything is recorded).
func (bm *budgetMemo) lookup(key budgetMemoKey) (checked bool, err error) {
	bm.mu.Lock()
	defer bm.mu.Unlock()
	err, checked = bm.m[key]
	return checked, err
}

// record stores key's budget error, or with a nil err marks key's family
// verdicts as checked.
func (bm *budgetMemo) record(key budgetMemoKey, err error) {
	bm.mu.Lock()
	defer bm.mu.Unlock()
	bm.m[key] = err
}

// MemoryFootprint implements spg.Footprinter: both verdict maps count
// toward Analysis.MemoryFootprint and so toward the campaign cache's byte
// account (chunk sequences are the only entries of real size).
func (bm *budgetMemo) MemoryFootprint() int64 {
	bm.mu.Lock()
	defer bm.mu.Unlock()
	const keyBytes = 56 // budgetMemoKey's fixed fields + string header
	var b int64
	for k := range bm.m {
		b += keyBytes + int64(len(k.ladder)) + 48
	}
	for k, chunks := range bm.sol {
		b += keyBytes + int64(len(k.ladder)+len(k.energy)) + 48 + 24
		for _, c := range chunks {
			b += 24 + int64(len(c))*8
		}
	}
	return b
}

// copyChunks deep-copies a chunk sequence; both record and replay copy, so
// the memoized sequence is never shared with any caller.
func copyChunks(chunks [][]int) [][]int {
	out := make([][]int, len(chunks))
	for i, c := range chunks {
		out[i] = append([]int(nil), c...)
	}
	return out
}

// solution returns a fresh copy of the memoized chunk sequence for key.
func (bm *budgetMemo) solution(key solutionMemoKey) ([][]int, bool) {
	bm.mu.Lock()
	defer bm.mu.Unlock()
	chunks, ok := bm.sol[key]
	if !ok {
		return nil, false
	}
	return copyChunks(chunks), true
}

// recordSolution memoizes a private copy of a successful run's chunks.
func (bm *budgetMemo) recordSolution(key solutionMemoKey, chunks [][]int) {
	bm.mu.Lock()
	defer bm.mu.Unlock()
	bm.sol[key] = copyChunks(chunks)
}

// verdictKey is what every member of a scale family shares with a recorded
// budget failure before any cut is read: the lattice (the family's
// structure and stage weights), the normalized state budget and the chunk
// cap T*MaxSpeed.
type verdictKey struct {
	maxStates int
	maxChunk  float64
}

// budgetVerdict is one budget failure recorded for a scale family, with a
// certificate of the exact conditions under which a sibling's run repeats
// it. Given the family lattice, the state budget, the chunk cap and the
// transition budget, a run's sequence of touched states, its transition
// count and its failure point depend on the member only through the
// decisions cut > LinkCapacity(T) on the states whose cuts it compares:
// every walked chunk has a feasible speed (MinFeasibleSpeed admits every
// chunk within T*MaxSpeed), so where the platform keeps every candidate
// energy finite (dpEnergiesFinite) a layer makes progress exactly when it
// expands a state with a non-empty expansion list, whatever the member's
// volumes or energy model. A member whose own cuts reproduce every recorded
// decision therefore walks the same states in the same order and fails at
// the same point with the same error.
//
// A failure in the first expansion, from the empty downset, happens before
// any cut is read or any transition is checked: its certificate is empty
// and it applies to every core count and transition budget.
type budgetVerdict struct {
	failLayer      int // the DP layer (processor count) the run failed in
	maxTransitions int // the transition budget; irrelevant when failLayer is 1
	// states holds the certificate's downsets as per-level count vectors
	// back to back (spg.CutProbe.Stride bytes each); bit i of over records
	// whether state i's cut exceeded the link capacity.
	states []uint8
	over   []uint64
	err    error
}

// replays reports whether a run with the given core count and transition
// budget, whose cuts probe evaluates and compares with linkCap, repeats the
// verdict.
func (v *budgetVerdict) replays(cores, maxTransitions int, probe *spg.CutProbe, linkCap float64) bool {
	if v.failLayer > cores || (v.failLayer > 1 && v.maxTransitions != maxTransitions) {
		return false
	}
	stride := probe.Stride()
	for i := 0; i*stride < len(v.states); i++ {
		over := probe.Cut(v.states[i*stride:(i+1)*stride]) > linkCap
		if over != (v.over[i>>6]>>(uint(i)&63)&1 != 0) {
			return false
		}
	}
	return true
}

// dpEnergiesFinite reports whether every candidate energy solve1D can form
// on inst is finite, which the certificate argument of budgetVerdict needs:
// an infinite or overflowing candidate would leave a reachable state
// unreached. A chunk at its slowest feasible speed s runs work/s <=
// T(1+1e-12) seconds and a cut carries at most the graph's total volume, so
// each of at most NumCores layers adds at most one core's leakage and
// dynamic energy plus one cut's communication energy. NaN fails the test.
func dpEnergiesFinite(inst Instance) bool {
	pl, T := inst.Platform, inst.Period
	var volume, maxDyn float64
	for _, e := range inst.Graph.Edges {
		volume += e.Volume
	}
	for _, p := range pl.DynPower {
		maxDyn = max(maxDyn, p)
	}
	perLayer := pl.LeakPower*T + 2*T*maxDyn + volume*pl.EnergyPerGB
	return perLayer*float64(pl.NumCores()) < math.MaxFloat64/4
}

// verdictMemo records, per scale family, the budget failures of DPA1D
// runs with their certificates (see budgetVerdict), so CCR siblings replay
// a failure instead of re-burning the same enumeration. Verdicts under one
// key are appended, never changed, and a member checks each at most once
// per configuration (budgetMemo's checked mark).
type verdictMemo struct {
	mu sync.Mutex
	m  map[verdictKey][]*budgetVerdict

	// evals counts certificate evaluations; tests use it to hold warm
	// solves to zero.
	evals atomic.Int64
}

type verdictMemoAuxKey struct{}

func verdictMemoFor(an *spg.Analysis) *verdictMemo {
	return an.Aux(verdictMemoAuxKey{}, func() any {
		return &verdictMemo{m: make(map[verdictKey][]*budgetVerdict)}
	}).(*verdictMemo)
}

// replay returns the error of the first verdict recorded under key, at
// index from or later, for which applies holds, and the number of verdicts
// recorded under key when it looked.
func (vm *verdictMemo) replay(key verdictKey, from int, applies func(*budgetVerdict) bool) (int, error) {
	vm.mu.Lock()
	verdicts := vm.m[key]
	vm.mu.Unlock()
	for _, v := range verdicts[from:] {
		if applies(v) {
			return len(verdicts), v.err
		}
	}
	return len(verdicts), nil
}

func (vm *verdictMemo) record(key verdictKey, v *budgetVerdict) {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	vm.m[key] = append(vm.m[key], v)
}

// MemoryFootprint implements spg.Footprinter: the certificates by capacity,
// plus per verdict its record, pointer slot and error value, and per key
// its map entry and slice header.
func (vm *verdictMemo) MemoryFootprint() int64 {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	const (
		keyBytes     = 16 + 48 + 24 // verdictKey + map entry + slice header
		verdictBytes = 96 + 8 + 64  // budgetVerdict + pointer slot + wrapped error
	)
	var b int64
	for _, verdicts := range vm.m {
		b += keyBytes
		for _, v := range verdicts {
			b += verdictBytes + int64(cap(v.states)) + int64(cap(v.over))*8
		}
	}
	return b
}

// Solve implements Heuristic.
func (h *DPA1D) Solve(inst Instance) (*Solution, error) {
	inst = inst.Analyzed()
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	// A budget failure recorded for this exact configuration replays
	// immediately: the run it summarizes would burn the whole enumeration
	// again only to fail identically (runs are deterministic given the key
	// and the member's graph).
	memo := budgetMemoFor(inst.Analysis)
	key := budgetMemoKey{
		T:         inst.Period,
		maxStates: h.MaxStates, maxTransitions: h.MaxTransitions,
		cores:  inst.Platform.NumCores(),
		bw:     inst.Platform.BW,
		ladder: speedLadderSig(inst.Platform),
	}
	checked, err := memo.lookup(key)
	if err != nil {
		return nil, err
	}
	// A memoized successful run replays its chunk sequence straight through
	// finishSnake: the DP is deterministic given the key, the member's graph
	// and the platform's energy model (all in solKey), so the rebuilt
	// mapping and its evaluation are bit-identical to re-running it — and
	// warm sweeps skip the enumeration entirely.
	solKey := solutionMemoKey{key, dpa1dEnergySig(inst.Platform)}
	if chunks, ok := memo.solution(solKey); ok {
		return finishSnake(h.Name(), inst, chunks)
	}
	// A budget failure recorded by any member of the scale family replays
	// when its certificate holds under this member's cuts. It is checked
	// before the space is built and again under the run lock, for verdicts a
	// sibling recorded while this run waited.
	shares := dpEnergiesFinite(inst)
	family := verdictMemoFor(inst.Analysis)
	famKey := verdictKey{
		maxStates: spg.NormalizeStateBudget(h.MaxStates),
		maxChunk:  inst.Period * inst.Platform.MaxSpeed(),
	}
	var probe *spg.CutProbe
	linkCap := inst.Platform.LinkCapacity(inst.Period)
	applies := func(v *budgetVerdict) bool {
		if probe == nil {
			probe = inst.Analysis.CutProbe()
		}
		family.evals.Add(1)
		return v.replays(key.cores, h.MaxTransitions, probe, linkCap)
	}
	seen := 0
	if !checked && shares {
		seen, err = family.replay(famKey, 0, applies)
		memo.record(key, err)
		if err != nil {
			return nil, err
		}
	}
	ds, err := inst.Analysis.DownsetSpace(h.MaxStates)
	if err != nil {
		return nil, fmt.Errorf("%w: %v (%w)", ErrNoSolution, err, ErrBudget)
	}
	// The space may be shared through the analysis cache: take the run lock
	// so concurrent Solves serialize instead of invalidating each other's
	// run indices, then open one budget epoch — a space warmed by earlier
	// periods fails (or succeeds) exactly where a freshly built one would.
	ds.LockRun()
	defer ds.UnlockRun()
	if !checked && shares {
		if _, err := family.replay(famKey, seen, applies); err != nil {
			memo.record(key, err)
			return nil, err
		}
	}
	ds.BeginRun()
	chunks, verdict, err := solve1D(inst, ds, h.MaxTransitions)
	if err != nil {
		if verdict != nil {
			// A partially enumerated space is dead weight for future runs;
			// drop it so the next period starts from a fresh space, exactly
			// like the uncached path — and remember the verdict so the next
			// identical run, and every sibling it certifies, skips the burn.
			inst.Analysis.EvictDownsetSpace(h.MaxStates, ds)
			memo.record(key, err)
			if shares {
				family.record(famKey, verdict)
			}
		}
		return nil, err
	}
	memo.recordSolution(solKey, chunks)
	return finishSnake(h.Name(), inst, chunks)
}

// solve1D runs the Theorem 1 DP on a uni-directional chain of
// pl.NumCores() processors and returns the optimal chunk sequence. A budget
// failure also returns its family verdict, certified by the cut decisions
// the run made (see budgetVerdict).
func solve1D(inst Instance, ds *spg.DownsetSpace, maxTransitions int) ([][]int, *budgetVerdict, error) {
	pl, T := inst.Platform, inst.Period
	r := pl.NumCores()
	maxChunk := T * pl.MaxSpeed()
	linkCap := pl.LinkCapacity(T)

	// chunkEnergy is Ecal of Theorem 1: leakage plus dynamic energy at the
	// slowest feasible speed.
	chunkEnergy := func(work float64) float64 {
		_, idx, ok := pl.MinFeasibleSpeed(work, T)
		if !ok {
			return math.Inf(1)
		}
		return pl.CoreEnergy(work, T, idx)
	}

	const unset = -1
	sc := inst.Scratch
	type layer struct {
		energy []float64
		parent []int32
	}
	newLayer := func(states int) *layer {
		// Layers are carved from the scratch arena with capacity headroom so
		// grow's in-place appends stay inside the region reserved here; a run
		// that interns more states than the headroom covers spills the layer
		// onto the heap, which changes nothing but the allocator.
		capHint := states + states/4 + 64
		l := &layer{energy: sc.F64(capHint)[:states], parent: sc.I32(capHint)[:states]}
		for i := range l.energy {
			l.energy[i] = math.Inf(1)
			l.parent[i] = unset
		}
		return l
	}
	grow := func(l *layer, states int) {
		for len(l.energy) < states {
			l.energy = append(l.energy, math.Inf(1))
			l.parent = append(l.parent, unset)
		}
	}

	// The DP is keyed by run indices (per-epoch touch order: empty = 0,
	// full = 1), not by global downset ids: run indices are dense — sized by
	// this run's states even when the shared space holds leftovers from
	// earlier periods — and identical between fresh and warmed spaces, so
	// tables, iteration order and floating-point tie-breaking never depend on
	// interning history.
	const empty, full = 0, 1
	transitions := 0

	// A state's expansion list, chunk energies and outgoing cut are the same
	// in every layer, so they are fetched and evaluated once per state and
	// replayed as pure array math in the remaining r-1 layers. runStates
	// shadows ds.RunCount() locally: it only grows when an expansion list is
	// first built (memoized replays touch nothing new), so the hot loop
	// never takes the space's mutex for already-expanded states.
	type stateExp struct {
		exps  []spg.Expansion
		chunk []float64 // chunkEnergy per expansion
		commE float64   // cut * EnergyPerGB
	}
	memo := []*stateExp{}
	cuts := []float64{} // per run index; negative = not yet computed
	runStates := ds.RunCount()
	growState := func(id int) {
		for len(memo) <= id {
			memo = append(memo, nil)
			cuts = append(cuts, -1)
		}
	}
	cutOf := func(id int) float64 {
		growState(id)
		if cuts[id] < 0 {
			cuts[id] = ds.CoutRun(id)
		}
		return cuts[id]
	}
	expand := func(id int) (*stateExp, error) {
		growState(id)
		if memo[id] != nil {
			return memo[id], nil
		}
		exps, err := ds.ExpansionsInRun(id, maxChunk)
		if err != nil {
			return nil, err
		}
		se := &stateExp{exps: exps, chunk: sc.F64(len(exps))}
		for j, ex := range exps {
			se.chunk[j] = chunkEnergy(ex.ChunkWork)
		}
		se.commE = cutOf(id) * pl.EnergyPerGB
		memo[id] = se
		runStates = ds.RunCount()
		return se, nil
	}

	// budgetFailure builds the verdict of a budget failure in layer k. Its
	// certificate is every state whose cut the run compared with linkCap:
	// every state with a computed cut but the empty set, whose cut only
	// prices the first layer's communication.
	budgetFailure := func(k int, err error) ([][]int, *budgetVerdict, error) {
		n := 0
		for id, cut := range cuts {
			if id != empty && cut >= 0 {
				n++
			}
		}
		v := &budgetVerdict{failLayer: k, maxTransitions: maxTransitions, err: err}
		if n > 0 {
			v.states = make([]uint8, 0, n*len(inst.Analysis.Levels()))
			v.over = make([]uint64, (n+63)/64)
		}
		i := 0
		for id, cut := range cuts {
			if id == empty || cut < 0 {
				continue
			}
			v.states = ds.AppendCountsRun(v.states, id)
			if cut > linkCap {
				v.over[i>>6] |= 1 << (uint(i) & 63)
			}
			i++
		}
		return nil, v, err
	}
	stateLimit := func(k int, err error) ([][]int, *budgetVerdict, error) {
		return budgetFailure(k, fmt.Errorf("%w: %v (%w)", ErrNoSolution, err, ErrBudget))
	}

	// Layer k holds E(D, k): minimal energy to run downset D on exactly the
	// first k processors of the chain.
	prev := newLayer(runStates)
	first, err := expand(empty)
	if err != nil {
		return stateLimit(1, err)
	}
	transitions += len(first.exps)
	grow(prev, runStates)
	for j, ex := range first.exps {
		if e := first.chunk[j]; e < prev.energy[ex.To] {
			prev.energy[ex.To] = e
			prev.parent[ex.To] = int32(empty)
		}
	}

	bestEnergy := math.Inf(1)
	bestK := -1
	layers := []*layer{nil, prev} // layers[k] for k >= 1
	if prev.energy[full] < bestEnergy {
		bestEnergy = prev.energy[full]
		bestK = 1
	}

	for k := 2; k <= r; k++ {
		cur := newLayer(runStates)
		progress := false
		for id := 0; id < len(prev.energy); id++ {
			base := prev.energy[id]
			if math.IsInf(base, 1) || id == full {
				continue
			}
			// The cut check comes first, as in the Theorem 1 statement: an
			// over-capacity state is never expanded, so it charges neither
			// the state nor the transition budget.
			if cutOf(id) > linkCap {
				continue // the link between cores k-1 and k would overflow
			}
			se, err := expand(id)
			if err != nil {
				return stateLimit(k, err)
			}
			transitions += len(se.exps)
			if transitions > maxTransitions {
				return budgetFailure(k, fmt.Errorf("%w: transition budget exceeded (%w)", ErrNoSolution, ErrBudget))
			}
			grow(cur, runStates)
			grow(prev, runStates)
			for j, ex := range se.exps {
				cand := base + se.commE + se.chunk[j]
				if cand < cur.energy[ex.To] {
					cur.energy[ex.To] = cand
					cur.parent[ex.To] = int32(id)
					progress = true
				}
			}
		}
		layers = append(layers, cur)
		grow(cur, runStates)
		if cur.energy[full] < bestEnergy {
			bestEnergy = cur.energy[full]
			bestK = k
		}
		if !progress {
			break
		}
		prev = cur
	}

	if bestK < 0 {
		return nil, nil, ErrNoSolution
	}

	// Reconstruct the chunk of each processor, in chain order (run indices
	// translate back to downset ids for the membership diff).
	chunks := make([][]int, bestK)
	id := full
	for k := bestK; k >= 1; k-- {
		p := int(layers[k].parent[id])
		chunks[k-1] = ds.Diff(ds.RunID(p), ds.RunID(id))
		id = p
	}
	return chunks, nil, nil
}

// finishSnake places consecutive chunks along the snake embedding, pins the
// communication routes to the snake links ("no other communication link is
// used", Section 5.4) and evaluates the result.
func finishSnake(name string, inst Instance, chunks [][]int) (*Solution, error) {
	g, pl, T := inst.Graph, inst.Platform, inst.Period
	snake := platform.NewSnake(pl)
	m := mapping.New(g.N(), pl)
	pos := make([]int, g.N()) // stage -> snake position
	for k, chunk := range chunks {
		c := snake.Core(k)
		var work float64
		for _, s := range chunk {
			m.Alloc[s] = c
			pos[s] = k
			work += g.Stages[s].Weight
		}
		_, idx, ok := pl.MinFeasibleSpeed(work, T)
		if !ok {
			return nil, fmt.Errorf("%w: %s chunk %d infeasible", ErrNoSolution, name, k)
		}
		m.SetSpeed(pl, c, idx)
	}
	m.Paths = make(map[int][]platform.Link, len(g.Edges))
	for e, edge := range g.Edges {
		a, b := pos[edge.Src], pos[edge.Dst]
		if a != b {
			m.Paths[e] = snake.Path(a, b)
		}
	}
	return finish(name, inst, m)
}
