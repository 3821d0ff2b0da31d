package spg

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
)

// ErrStateLimit is returned when enumerating the admissible subgraphs of an
// SPG would exceed the configured state budget. The paper's DPA1D heuristic
// exhibits exactly this failure mode on graphs of large elevation ("there are
// too many possible splits to explore", Section 6.2.1); callers treat it as a
// heuristic failure.
var ErrStateLimit = errors.New("spg: admissible-subgraph state limit exceeded")

// DownsetSpace enumerates the admissible subgraphs of an SPG as defined in
// the proof of Theorem 1: a subgraph is admissible if it can be obtained from
// the full graph by repeatedly deleting a stage without successors. These are
// exactly the predecessor-closed stage sets (downsets, or order ideals) of
// the dependence partial order.
//
// Because stages of equal elevation are pairwise comparable in an SPG, a
// downset is uniquely identified by how many stages of each elevation level
// it contains, which bounds the number of downsets by n^y_max (the bound used
// in the paper's complexity analysis). Downsets are interned lazily and
// addressed by dense integer ids.
//
// A DownsetSpace is a view over a shared structural core. The core holds
// everything that depends only on the graph's shape and stage weights — the
// interned states, the expansion enumerations (chunk works are weight sums)
// and the run-budget accounting — and is shared across every volume scale of
// a graph family: the CCR variants of a workload enumerate one lattice. The
// view owns the volume-dependent outgoing-cut cache (Cout), recomputed per
// scale from its own graph with the same arithmetic a fresh space would use,
// so scaled views answer bit-identically to freshly built spaces.
//
// A space may be reused across several solver runs (Analysis.DownsetSpace
// hands the same space to every DPA1D run on a workload): interned states
// persist, while the state budget is accounted per run. A run is the span
// between two BeginRun calls; the budget bounds the number of distinct
// downsets the run touches, so a warmed space fails (or succeeds) exactly
// where a freshly built one would, regardless of how many states earlier
// runs left behind. Without any BeginRun call the whole lifetime is one run,
// which matches the historical total-cap semantics.
//
// All methods are safe for concurrent use.
type DownsetSpace struct {
	core *downsetCore
	g    *Graph // this scale's graph: volumes for Cout

	// coutCache memoizes, per downset id, the aggregated volume of the edges
	// leaving the downset under this scale's volumes (negative = uncomputed).
	// Guarded by core.mu, like every other per-id table.
	coutCache []float64
}

// downsetCore is the scale-independent half of a DownsetSpace: interning,
// expansion enumeration and run accounting. Views sharing a core serialize
// their runs through the core's run lock.
//
// The lattice is stored as a graph of successor edges so that each edge is
// hashed at most once per core, never once per enumeration. Every state owns
// one successor slot per elevation level (succ), holding the state obtained
// by adding that level's next stage once the edge has been resolved, or a
// "blocked" mark when the level is full or the stage's predecessors are
// missing. Expansion DFSs walk state ids through these slots; the intern
// table is consulted only when an edge is first resolved. A state's hash is
// the sum of fixed per-(level, count) keys, so the hash of a successor is
// its source's hash plus one key difference — O(1), whatever the number of
// levels — and the open-addressed intern table keeps a 32-bit fingerprint
// beside each id, so the count vectors are compared only on a fingerprint
// match.
//
// Per-state data lives in flat id-indexed arenas: the per-level count
// vectors back to back in one []uint8 (stride bytes each), the
// stage-membership bitsets in one []uint64 (words words each), the successor
// slots in one []int32 (stride each), and a fixed-size record per state
// (states). Memoized enumerations live in a separate slice (exps) with
// entries only for states that have been expanded.
type downsetCore struct {
	g          *Graph      // structure/weight authority (any family member)
	levels     [][]int     // stages per elevation level, in chain (x) order
	levelW     [][]float64 // stage weight per (level, position)
	levelOf    []int       // stage -> level index (y-1)
	posInLevel []int       // stage -> position within its level chain
	preds      [][]int     // stage -> distinct predecessors

	// keys[keyOff[y]+c] is the hash key of "level y holds c stages"; a
	// state's hash is the sum of its levels' keys.
	keys   []uint64
	keyOff []int

	// runMu serializes whole runs: per-method locking (mu) keeps the data
	// structures consistent, but a run's indices are only meaningful within
	// its own epoch, so BeginRun through the last RunID/CoutRun/
	// ExpansionsInRun call must not interleave with another run. Solvers
	// hold it for the duration of a Solve via LockRun/UnlockRun.
	runMu sync.Mutex

	mu     sync.Mutex
	stride int        // bytes per state in counts: one per elevation level
	words  int        // uint64 words per state in bits: (n+63)/64
	counts []uint8    // flat id-indexed per-level inclusion counts (stride each)
	bits   []uint64   // flat id-indexed membership bitsets (words each)
	succ   []int32    // flat id-indexed successor slots (stride each), see succUnknown
	states []stateRec // id -> fixed-size record

	// table is the open-addressed intern index: linear probing, power-of-two
	// capacity, each slot fingerprint<<32 | (id+1), 0 = empty.
	table []uint64

	epoch  int32
	runIDs []int32 // run index -> id, in touch order for the current epoch

	// exps memoizes enumerations per source downset (states[id].exp indexes
	// it), tagged with the work budget they were computed at. A query at a
	// smaller budget is served by filtering: pruning only removes chunks
	// heavier than the budget (every path to a light chunk has light
	// prefixes), so the smaller-budget DFS tree is a prefix-closed subtree of
	// the larger one and the filtered list preserves both membership and
	// order. SelectPeriod descends from the largest period, so one
	// enumeration per downset serves every later period.
	exps []expEntry

	// dfsEpoch stamps states seen by the current expansion DFS
	// (stateRec.dfsSeen), so clearing between enumerations is a counter bump,
	// not a sweep. walkCounts, walkStack and walkRes are the DFS's reusable
	// buffers: a walk that fails allocates nothing, one that succeeds copies
	// its result out once.
	dfsEpoch   int32
	walkCounts []uint8
	walkStack  []dfsFrame
	walkRes    []Expansion

	maxStates int
	emptyID   int
	fullID    int
}

// Successor slot values: an unresolved edge whose stage can be added,
// a blocked edge (level full or predecessors missing); any positive value is
// the successor's id+1.
const (
	succUnknown = 0
	succBlocked = -1
)

// stateRec is the fixed-size record of one interned downset.
type stateRec struct {
	hash     uint64 // sum of the state's per-(level, count) keys
	lastSeen int32  // run epoch that last touched the state (0 = never)
	runIndex int32  // index in runIDs; valid only when lastSeen == epoch
	dfsSeen  int32  // DFS epoch that last reached the state
	exp      int32  // 1 + index of the state's entry in exps, 0 = none
}

type expEntry struct {
	maxWork float64
	exps    []Expansion
}

// dfsFrame is one level of the expansion DFS: the state being extended, the
// next elevation level to try and the chunk work accumulated on the path.
type dfsFrame struct {
	id   int32
	y    int32
	work float64
}

// NormalizeStateBudget maps the "use the default cap" sentinel (any
// non-positive budget) to its value. Every consumer of a state budget — space
// construction, the Analysis memo key, solver memo keys — must agree on it so
// equal budgets share one space.
func NormalizeStateBudget(maxStates int) int {
	if maxStates <= 0 {
		return 1 << 20
	}
	return maxStates
}

// Expansion describes one admissible superset reachable from a downset: the
// added chunk is exactly the stage set that a single additional processor of
// the uni-directional uni-line CMP would execute.
type Expansion struct {
	To        int     // id of the superset downset
	ChunkWork float64 // total weight of the added stages
}

// NewDownsetSpace prepares downset enumeration for g. maxStates caps the
// number of distinct downsets a run may touch; enumeration beyond the cap
// fails with ErrStateLimit.
func NewDownsetSpace(g *Graph, maxStates int) (*DownsetSpace, error) {
	return newDownsetSpace(g, Levels(g), maxStates)
}

// newDownsetSpace is NewDownsetSpace with the elevation levels supplied by
// the caller (Analysis passes its memoized copy; the space only reads them).
func newDownsetSpace(g *Graph, levels [][]int, maxStates int) (*DownsetSpace, error) {
	core, err := newDownsetCore(g, levels, maxStates)
	if err != nil {
		return nil, err
	}
	return core.viewFor(g), nil
}

func newDownsetCore(g *Graph, levels [][]int, maxStates int) (*downsetCore, error) {
	maxStates = NormalizeStateBudget(maxStates)
	for _, lv := range levels {
		if len(lv) > 255 {
			return nil, fmt.Errorf("spg: elevation level with %d stages exceeds uint8 count encoding", len(lv))
		}
	}
	n := g.N()
	c := &downsetCore{
		g:          g,
		levels:     levels,
		levelW:     make([][]float64, len(levels)),
		levelOf:    make([]int, n),
		posInLevel: make([]int, n),
		preds:      make([][]int, n),
		keyOff:     make([]int, len(levels)),
		stride:     len(levels),
		words:      (n + 63) / 64,
		table:      make([]uint64, 1<<8),
		maxStates:  maxStates,
		epoch:      1,
	}
	// splitmix64 from a fixed seed: the keys only shape the intern table's
	// layout, never an enumeration result.
	seed := uint64(0x9E3779B97F4A7C15)
	for y, lv := range levels {
		c.levelW[y] = make([]float64, len(lv))
		for p, s := range lv {
			c.levelOf[s] = y
			c.posInLevel[s] = p
			c.levelW[y][p] = g.Stages[s].Weight
		}
		c.keyOff[y] = len(c.keys)
		for k := 0; k <= len(lv); k++ {
			seed += 0x9E3779B97F4A7C15
			z := seed
			z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
			z = (z ^ z>>27) * 0x94D049BB133111EB
			c.keys = append(c.keys, z^z>>31)
		}
	}
	for i := 0; i < n; i++ {
		c.preds[i] = g.Predecessors(i)
	}
	empty := make([]uint8, len(levels))
	var err error
	c.emptyID, err = c.visit(empty)
	if err != nil {
		return nil, err
	}
	full := make([]uint8, len(levels))
	for y, lv := range levels {
		full[y] = uint8(len(lv))
	}
	c.fullID, err = c.visit(full)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// viewFor binds the core to one volume scale. The view starts with an empty
// cut cache; the interned lattice and run accounting are the core's.
func (c *downsetCore) viewFor(g *Graph) *DownsetSpace {
	return &DownsetSpace{core: c, g: g}
}

// BeginRun opens a fresh budget epoch: the run that follows may touch up to
// maxStates distinct downsets (the empty and full sets count, as they do for
// a freshly constructed space). Solvers call it once per Solve so that a
// space shared across periods — or across the volume scales of a graph
// family — behaves exactly like a per-run space.
//
// Within an epoch every touched downset also receives a dense run index
// (its position in touch order, empty = 0, full = 1). Because touches happen
// in the same order whether the space is fresh or warmed, run indices are
// history-independent: the DPA1D dynamic program uses them as state keys so
// that its tables, iteration order and floating-point tie-breaking are
// identical either way — and sized by this run's states, not by whatever
// earlier runs left interned.
func (ds *DownsetSpace) BeginRun() {
	c := ds.core
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epoch == math.MaxInt32 {
		// Wrap: forget every stamp so no stale epoch can alias the new one.
		for i := range c.states {
			c.states[i].lastSeen = 0
		}
		c.epoch = 0
	}
	c.epoch++
	c.runIDs = c.runIDs[:0]
	// The constructor counts the empty and full sets; mirror that here so a
	// warmed run's accounting matches a fresh space's.
	_ = c.touch(c.emptyID)
	_ = c.touch(c.fullID)
}

// LockRun gives the caller exclusive use of the run-scoped API — BeginRun,
// RunCount, RunID, CoutRun, ExpansionsInRun — until UnlockRun. Run indices
// are only meaningful within their own epoch, so a solver sharing the space
// with other goroutines (or sharing its core with sibling volume scales)
// must hold the run lock for its whole Solve; the per-method mutex alone
// cannot prevent a concurrent BeginRun from invalidating indices mid-run.
func (ds *DownsetSpace) LockRun() { ds.core.runMu.Lock() }

// UnlockRun releases the exclusivity acquired by LockRun.
func (ds *DownsetSpace) UnlockRun() { ds.core.runMu.Unlock() }

// RunCount returns the number of distinct downsets touched in the current
// run (epoch).
func (ds *DownsetSpace) RunCount() int {
	ds.core.mu.Lock()
	defer ds.core.mu.Unlock()
	return len(ds.core.runIDs)
}

// RunID returns the global id of the downset with run index k.
func (ds *DownsetSpace) RunID(k int) int {
	ds.core.mu.Lock()
	defer ds.core.mu.Unlock()
	return int(ds.core.runIDs[k])
}

// EmptyID returns the id of the empty downset.
func (ds *DownsetSpace) EmptyID() int { return ds.core.emptyID }

// FullID returns the id of the complete stage set.
func (ds *DownsetSpace) FullID() int { return ds.core.fullID }

// NumStates returns the number of downsets interned so far.
func (ds *DownsetSpace) NumStates() int {
	ds.core.mu.Lock()
	defer ds.core.mu.Unlock()
	return len(ds.core.states)
}

// Size returns the number of stages in downset id.
func (ds *DownsetSpace) Size(id int) int {
	ds.core.mu.Lock()
	defer ds.core.mu.Unlock()
	size := 0
	for _, cnt := range ds.core.countsOf(id) {
		size += int(cnt)
	}
	return size
}

// countsOf returns downset id's per-level count vector as a window into the
// flat arena. Callers hold c.mu and must not retain or modify the slice.
func (c *downsetCore) countsOf(id int) []uint8 {
	return c.counts[id*c.stride : (id+1)*c.stride]
}

// hashOf sums the per-level keys of a count vector. Only the constructor
// hashes a whole vector; every other state's hash is derived from its
// source's in resolve.
func (c *downsetCore) hashOf(counts []uint8) uint64 {
	var h uint64
	for y, cnt := range counts {
		h += c.keys[c.keyOff[y]+int(cnt)]
	}
	return h
}

// slotOf mixes a state hash into its home slot; the slot's fingerprint is the
// hash's low half, so the two draw on independent bits.
func slotOf(h, mask uint64) uint64 { return ((h * 0x9E3779B97F4A7C15) >> 32) & mask }

// lookup finds the id interned for counts (whose hash is h), if any, without
// touching the run budget. Callers hold c.mu.
func (c *downsetCore) lookup(h uint64, counts []uint8) (int, bool) {
	mask := uint64(len(c.table) - 1)
	fp := h << 32
	for i := slotOf(h, mask); ; i = (i + 1) & mask {
		t := c.table[i]
		if t == 0 {
			return -1, false
		}
		if t&^0xFFFFFFFF == fp {
			if id := int(uint32(t)) - 1; bytes.Equal(c.countsOf(id), counts) {
				return id, true
			}
		}
	}
}

// insertSlot places id (with hash h) into the first free slot of its probe
// sequence in table.
func insertSlot(table []uint64, h uint64, id int) {
	mask := uint64(len(table) - 1)
	i := slotOf(h, mask)
	for table[i] != 0 {
		i = (i + 1) & mask
	}
	table[i] = h<<32 | uint64(id+1)
}

// growTable doubles the intern index and re-inserts every id from its stored
// hash (ids never move). Callers hold c.mu.
func (c *downsetCore) growTable() {
	nt := make([]uint64, 2*len(c.table))
	for id := range c.states {
		insertSlot(nt, c.states[id].hash, id)
	}
	c.table = nt
}

// intern appends a new downset (counts, hash h) to the arenas and charges the
// run budget. The budget is checked before any state is written so a
// rejected downset is not retained; with c.mu held, the touch below then
// succeeds on the same condition. Callers hold c.mu and have established
// that counts is not yet interned.
func (c *downsetCore) intern(counts []uint8, h uint64) (int, error) {
	// Ids are int32 in the successor slots; a lattice that large could never
	// fit in memory anyway, so it counts as exhausting the budget.
	if len(c.runIDs) >= c.maxStates || len(c.states) >= math.MaxInt32-1 {
		return -1, ErrStateLimit
	}
	id := len(c.states)
	// Keep the open-addressed table below 75% load.
	if (id+1)*4 > len(c.table)*3 {
		c.growTable()
	}
	insertSlot(c.table, h, id)

	c.counts = append(c.counts, counts...)
	base := len(c.bits)
	c.bits = append(c.bits, make([]uint64, c.words)...)
	fillMembers(c.bits[base:], c.levels, counts)
	c.succ = append(c.succ, make([]int32, c.stride)...)
	c.states = append(c.states, stateRec{hash: h})
	return id, c.touch(id)
}

// touch records that the current run uses downset id, charging the run
// budget and assigning the run index on the first touch. Callers hold c.mu.
func (c *downsetCore) touch(id int) error {
	r := &c.states[id]
	if r.lastSeen == c.epoch {
		return nil
	}
	if len(c.runIDs) >= c.maxStates {
		return ErrStateLimit
	}
	r.lastSeen = c.epoch
	r.runIndex = int32(len(c.runIDs))
	c.runIDs = append(c.runIDs, int32(id))
	return nil
}

// visit returns the id of the downset with the given counts, interning it if
// new, and charges the run budget. Only the constructor uses it; lattice
// walks go through the successor slots (addable, resolve). Callers hold c.mu.
func (c *downsetCore) visit(counts []uint8) (int, error) {
	h := c.hashOf(counts)
	if id, ok := c.lookup(h, counts); ok {
		return id, c.touch(id)
	}
	return c.intern(counts, h)
}

// addable reports whether the next stage of level y can join downset id
// (whose count vector is counts): the level must not be full and the
// stage's predecessors must all be included. Callers consult it only for an
// unresolved slot; a refusal is recorded as succBlocked so the question is
// never asked again. Callers hold c.mu.
func (c *downsetCore) addable(id, y int, counts []uint8) bool {
	p := int(counts[y])
	if p < len(c.levels[y]) && c.predsIncluded(counts, c.levels[y][p]) {
		return true
	}
	c.succ[id*c.stride+y] = succBlocked
	return false
}

// resolve finds (interning if new) the successor of id across the unblocked
// level-y edge and records it in id's successor slot. counts is the
// successor's count vector (id's, with counts[y] already incremented). A
// newly interned state is charged to the run; an existing one is not —
// charging it is the caller's decision. Callers hold c.mu.
func (c *downsetCore) resolve(id, y int, counts []uint8) (int, error) {
	k := c.keyOff[y] + int(counts[y])
	h := c.states[id].hash + c.keys[k] - c.keys[k-1]
	to, ok := c.lookup(h, counts)
	if !ok {
		var err error
		if to, err = c.intern(counts, h); err != nil {
			return -1, err
		}
	}
	c.succ[id*c.stride+y] = int32(to + 1)
	return to, nil
}

// Contains reports whether stage s belongs to downset id.
func (ds *DownsetSpace) Contains(id, s int) bool {
	c := ds.core
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bits[id*c.words+(s>>6)]>>(uint(s)&63)&1 != 0
}

// Members returns the stages of downset id in no particular order.
func (ds *DownsetSpace) Members(id int) []int {
	c := ds.core
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for y, cnt := range c.countsOf(id) {
		for p := 0; p < int(cnt); p++ {
			out = append(out, c.levels[y][p])
		}
	}
	return out
}

// Diff returns the stages of downset to that are not in downset from. It is
// only meaningful when from is a subset of to, which holds for ids produced
// by Expansions.
func (ds *DownsetSpace) Diff(from, to int) []int {
	c := ds.core
	c.mu.Lock()
	defer c.mu.Unlock()
	cf, ct := c.countsOf(from), c.countsOf(to)
	var out []int
	for y := range cf {
		for p := int(cf[y]); p < int(ct[y]); p++ {
			out = append(out, c.levels[y][p])
		}
	}
	return out
}

// Cout returns the aggregated volume of the edges leaving downset id (source
// inside, destination outside). On a uni-directional uni-line CMP this is
// exactly the load of the link separating the downset's processors from the
// rest, the quantity bounded by BW*T in Theorem 1. Values are cached per
// volume scale for the lifetime of the view, across runs; each scale's cache
// is filled by summing that scale's edge volumes in edge order — the same
// arithmetic a fresh space would use.
func (ds *DownsetSpace) Cout(id int) float64 {
	ds.core.mu.Lock()
	defer ds.core.mu.Unlock()
	return ds.coutLocked(id)
}

// CoutRun is Cout keyed by the run index of the downset.
func (ds *DownsetSpace) CoutRun(k int) float64 {
	ds.core.mu.Lock()
	defer ds.core.mu.Unlock()
	return ds.coutLocked(int(ds.core.runIDs[k]))
}

func (ds *DownsetSpace) coutLocked(id int) float64 {
	for len(ds.coutCache) <= id {
		ds.coutCache = append(ds.coutCache, -1)
	}
	if v := ds.coutCache[id]; v >= 0 {
		return v
	}
	c := ds.core
	total := edgeCut(ds.g.Edges, c.bits[id*c.words:(id+1)*c.words])
	ds.coutCache[id] = total
	return total
}

// fillMembers sets, in the zeroed bitset in, the stages of the downset whose
// per-level counts are counts: the first counts[y] stages of each level.
func fillMembers(in []uint64, levels [][]int, counts []uint8) {
	for y, cnt := range counts {
		for _, s := range levels[y][:cnt] {
			in[s>>6] |= 1 << (uint(s) & 63)
		}
	}
}

// edgeCut sums, in edge order, the volumes of the edges leaving the stage
// set whose membership bitset is in (source inside, destination outside).
// It is the one definition of a downset's outgoing cut: DownsetSpace.Cout
// and CutProbe.Cut both call it, so a cut evaluated from a count vector is
// bit-identical to the one a space computes for the same downset.
func edgeCut(edges []Edge, in []uint64) float64 {
	var total float64
	for _, e := range edges {
		if in[e.Src>>6]>>(uint(e.Src)&63)&1 != 0 && in[e.Dst>>6]>>(uint(e.Dst)&63)&1 == 0 {
			total += e.Volume
		}
	}
	return total
}

// AppendCountsRun appends to dst the per-level count vector of the downset
// with run index k: how many stages of each elevation level it holds. The
// vector names the downset independently of interning history, so it stays
// meaningful after the space is evicted and in every family member's space.
func (ds *DownsetSpace) AppendCountsRun(dst []uint8, k int) []uint8 {
	c := ds.core
	c.mu.Lock()
	defer c.mu.Unlock()
	return append(dst, c.countsOf(int(c.runIDs[k]))...)
}

// CutProbe evaluates the outgoing cut of downsets named by their count
// vectors (see AppendCountsRun) under one graph's edge volumes, without a
// DownsetSpace. A probe reuses one membership buffer, so it is not safe for
// concurrent use; make one per goroutine.
type CutProbe struct {
	edges  []Edge
	levels [][]int
	in     []uint64
}

// CutProbe returns a probe over this member's volumes and the family's
// elevation levels — the levels every DownsetSpace of the family counts by.
func (a *Analysis) CutProbe() *CutProbe {
	return &CutProbe{edges: a.g.Edges, levels: a.Levels(), in: make([]uint64, (a.g.N()+63)/64)}
}

// Stride returns the length of the count vectors the probe reads: one count
// per elevation level.
func (p *CutProbe) Stride() int { return len(p.levels) }

// Cut returns the aggregated volume of the edges leaving the downset with
// per-level counts counts: exactly DownsetSpace.Cout of that downset in this
// member's space.
func (p *CutProbe) Cut(counts []uint8) float64 {
	clear(p.in)
	fillMembers(p.in, p.levels, counts)
	return edgeCut(p.edges, p.in)
}

// Expansions enumerates every downset obtainable from id by adding stages
// whose total weight does not exceed maxWork (at least one stage is added).
// The run budget is charged for id and every returned downset, in
// enumeration order, so replays and fresh enumerations account identically.
// The returned slice is the caller's own: the memoized enumeration is
// never handed out.
func (ds *DownsetSpace) Expansions(id int, maxWork float64) ([]Expansion, error) {
	c := ds.core
	c.mu.Lock()
	defer c.mu.Unlock()
	entry, err := c.ensureExpansionsLocked(id, maxWork)
	if err != nil {
		return nil, err
	}
	out := make([]Expansion, 0, len(entry.exps))
	err = c.replayLocked(entry, maxWork, func(ex Expansion) { out = append(out, ex) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ExpansionsInRun is Expansions keyed by run indices: k is the run index of
// the source downset, and To in the returned expansions is a run index too.
// This is the DPA1D entry point: run indices are dense and identical between
// fresh and warmed spaces, so the DP can key its tables by them directly.
func (ds *DownsetSpace) ExpansionsInRun(k int, maxWork float64) ([]Expansion, error) {
	c := ds.core
	c.mu.Lock()
	defer c.mu.Unlock()
	entry, err := c.ensureExpansionsLocked(int(c.runIDs[k]), maxWork)
	if err != nil {
		return nil, err
	}
	out := make([]Expansion, 0, len(entry.exps))
	err = c.replayLocked(entry, maxWork, func(ex Expansion) {
		// Every emitted To was just touched, so its run index is current.
		out = append(out, Expansion{To: int(c.states[ex.To].runIndex), ChunkWork: ex.ChunkWork})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// replayLocked replays a cached enumeration at a (possibly smaller) work
// budget: it charges the run budget for every fitting expansion in
// enumeration order — the exact accounting a fresh DFS would perform, which
// is what keeps warmed and fresh spaces bit-identical — and hands each one
// to emit. Callers hold c.mu.
func (c *downsetCore) replayLocked(entry expEntry, maxWork float64, emit func(Expansion)) error {
	for _, ex := range entry.exps {
		if ex.ChunkWork > maxWork {
			continue
		}
		if err := c.touch(ex.To); err != nil {
			return err
		}
		emit(ex)
	}
	return nil
}

// ensureExpansionsLocked returns the cached enumeration for id, running the
// depth-first enumeration at maxWork when no entry at that budget (or a
// larger one) exists. Replayed entries charge only id here, leaving the
// per-expansion touches to the caller's filter loop so the accounting order
// matches a fresh enumeration. Chunk works are stage-weight sums, so one
// enumeration serves every volume scale sharing the core. Callers hold c.mu
// and must not modify entry.exps (it is the memo itself; every caller in
// this file only re-filters it into a fresh slice).
func (c *downsetCore) ensureExpansionsLocked(id int, maxWork float64) (expEntry, error) {
	if x := c.states[id].exp; x > 0 && c.exps[x-1].maxWork >= maxWork {
		//spglint:ignore memoalias internal helper: its callers re-filter the entry into fresh slices, and memoalias checks them through this call
		return c.exps[x-1], c.touch(id)
	}
	if err := c.touch(id); err != nil {
		return expEntry{}, err
	}
	res, err := c.walk(id, maxWork)
	if err != nil {
		return expEntry{}, err
	}
	e := expEntry{maxWork: maxWork, exps: res}
	if x := c.states[id].exp; x > 0 {
		c.exps[x-1] = e
	} else {
		c.exps = append(c.exps, e)
		c.states[id].exp = int32(len(c.exps))
	}
	return e, nil
}

// walk is the expansion DFS from id at maxWork: it visits, depth first and
// level by level, every downset reachable by adding stages whose running
// work stays within maxWork, and returns them in first-visit order with the
// work of the path that first reached them. It charges the run budget for
// every state it visits — a state already interned is touched, a genuinely
// new one is interned, and a state already seen by this DFS is skipped
// without a charge. Edges are followed through the successor slots; only
// an unresolved edge reaches the intern table. Callers hold c.mu and have
// touched id.
func (c *downsetCore) walk(id int, maxWork float64) ([]Expansion, error) {
	if c.dfsEpoch == math.MaxInt32 {
		for i := range c.states {
			c.states[i].dfsSeen = 0
		}
		c.dfsEpoch = 0
	}
	c.dfsEpoch++
	stamp := c.dfsEpoch
	c.states[id].dfsSeen = stamp

	// counts tracks the count vector of the state on top of the stack.
	counts := append(c.walkCounts[:0], c.countsOf(id)...)
	stack := append(c.walkStack[:0], dfsFrame{id: int32(id)})
	res := c.walkRes[:0]
	defer func() { c.walkCounts, c.walkStack, c.walkRes = counts, stack[:0], res[:0] }()
	// err is the outcome of the latest charge. A refused charge abandons
	// only the frame it occurred in: the parent resumes with its next level,
	// and a later successful charge (a state this run already touched)
	// clears err again. The walk fails iff its last charge was refused; a
	// walk that recovers returns (and memoizes) the expansions it charged.
	// The golden results are pinned to this behaviour; refCore, the test
	// oracle, specifies it.
	var err error
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		y := int(top.y)
		if y == c.stride {
			stack = stack[:len(stack)-1]
			if n := len(stack); n > 0 {
				counts[stack[n-1].y]--
				stack[n-1].y++
			}
			continue
		}
		from := int(top.id)
		slot := c.succ[from*c.stride+y]
		p := int(counts[y])
		if slot == succBlocked || p == len(c.levelW[y]) {
			top.y++
			continue
		}
		// The work check precedes the predecessor check, so an edge is
		// settled only once some walk can afford it.
		w := top.work + c.levelW[y][p]
		if w > maxWork || (slot == succUnknown && !c.addable(from, y, counts)) {
			top.y++
			continue
		}
		counts[y]++
		to := int(slot) - 1
		var charge error // refused only by interning a new state here
		if slot == succUnknown {
			to, charge = c.resolve(from, y, counts)
		}
		if charge == nil {
			if c.states[to].dfsSeen == stamp {
				counts[y]--
				top.y++
				continue
			}
			charge = c.touch(to)
		}
		if err = charge; err != nil {
			counts[y]--
			top.y = int32(c.stride) // abandon the rest of this frame
			continue
		}
		c.states[to].dfsSeen = stamp
		res = append(res, Expansion{To: to, ChunkWork: w})
		stack = append(stack, dfsFrame{id: int32(to), work: w})
	}
	if err != nil {
		return nil, err
	}
	return append([]Expansion(nil), res...), nil
}

func (c *downsetCore) predsIncluded(counts []uint8, s int) bool {
	for _, p := range c.preds[s] {
		if c.posInLevel[p] >= int(counts[c.levelOf[p]]) {
			return false
		}
	}
	return true
}

// AllDownsets enumerates every downset of the graph (subject to the state
// cap). It is primarily used by tests and by the exact solver on small
// instances.
func (ds *DownsetSpace) AllDownsets() ([]int, error) {
	c := ds.core
	c.mu.Lock()
	defer c.mu.Unlock()
	// BFS from the empty downset adding one stage at a time.
	var queue []int
	queue = append(queue, c.emptyID)
	visited := map[int]bool{c.emptyID: true}
	counts := make([]uint8, c.stride)
	for qi := 0; qi < len(queue); qi++ {
		id := queue[qi]
		copy(counts, c.countsOf(id))
		for y := range counts {
			slot := c.succ[id*c.stride+y]
			if slot == succBlocked || (slot == succUnknown && !c.addable(id, y, counts)) {
				continue
			}
			to := int(slot) - 1
			var err error
			if slot == succUnknown {
				counts[y]++
				to, err = c.resolve(id, y, counts)
				counts[y]--
			}
			if err == nil {
				err = c.touch(to)
			}
			if err != nil {
				return nil, err
			}
			if !visited[to] {
				visited[to] = true
				queue = append(queue, to)
			}
		}
	}
	return queue, nil
}
