package spg

import (
	"bytes"
	"fmt"
)

// refCore is the reference downset walk the successor-edge core must match:
// a recursive DFS that hashes the full count vector (FNV-1a) and compares it
// byte-wise on every lattice edge of every enumeration. It is deliberately
// naive and only exists as a differential oracle; nothing outside tests
// uses it.
type refCore struct {
	g          *Graph
	levels     [][]int
	levelOf    []int
	posInLevel []int
	preds      [][]int

	stride int
	words  int
	counts []uint8
	bits   []uint64
	size   []int

	table []int32

	lastSeen   []int
	epoch      int
	runIDs     []int
	runIndexOf []int

	exp []refExpEntry

	dfsSeen  []int
	dfsEpoch int

	maxStates int
	emptyID   int
	fullID    int
}

type refExpEntry struct {
	maxWork float64
	exps    []Expansion
	valid   bool
}

func newRefCore(g *Graph, maxStates int) (*refCore, error) {
	levels := Levels(g)
	maxStates = NormalizeStateBudget(maxStates)
	for _, lv := range levels {
		if len(lv) > 255 {
			return nil, fmt.Errorf("spg: elevation level with %d stages exceeds uint8 count encoding", len(lv))
		}
	}
	n := g.N()
	c := &refCore{
		g:          g,
		levels:     levels,
		levelOf:    make([]int, n),
		posInLevel: make([]int, n),
		preds:      make([][]int, n),
		stride:     len(levels),
		words:      (n + 63) / 64,
		table:      refInternTable(1 << 8),
		maxStates:  maxStates,
		epoch:      1,
	}
	for y, lv := range levels {
		for p, s := range lv {
			c.levelOf[s] = y
			c.posInLevel[s] = p
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

func (c *refCore) BeginRun() {
	c.epoch++
	c.runIDs = c.runIDs[:0]
	_ = c.touch(c.emptyID)
	_ = c.touch(c.fullID)
}

func (c *refCore) countsOf(id int) []uint8 {
	return c.counts[id*c.stride : (id+1)*c.stride]
}

func refInternTable(capacity int) []int32 {
	t := make([]int32, capacity)
	for i := range t {
		t[i] = -1
	}
	return t
}

func refHashCounts(counts []uint8) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range counts {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

func (c *refCore) lookup(counts []uint8) (int, bool) {
	mask := uint64(len(c.table) - 1)
	for i := refHashCounts(counts) & mask; ; i = (i + 1) & mask {
		t := c.table[i]
		if t < 0 {
			return -1, false
		}
		if bytes.Equal(c.countsOf(int(t)), counts) {
			return int(t), true
		}
	}
}

func (c *refCore) growTable() {
	nt := refInternTable(2 * len(c.table))
	mask := uint64(len(nt) - 1)
	for id := 0; id < len(c.size); id++ {
		i := refHashCounts(c.countsOf(id)) & mask
		for nt[i] >= 0 {
			i = (i + 1) & mask
		}
		nt[i] = int32(id)
	}
	c.table = nt
}

func (c *refCore) intern(counts []uint8) (int, error) {
	if len(c.runIDs) >= c.maxStates {
		return -1, ErrStateLimit
	}
	id := len(c.size)
	if (id+1)*4 > len(c.table)*3 {
		c.growTable()
	}
	mask := uint64(len(c.table) - 1)
	i := refHashCounts(counts) & mask
	for c.table[i] >= 0 {
		i = (i + 1) & mask
	}
	c.table[i] = int32(id)

	c.counts = append(c.counts, counts...)
	base := len(c.bits)
	for w := 0; w < c.words; w++ {
		c.bits = append(c.bits, 0)
	}
	sz := 0
	for y, cnt := range counts {
		sz += int(cnt)
		for p := 0; p < int(cnt); p++ {
			s := c.levels[y][p]
			c.bits[base+(s>>6)] |= 1 << (uint(s) & 63)
		}
	}
	c.size = append(c.size, sz)
	c.lastSeen = append(c.lastSeen, 0)
	c.runIndexOf = append(c.runIndexOf, 0)
	c.exp = append(c.exp, refExpEntry{})
	c.dfsSeen = append(c.dfsSeen, 0)
	return id, c.touch(id)
}

func (c *refCore) touch(id int) error {
	if c.lastSeen[id] == c.epoch {
		return nil
	}
	if len(c.runIDs) >= c.maxStates {
		return ErrStateLimit
	}
	c.lastSeen[id] = c.epoch
	c.runIndexOf[id] = len(c.runIDs)
	c.runIDs = append(c.runIDs, id)
	return nil
}

func (c *refCore) visit(counts []uint8) (int, error) {
	if id, ok := c.lookup(counts); ok {
		return id, c.touch(id)
	}
	return c.intern(counts)
}

// cout sums the volumes of g's edges leaving downset id, in edge order.
func (c *refCore) cout(g *Graph, id int) float64 {
	contains := func(s int) bool { return c.bits[id*c.words+(s>>6)]>>(uint(s)&63)&1 != 0 }
	var total float64
	for _, e := range g.Edges {
		if contains(e.Src) && !contains(e.Dst) {
			total += e.Volume
		}
	}
	return total
}

func (c *refCore) Expansions(id int, maxWork float64) ([]Expansion, error) {
	entry, err := c.ensureExpansions(id, maxWork)
	if err != nil {
		return nil, err
	}
	var out []Expansion
	if err := c.replay(entry, maxWork, func(ex Expansion) { out = append(out, ex) }); err != nil {
		return nil, err
	}
	return out, nil
}

func (c *refCore) ExpansionsInRun(k int, maxWork float64) ([]Expansion, error) {
	entry, err := c.ensureExpansions(c.runIDs[k], maxWork)
	if err != nil {
		return nil, err
	}
	var out []Expansion
	err = c.replay(entry, maxWork, func(ex Expansion) {
		out = append(out, Expansion{To: c.runIndexOf[ex.To], ChunkWork: ex.ChunkWork})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (c *refCore) replay(entry refExpEntry, maxWork float64, emit func(Expansion)) error {
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

func (c *refCore) ensureExpansions(id int, maxWork float64) (refExpEntry, error) {
	if e := c.exp[id]; e.valid && e.maxWork >= maxWork {
		return e, c.touch(id)
	}
	if err := c.touch(id); err != nil {
		return refExpEntry{}, err
	}
	counts := make([]uint8, c.stride)
	copy(counts, c.countsOf(id))
	c.dfsEpoch++
	c.dfsSeen[id] = c.dfsEpoch
	var res []Expansion
	var err error
	var dfs func(work float64)
	dfs = func(work float64) {
		if err != nil {
			return
		}
		for y := range counts {
			p := int(counts[y])
			if p >= len(c.levels[y]) {
				continue
			}
			s := c.levels[y][p]
			w := work + c.g.Stages[s].Weight
			if w > maxWork {
				continue
			}
			if !c.predsIncluded(counts, s) {
				continue
			}
			counts[y]++
			to, ok := c.lookup(counts)
			if !ok || c.dfsSeen[to] != c.dfsEpoch {
				if ok {
					err = c.touch(to)
				} else {
					to, err = c.intern(counts)
				}
				if err != nil {
					counts[y]--
					return
				}
				c.dfsSeen[to] = c.dfsEpoch
				res = append(res, Expansion{To: to, ChunkWork: w})
				dfs(w)
			}
			counts[y]--
		}
	}
	dfs(0)
	if err != nil {
		return refExpEntry{}, err
	}
	e := refExpEntry{maxWork: maxWork, exps: res, valid: true}
	c.exp[id] = e
	return e, nil
}

func (c *refCore) predsIncluded(counts []uint8, s int) bool {
	for _, p := range c.preds[s] {
		if c.posInLevel[p] >= int(counts[c.levelOf[p]]) {
			return false
		}
	}
	return true
}

func (c *refCore) AllDownsets() ([]int, error) {
	var queue []int
	queue = append(queue, c.emptyID)
	visited := map[int]bool{c.emptyID: true}
	counts := make([]uint8, c.stride)
	for qi := 0; qi < len(queue); qi++ {
		id := queue[qi]
		copy(counts, c.countsOf(id))
		for y := range counts {
			p := int(counts[y])
			if p >= len(c.levels[y]) {
				continue
			}
			s := c.levels[y][p]
			if !c.predsIncluded(counts, s) {
				continue
			}
			counts[y]++
			to, err := c.visit(counts)
			counts[y]--
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
