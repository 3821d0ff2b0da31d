package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"spgcmp/internal/core"
	"spgcmp/internal/exact"
	"spgcmp/internal/experiments"
	"spgcmp/internal/platform"
	"spgcmp/internal/randspg"
	"spgcmp/internal/spg"
)

// exactLimit is the spgmap-exact latency limit for slo_ratio.
const exactLimit = 250 * time.Millisecond

// exactRows are the panel rows: a grid, the stage-count range of its random
// SPGs and how many distinct instances it has. The exhaustive engine, the
// reference on 2x2 and 2x3, takes up to tens of milliseconds per instance
// there, so those rows cycle through a fixed set; on 3x3 and 4x3 every
// action maps an instance not mapped before (the set outlasts the window),
// so latency percentiles are taken over thousands of distinct instances.
var exactRows = []struct {
	grid       string
	p, q       int
	minN, maxN int
	size       int
}{
	{"2x2", 2, 2, 7, 10, 32},
	{"2x3", 2, 3, 7, 8, 32},
	{"3x3", 3, 3, 9, 12, 4000},
	{"4x3", 4, 3, 10, 12, 4000},
}

// exactWarmup is the number of actions set-up runs before timing.
const exactWarmup = 128

// panelInstance is one small random SPG on one grid.
type panelInstance struct {
	name string
	grid string
	g    *spg.Graph
	pl   *platform.Platform
}

// exactPanel generates the rows' instances; action k maps instance k/len
// of row k%len, so the rows take turns.
type exactPanel [][]panelInstance

func newExactPanel(seed int64) (exactPanel, error) {
	rng := rand.New(rand.NewSource(seed))
	panel := make(exactPanel, len(exactRows))
	for r, row := range exactRows {
		for k := 0; k < row.size; k++ {
			p := randspg.Params{
				N:         row.minN + rng.Intn(row.maxN-row.minN+1),
				Elevation: 1 + rng.Intn(3),
				Seed:      seed*1_000_000 + int64(r)*100_000 + int64(k),
				CCR:       mapCCRs[rng.Intn(len(mapCCRs))],
			}
			g, err := randspg.Generate(p)
			if err != nil {
				return nil, fmt.Errorf("panel instance %+v: %w", p, err)
			}
			panel[r] = append(panel[r], panelInstance{
				name: fmt.Sprintf("%s/n=%d/y=%d/seed=%d/ccr=%g", row.grid, p.N, p.Elevation, p.Seed, p.CCR),
				grid: row.grid, g: g, pl: platform.XScale(row.p, row.q),
			})
		}
	}
	return panel, nil
}

func (p exactPanel) action(k int) *panelInstance {
	row := p[k%len(p)]
	return &row[(k/len(p))%len(row)]
}

// exactAnswer is one spgmap -autoperiod -exact action's output.
type exactAnswer struct {
	period     float64
	heuristics []core.CellOutcome
	energy     float64
	mapping    []byte // the optimum's wire form
	stats      exact.Stats
	err        error
}

func (a exactAnswer) same(b exactAnswer) bool {
	return a.period == b.period && math.Float64bits(a.energy) == math.Float64bits(b.energy) && string(a.mapping) == string(b.mapping)
}

// exactSolve runs the exact solver on the instance at period T.
func exactSolve(s *exact.Solver, in *panelInstance, T float64) exactAnswer {
	sol, st, err := s.SolveStats(context.Background(), core.Instance{Graph: in.g, Platform: in.pl, Period: T})
	a := exactAnswer{period: T, stats: st, err: err}
	if err != nil {
		return a
	}
	a.energy = sol.Energy()
	a.mapping, a.err = json.Marshal(sol.Mapping.Wire(in.pl))
	return a
}

// errNoPeriod is the protocol's verdict when no heuristic succeeds at 1 s.
var errNoPeriod = errors.New("no heuristic succeeds even at T = 1 s")

// exactAction is what `spgmap -autoperiod -exact` does for one instance:
// the arena-less period-selection protocol, then branch-and-bound at the
// selected period. t, when set, wraps both calls in spans.
func exactAction(s *exact.Solver, in *panelInstance, seed int64, t *tracer) exactAnswer {
	if t == nil {
		ir, ok := experiments.SelectPeriod(in.g, in.pl, seed)
		if !ok {
			return exactAnswer{err: errNoPeriod}
		}
		a := exactSolve(s, in, ir.Period)
		a.heuristics = ir.Outcomes
		return a
	}
	id, start := t.id(), time.Now()
	defer func() { t.record(id, 0, "instance", start, in.grid) }()
	var (
		ir experiments.InstanceResult
		ok bool
		a  exactAnswer
	)
	t.span(id, "select_period", in.grid, func() { ir, ok = experiments.SelectPeriod(in.g, in.pl, seed) })
	if !ok {
		return exactAnswer{err: errNoPeriod}
	}
	t.span(id, "exact.solve", in.grid, func() { a = exactSolve(s, in, ir.Period) })
	a.heuristics = ir.Outcomes
	return a
}

type exactSample struct {
	in  *panelInstance
	ms  float64
	ans exactAnswer
}

// runSpgmapExact cycles through a seeded panel of small random SPGs on 2x2,
// 2x3, 3x3 and 4x3, one spgmap -autoperiod -exact action at a time.
func runSpgmapExact(cfg runConfig) (*report, error) {
	rep := newReport()
	type setup struct {
		panel  exactPanel
		solver *exact.Solver
	}
	st, setupS, err := setupTimes(cfg, 3, func() (setup, error) {
		panel, err := newExactPanel(cfg.seed)
		if err != nil {
			return setup{}, err
		}
		s := exact.NewSolver()
		s.Seed = cfg.seed
		// The warm-up's answers are discarded: the timed window starts over
		// at the same actions, and they are verified there.
		for k := 0; k < exactWarmup; k++ {
			exactAction(s, panel.action(k), cfg.seed, nil)
		}
		return setup{panel: panel, solver: s}, nil
	}, func(setup) {})
	if err != nil {
		return nil, err
	}
	rep.values["setup_s"] = setupS

	window := cfg.window
	if cfg.trace {
		window /= 2
	}
	next := 0
	run := func(t *tracer, window time.Duration) ([]exactSample, time.Duration) {
		var out []exactSample
		start := time.Now()
		for time.Since(start) < window {
			in := st.panel.action(next)
			next++
			t0 := time.Now()
			a := exactAction(st.solver, in, cfg.seed, t)
			out = append(out, exactSample{in: in, ms: ms(time.Since(t0)), ans: a})
		}
		return out, time.Since(start)
	}
	samples, elapsed := run(nil, window)
	rep.values["max_rss_mb"] = maxRSSMiB()
	all := samples
	if cfg.trace {
		t := newTracer()
		rw := startRuntimeWindow()
		traced, _ := run(t, window)
		rw.finish(rep, len(traced))
		exactLayers(rep, t, traced)
		rep.values["trace.overhead_ratio"] = median(sampleMS(traced)) / median(sampleMS(samples))
		if err := t.write(cfg.out+"/traces", fmt.Sprintf("spgmap-exact-seed%d", cfg.seed)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
		all = append(append([]exactSample(nil), samples...), traced...)
	}

	ok := verifyExact(rep, cfg.seed, all)
	var lat []float64
	answered, within := 0, 0
	for i, s := range samples {
		lat = append(lat, s.ms)
		if ok[i] {
			answered++
			if s.ms <= ms(exactLimit) {
				within++
			}
		}
	}
	rep.values["items_per_s"] = float64(answered) / elapsed.Seconds()
	rep.values["request_p50_ms"] = median(lat)
	rep.values["request_tail_ms"] = tailMean(lat)
	rep.values["slo_ratio"] = float64(within) / float64(len(samples))
	return rep, nil
}

func sampleMS(ss []exactSample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.ms
	}
	return out
}

// verifyExact checks every answer. The first answer of each panel instance
// must equal branch-and-bound at one worker, the exhaustive engine on the
// 2x2 and 2x3 rows it finishes, and be no worse than any heuristic (within
// 1e-9 relative); every later answer must equal the first bit for bit. An
// instance the solver finds no mapping for while a heuristic found one is a
// mismatch; any other solver error is a failure. It reports, per sample,
// whether the answer was correct.
func verifyExact(rep *report, seed int64, all []exactSample) []bool {
	type verdict struct {
		first exactAnswer
		msg   string
	}
	verdicts := make(map[*panelInstance]verdict)
	ok := make([]bool, len(all))
	for i, s := range all {
		rep.attempted++
		in := s.in
		if err := s.ans.err; err != nil {
			if o, found := cheapestHeuristic(s.ans); errors.Is(err, core.ErrNoSolution) && found {
				rep.mismatch("spgmap-exact %s: the exact solver found no mapping at T = %g, %s found one of energy %v",
					in.name, s.ans.period, o.Heuristic, o.Energy)
			} else {
				rep.failed++
				fmt.Fprintf(os.Stderr, "perfbench: spgmap-exact %s: %v\n", in.name, err)
			}
			continue
		}
		v, seen := verdicts[in]
		if !seen {
			v = verdict{first: s.ans, msg: checkExactAnswer(in, seed, s.ans)}
			verdicts[in] = v
		} else if !s.ans.same(v.first) {
			rep.mismatch("spgmap-exact %s: answer differs between repetitions", in.name)
			continue
		}
		if v.msg != "" {
			rep.mismatch("spgmap-exact %s: %s", in.name, v.msg)
			continue
		}
		ok[i] = true
	}
	return ok
}

// cheapestHeuristic is the heuristic outcome of lowest energy, if any
// heuristic succeeded.
func cheapestHeuristic(a exactAnswer) (core.CellOutcome, bool) {
	var best core.CellOutcome
	found := false
	for _, o := range a.heuristics {
		if o.OK && (!found || o.Energy < best.Energy) {
			best, found = o, true
		}
	}
	return best, found
}

func checkExactAnswer(in *panelInstance, seed int64, a exactAnswer) string {
	serial := exact.NewSolver()
	serial.Seed = seed
	serial.Workers = 1
	if b := exactSolve(serial, in, a.period); b.err != nil || !a.same(b) {
		return fmt.Sprintf("differs from branch-and-bound at one worker (%v)", b.err)
	}
	if in.grid == "2x2" || in.grid == "2x3" {
		ex := exact.NewSolver()
		ex.Exhaustive = true
		b := exactSolve(ex, in, a.period)
		if b.err != nil || b.stats.Truncated {
			return fmt.Sprintf("the exhaustive engine did not finish (%v)", b.err)
		}
		if !a.same(b) {
			return fmt.Sprintf("optimum %v differs from the exhaustive engine's %v", a.energy, b.energy)
		}
	}
	if o, found := cheapestHeuristic(a); found && a.energy > o.Energy*(1+1e-9) {
		return fmt.Sprintf("optimum %v exceeds %s's %v", a.energy, o.Heuristic, o.Energy)
	}
	return ""
}

// exactLayers reports the traced spans and exact.Stats per panel row.
func exactLayers(rep *report, t *tracer, traced []exactSample) {
	lt := t.layers("instance")
	n := float64(len(traced))
	rep.values["core.select_period_ms"] = ms(lt.total["select_period"]) / n
	rep.values["trace.coverage"] = lt.coverage
	solveMS := make(map[string]time.Duration)
	for _, s := range t.snapshot() {
		if s.Name == "exact.solve" {
			solveMS[s.Attr] += s.dur()
		}
	}
	type acc struct {
		n                                   int
		placements, prunedPart, prunedPlace int64
		units, seeded                       int
	}
	rows := make(map[string]*acc)
	for _, s := range traced {
		g := s.in.grid
		a := rows[g]
		if a == nil {
			a = &acc{}
			rows[g] = a
		}
		st := s.ans.stats
		a.n++
		a.placements += st.Placements
		a.prunedPart += st.PrunedPartitions
		a.prunedPlace += st.PrunedPlacements
		a.units += st.Units
		if st.Seeded {
			a.seeded++
		}
	}
	for g, a := range rows {
		per := float64(a.n)
		rep.values["exact.solve_ms."+g] = ms(solveMS[g]) / per
		rep.values["exact.placements."+g] = float64(a.placements) / per
		rep.values["exact.pruned_partitions."+g] = float64(a.prunedPart) / per
		rep.values["exact.pruned_placements."+g] = float64(a.prunedPlace) / per
		rep.values["exact.units."+g] = float64(a.units) / per
		rep.values["exact.seeded."+g] = float64(a.seeded) / per
	}
}
