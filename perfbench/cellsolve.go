package main

import (
	"errors"
	"math"
	"sync"
	"time"

	"spgcmp/internal/core"
	"spgcmp/internal/engine"
	"spgcmp/internal/platform"
	"spgcmp/internal/spg"
)

// cellTracer replays the engine's solve of one cell — family-base build,
// CCR scaling, and the period-selection protocol over the five heuristics on
// a caller-owned arena reset between periods — with a span around each call
// into the spg and core layers. Its outcomes must equal engine.Run's; the
// workloads check that they do.
type cellTracer struct{ t *tracer }

// baseFunc resolves a cell's family-base analysis; parent is the cell span.
type baseFunc func(cell engine.Cell, parent int64) (*spg.Analysis, error)

// build runs WorkloadSpec.Build under an "spg.build" span.
func (ct cellTracer) build(cell engine.Cell, parent int64) (*spg.Analysis, error) {
	id, start := ct.t.id(), time.Now()
	an, err := cell.Spec.Workload.Build()
	ct.t.record(id, parent, "spg.build", start, "")
	return an, err
}

// passBases mirrors the engine's resolver with the campaign cache disabled:
// cells of one run sharing a cache key share one base analysis, built once;
// uniquely keyed cells build their own.
func (ct cellTracer) passBases(cells []engine.Cell) baseFunc {
	counts := make(map[string]int)
	for _, c := range cells {
		if c.Spec.CacheKey != "" {
			counts[c.Spec.CacheKey]++
		}
	}
	type entry struct {
		once sync.Once
		an   *spg.Analysis
		err  error
	}
	var mu sync.Mutex
	shared := make(map[string]*entry)
	return func(cell engine.Cell, parent int64) (*spg.Analysis, error) {
		if counts[cell.Spec.CacheKey] <= 1 {
			return ct.build(cell, parent)
		}
		mu.Lock()
		e := shared[cell.Spec.CacheKey]
		if e == nil {
			e = &entry{}
			shared[cell.Spec.CacheKey] = e
		}
		mu.Unlock()
		e.once.Do(func() { e.an, e.err = ct.build(cell, parent) })
		return e.an, e.err
	}
}

// cachedBases resolves bases through an analysis cache, as the service does.
func (ct cellTracer) cachedBases(cache *engine.AnalysisCache) baseFunc {
	return func(cell engine.Cell, parent int64) (*spg.Analysis, error) {
		return cache.Get(cell.Spec.CacheKey, func() (*spg.Analysis, error) { return ct.build(cell, parent) })
	}
}

// solve solves cell i under a root "cell" span.
func (ct cellTracer) solve(i int, cell engine.Cell, base baseFunc, sc *core.Scratch) engine.CellResult {
	id, start := ct.t.id(), time.Now()
	defer func() { ct.t.record(id, 0, "cell", start, cell.Spec.Key) }()
	r := engine.CellResult{Index: i, Key: cell.Spec.Key}
	an, err := base(cell, id)
	if err != nil {
		r.Err = err
		return r
	}
	if cell.Spec.ScaleCCR {
		sid, s0 := ct.t.id(), time.Now()
		an = an.ScaleToCCR(cell.Spec.CCR)
		ct.t.record(sid, id, "spg.scale", s0, "")
	}
	divisions := cell.Spec.MaxDivisions
	if divisions <= 0 {
		divisions = engine.DefaultMaxDivisions
	}
	opts := cell.Spec.Opts
	inst := core.Instance{Graph: an.Graph(), Platform: platform.XScale(cell.Spec.P, cell.Spec.Q), Period: 1.0, Analysis: an, Scratch: sc}
	outcomes := ct.period(inst, opts, id)
	if !core.AnyOK(outcomes) {
		r.Result = engine.InstanceResult{Period: inst.Period, Outcomes: outcomes}
		return r
	}
	for d := 0; d < divisions; d++ {
		sc.Reset()
		tighter := inst.WithPeriod(inst.Period / 10)
		next := ct.period(tighter, opts, id)
		if !core.AnyOK(next) {
			break
		}
		inst, outcomes = tighter, next
	}
	r.Result = engine.InstanceResult{Period: inst.Period, Outcomes: outcomes}
	r.Feasible = true
	return r
}

// period runs every heuristic at one period under a "core.period" span, one
// "core.<heuristic>" child span per Solve, tagged no_solution on failure.
func (ct cellTracer) period(inst core.Instance, o core.Options, parent int64) []core.CellOutcome {
	pid, p0 := ct.t.id(), time.Now()
	hs := core.AllWith(o)
	out := make([]core.CellOutcome, len(hs))
	for i, h := range hs {
		out[i].Heuristic = h.Name()
		hid, h0 := ct.t.id(), time.Now()
		sol, err := h.Solve(inst)
		attr := ""
		switch {
		case errors.Is(err, core.ErrNoSolution):
			attr = "no_solution"
		case err != nil:
			attr = "error"
		}
		ct.t.record(hid, pid, "core."+h.Name(), h0, attr)
		if err != nil {
			continue
		}
		out[i].OK = true
		out[i].Energy = sol.Energy()
		out[i].ActiveCores = sol.Result.ActiveCores
		if o.KeepMappings {
			out[i].Mapping = sol.Mapping.Wire(inst.Platform)
		}
	}
	ct.t.record(pid, parent, "core.period", p0, "")
	return out
}

// coreMetrics reports the core-layer spans per op: each heuristic's time,
// calls and no-solution verdicts, and the period divisions tried (periods
// solved beyond each cell's first).
func coreMetrics(rep *report, t *tracer, ops int) {
	if ops <= 0 {
		return
	}
	lt := t.layers("cell")
	per := float64(ops)
	noSol := make(map[string]int)
	for _, s := range t.snapshot() {
		if s.Attr == "no_solution" {
			noSol[s.Name]++
		}
	}
	for _, h := range heuristicNames {
		n := "core." + h
		rep.values[n+".ms"] = ms(lt.self[n]) / per
		rep.values[n+".calls"] = float64(lt.count[n]) / per
		rep.values[n+".no_solution"] = float64(noSol[n]) / per
	}
	rep.values["core.period_divisions"] = float64(lt.count["core.period"]-lt.count["cell"]) / per
}

// sameResult reports whether two cell results carry identical answers:
// verdict, selected period and every outcome, energies compared bit for bit.
func sameResult(a, b engine.CellResult) bool {
	if a.Key != b.Key || a.Feasible != b.Feasible || (a.Err == nil) != (b.Err == nil) {
		return false
	}
	if a.Result.Period != b.Result.Period || len(a.Result.Outcomes) != len(b.Result.Outcomes) {
		return false
	}
	for i, o := range a.Result.Outcomes {
		p := b.Result.Outcomes[i]
		if o.Heuristic != p.Heuristic || o.OK != p.OK || o.ActiveCores != p.ActiveCores ||
			math.Float64bits(o.Energy) != math.Float64bits(p.Energy) || (o.Mapping == nil) != (p.Mapping == nil) {
			return false
		}
	}
	return true
}
