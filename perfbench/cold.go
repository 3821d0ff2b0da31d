package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"sync"
	"time"

	"spgcmp/internal/core"
	"spgcmp/internal/engine"
	"spgcmp/internal/experiments"
	"spgcmp/internal/mapping"
	"spgcmp/internal/platform"
	"spgcmp/internal/spg"
)

// goldenPath is the kernel golden file, relative to the repository root. The
// default seed reproduces its cell set exactly.
const goldenPath = "internal/experiments/testdata/kernel_golden.json"

// coldPassLimit is the campaign-cold latency limit for slo_ratio.
const coldPassLimit = 30 * time.Second

// coldWarmupStride thins the cell set for set-up's warm-up pass.
const coldWarmupStride = 4

// coldCells is the kernel-golden cell set: the 48 StreamIt app x CCR cells
// and 36 seeded random n=40 cells (random-panel seed 3), all on 4x4. Seed 1
// is the golden set itself. Other seeds keep its graphs and draw new seeds
// for every cell's Random heuristic, so they change the answers but hardly
// the cost of a pass: the cost of the panel's graphs varies far more from
// one graph seed to another than a run's figures may.
func coldCells(seed int64) ([]engine.Cell, error) {
	cells := experiments.StreamItCells(4, 4, nil, seed)
	for _, ccr := range []float64{10, 1, 0.1} {
		rc, err := experiments.RandomCells(experiments.RandomConfig{
			N: 40, P: 4, Q: 4, CCR: ccr,
			MinElevation: 1, MaxElevation: 6, GraphsPerElev: 2, Seed: 3,
		})
		if err != nil {
			return nil, err
		}
		for i := range rc {
			rc[i].Spec.Opts.Seed += (seed - 1) * 1_000_000_000
		}
		cells = append(cells, rc...)
	}
	return cells, nil
}

type coldSetup struct {
	cells []engine.Cell
	pool  *engine.PoolExecutor
}

// runCampaignCold runs the golden cell set through engine.Run on a CPU-count
// PoolExecutor with no analysis cache and no result store, pass after pass.
func runCampaignCold(cfg runConfig) (*report, error) {
	rep := newReport()
	st, setupS, err := setupTimes(cfg, 3, func() (coldSetup, error) {
		cells, err := coldCells(cfg.seed)
		if err != nil {
			return coldSetup{}, err
		}
		s := coldSetup{cells: cells, pool: &engine.PoolExecutor{Workers: cfg.clients}}
		// The discarded warm-up pass runs every coldWarmupStride-th cell:
		// enough to grow the heap and start the pool, at a fraction of a
		// full pass, which set-up repeats three times.
		var warm []engine.Cell
		for i := 0; i < len(cells); i += coldWarmupStride {
			warm = append(warm, cells[i])
		}
		_, err = engine.Run(context.Background(), s.pool, engine.Campaign{Cells: warm})
		return s, err
	}, func(coldSetup) {})
	if err != nil {
		return nil, err
	}
	rep.values["setup_s"] = setupS

	window := cfg.window
	if cfg.trace {
		window /= 2
	}
	var passes [][]engine.CellResult
	passTimes, elapsed, err := repeat(window, func() error {
		res, err := runColdPass(st)
		passes = append(passes, res)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.values["max_rss_mb"] = maxRSSMiB()

	var traced [][]engine.CellResult
	if cfg.trace {
		var tracedMS float64
		traced, tracedMS = tracedColdPasses(cfg, st, window, rep)
		rep.values["trace.overhead_ratio"] = tracedMS / median(passTimes)
	}

	check, err := coldReference(cfg.seed, st.cells, cfg.clients)
	if err != nil {
		return nil, err
	}
	within := 0
	for k, res := range append(passes, traced...) {
		bad := rep.failed
		for i, r := range res {
			rep.attempted++
			if r.Err != nil {
				rep.failed++
				continue
			}
			if msg := check(i, r); msg != "" {
				rep.mismatch("campaign-cold pass %d cell %s: %s", k, r.Key, msg)
			}
		}
		if k < len(passTimes) && rep.failed == bad && passTimes[k] <= ms(coldPassLimit) {
			within++
		}
	}
	if cfg.trace {
		for k, res := range traced {
			for i, r := range res {
				if !sameResult(r, passes[0][i]) {
					rep.mismatch("campaign-cold traced pass %d cell %s differs from the untraced pass", k, r.Key)
				}
			}
		}
	}
	rep.values["items_per_s"] = float64(len(passes)*len(st.cells)) / elapsed.Seconds()
	rep.values["request_p50_ms"] = median(passTimes)
	rep.values["request_tail_ms"] = tailMean(passTimes)
	rep.values["slo_ratio"] = float64(within) / float64(len(passTimes))
	return rep, nil
}

// repeat runs pass until window is spent and returns each pass's duration
// in milliseconds and the time taken. A pass starts only while at least
// half the previous one's duration remains, so the window is overrun by at
// most half a pass; there is always one pass.
func repeat(window time.Duration, pass func() error) ([]float64, time.Duration, error) {
	var times []float64
	start := time.Now()
	for last := time.Duration(0); len(times) == 0 || time.Since(start)+last/2 < window; {
		t0 := time.Now()
		if err := pass(); err != nil {
			return nil, 0, err
		}
		last = time.Since(t0)
		times = append(times, ms(last))
	}
	return times, time.Since(start), nil
}

func runColdPass(s coldSetup) ([]engine.CellResult, error) {
	return engine.Run(context.Background(), s.pool, engine.Campaign{Cells: s.cells})
}

// tracedColdPasses runs the traced replica of the cold pass for window and
// records the per-layer metrics. It returns the traced results and the
// median traced pass time.
func tracedColdPasses(cfg runConfig, st coldSetup, window time.Duration, rep *report) ([][]engine.CellResult, float64) {
	t := newTracer()
	ct := cellTracer{t: t}
	workers := cfg.clients
	var (
		out        [][]engine.CellResult
		analysisMB []float64
	)
	rw := startRuntimeWindow()
	passTimes, wall, _ := repeat(window, func() error {
		base, built := ct.passBasesRecorded(st.cells)
		res := make([]engine.CellResult, len(st.cells))
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := core.NewScratch()
				for i := range next {
					res[i] = ct.solve(i, st.cells[i], base, sc)
					sc.Reset()
				}
			}()
		}
		for i := range st.cells {
			next <- i
		}
		close(next)
		wg.Wait()
		var bytes int64
		for _, an := range built() {
			bytes += an.MemoryFootprint()
		}
		analysisMB = append(analysisMB, float64(bytes)/mib)
		out = append(out, res)
		return nil
	})
	n := len(passTimes)
	rw.finish(rep, n)
	lt := t.layers("cell")
	per := float64(n)
	rep.values["spg.build_ms"] = ms(lt.self["spg.build"]) / per
	rep.values["spg.scale_ms"] = ms(lt.self["spg.scale"]) / per
	rep.values["spg.analysis_mb"] = median(analysisMB)
	rep.values["engine.pool.idle_ms"] = (ms(wall)*float64(workers) - ms(lt.total["cell"])) / per
	rep.values["trace.coverage"] = lt.coverage
	coreMetrics(rep, t, n)
	if err := t.write(cfg.out+"/traces", fmt.Sprintf("campaign-cold-seed%d", cfg.seed)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
	return out, median(passTimes)
}

// passBasesRecorded is passBases that also reports every base it built.
func (ct cellTracer) passBasesRecorded(cells []engine.Cell) (baseFunc, func() []*spg.Analysis) {
	var (
		mu    sync.Mutex
		built []*spg.Analysis
	)
	inner := ct.passBases(cells)
	seen := make(map[*spg.Analysis]bool)
	return func(cell engine.Cell, parent int64) (*spg.Analysis, error) {
			an, err := inner(cell, parent)
			if err == nil {
				mu.Lock()
				if !seen[an] {
					seen[an] = true
					built = append(built, an)
				}
				mu.Unlock()
			}
			return an, err
		}, func() []*spg.Analysis {
			mu.Lock()
			defer mu.Unlock()
			return append([]*spg.Analysis(nil), built...)
		}
}

// coldReference returns the checker for one cell result. With the default
// seed it is the golden file, bit for bit. With any other seed it is a
// cache-off engine.Solve of every cell on its own, outside engine.Run, whose
// every feasible mapping re-evaluates, under mapping.Evaluate, to its
// reported energy within the selected period.
func coldReference(seed int64, cells []engine.Cell, workers int) (func(i int, r engine.CellResult) string, error) {
	if seed == 1 {
		buf, err := os.ReadFile(goldenPath)
		if err != nil {
			return nil, fmt.Errorf("reading the golden file: %w", err)
		}
		var want map[string]goldenCell
		if err := json.Unmarshal(buf, &want); err != nil {
			return nil, fmt.Errorf("decoding the golden file: %w", err)
		}
		if len(want) != len(cells) {
			return nil, fmt.Errorf("golden file has %d cells, the workload %d", len(want), len(cells))
		}
		return func(_ int, r engine.CellResult) string {
			w, ok := want[r.Key]
			if !ok {
				return "not in the golden file"
			}
			g := toGolden(r)
			if g.Feasible != w.Feasible || g.Period != w.Period || len(g.Outcomes) != len(w.Outcomes) {
				return fmt.Sprintf("verdict/period (%v, %s) != golden (%v, %s)", g.Feasible, g.Period, w.Feasible, w.Period)
			}
			for k, o := range g.Outcomes {
				if o != w.Outcomes[k] {
					return fmt.Sprintf("%+v != golden %+v", o, w.Outcomes[k])
				}
			}
			return ""
		}, nil
	}

	// Every cell is solved on its own, one engine.Solve per goroutine with no
	// cache, workers cells at a time.
	refs := make([]engine.CellResult, len(cells))
	errs := make([]error, len(cells))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				c := cells[i]
				c.Spec.Opts.KeepMappings = true
				ref := engine.Solve(c, nil)
				ref.Index = i
				if ref.Err != nil {
					errs[i] = fmt.Errorf("reference solve of %s: %w", c.Spec.Key, ref.Err)
					continue
				}
				if msg := checkMappings(c, ref); msg != "" {
					errs[i] = fmt.Errorf("reference cell %s: %s", c.Spec.Key, msg)
					continue
				}
				for k := range ref.Result.Outcomes {
					ref.Result.Outcomes[k].Mapping = nil
				}
				refs[i] = ref
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return func(i int, r engine.CellResult) string {
		if !sameResult(r, refs[i]) {
			return "differs from the cache-off per-cell reference"
		}
		return ""
	}, nil
}

// checkMappings re-evaluates every feasible outcome's mapping on the cell's
// graph at the selected period: the energy must be the reported one and the
// cycle time within the period.
func checkMappings(c engine.Cell, r engine.CellResult) string {
	an, err := c.Spec.Workload.Build()
	if err != nil {
		return err.Error()
	}
	if c.Spec.ScaleCCR {
		an = an.ScaleToCCR(c.Spec.CCR)
	}
	pl := platform.XScale(c.Spec.P, c.Spec.Q)
	for _, o := range r.Result.Outcomes {
		if !o.OK {
			continue
		}
		if o.Mapping == nil {
			return o.Heuristic + ": no mapping kept"
		}
		m, err := o.Mapping.Mapping(pl)
		if err != nil {
			return o.Heuristic + ": " + err.Error()
		}
		res, err := mapping.Evaluate(an.Graph(), pl, m, r.Result.Period)
		if err != nil {
			return o.Heuristic + ": " + err.Error()
		}
		if math.Float64bits(res.Energy) != math.Float64bits(o.Energy) || res.MaxCycleTime > r.Result.Period {
			return fmt.Sprintf("%s: re-evaluates to energy %v, cycle %v (reported %v, period %v)",
				o.Heuristic, res.Energy, res.MaxCycleTime, o.Energy, r.Result.Period)
		}
	}
	return ""
}

// goldenOutcome and goldenCell are the golden file's encoding: energies and
// periods in hex float form, so a single-ulp drift differs.
type goldenOutcome struct {
	Heuristic   string `json:"heuristic"`
	OK          bool   `json:"ok"`
	Energy      string `json:"energy,omitempty"`
	ActiveCores int    `json:"active_cores,omitempty"`
}

type goldenCell struct {
	Feasible bool            `json:"feasible"`
	Period   string          `json:"period"`
	Outcomes []goldenOutcome `json:"outcomes"`
}

func hexFloat(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }

func toGolden(r engine.CellResult) goldenCell {
	g := goldenCell{Feasible: r.Feasible, Period: hexFloat(r.Result.Period)}
	for _, o := range r.Result.Outcomes {
		e := goldenOutcome{Heuristic: o.Heuristic, OK: o.OK, ActiveCores: o.ActiveCores}
		if o.OK {
			e.Energy = hexFloat(o.Energy)
		}
		g.Outcomes = append(g.Outcomes, e)
	}
	return g
}
