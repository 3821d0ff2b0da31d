// Command perfbench is the repository benchmark. One invocation runs one
// named workload against the public entry points of the mapping stack —
// engine.Run, the service handler over loopback HTTP,
// experiments.SelectPeriod and exact.Solver.SolveStats — for a fixed
// measurement window, verifies every answer against an independent
// reference, and prints one JSON result as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end numbers a user sees, measured
// with no instrumentation on the timed path. With -trace 1 the workload runs
// once plainly and once with the benchmark's own spans wrapped around the
// calls into each layer, and the metrics are the per-layer numbers of the
// traced run (see README.md for every definition). Any answer that differs
// from its reference makes the command exit 1 after printing the result; a
// set-up failure exits 2 without a result.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload map-mixed --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every workload reports with tracing
// off, with their units. BENCHMARK.json declares the same set.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"items_per_s", "item/s"},
	{"request_p50_ms", "ms"},
	{"request_tail_ms", "ms"},
	{"slo_ratio", "fraction"},
	{"max_rss_mb", "MiB"},
}

// heuristicNames are the five heuristics of the paper, in presentation order.
var heuristicNames = []string{"Random", "Greedy", "DPA2D", "DPA1D", "DPA2D1D"}

// perLayer lists the per-layer metrics every workload reports with tracing
// on. A layer a workload does not exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"spg.build_ms", "ms"},
		{"spg.scale_ms", "ms"},
		{"spg.analysis_mb", "MiB"},
	}
	for _, h := range heuristicNames {
		defs = append(defs,
			metricDef{"core." + h + ".ms", "ms"},
			metricDef{"core." + h + ".calls", "count"},
			metricDef{"core." + h + ".no_solution", "count"})
	}
	defs = append(defs,
		metricDef{"core.period_divisions", "count"},
		metricDef{"core.select_period_ms", "ms"},
		metricDef{"runtime.alloc_mb_per_op", "MiB"},
		metricDef{"runtime.gc_cpu_frac", "fraction"},
		metricDef{"runtime.heap_peak_mb", "MiB"},
	)
	for _, row := range exactRows {
		g := row.grid
		defs = append(defs,
			metricDef{"exact.solve_ms." + g, "ms"},
			metricDef{"exact.placements." + g, "count"},
			metricDef{"exact.pruned_partitions." + g, "count"},
			metricDef{"exact.pruned_placements." + g, "count"},
			metricDef{"exact.units." + g, "count"},
			metricDef{"exact.seeded." + g, "fraction"})
	}
	defs = append(defs,
		metricDef{"engine.analysis_cache.hits", "count"},
		metricDef{"engine.analysis_cache.misses", "count"},
		metricDef{"engine.analysis_cache.evictions", "count"},
		metricDef{"engine.analysis_cache.bytes", "MiB"},
		metricDef{"engine.result_store.hits", "count"},
		metricDef{"engine.result_store.misses", "count"},
		metricDef{"engine.result_store.hit_ratio", "fraction"},
		metricDef{"engine.result_store.bytes", "MiB"},
		metricDef{"engine.pool.idle_ms", "ms"},
		metricDef{"engine.dispatch.chunks", "count"},
		metricDef{"engine.dispatch.remote_chunks", "count"},
		metricDef{"engine.dispatch.steals", "count"},
		metricDef{"engine.dispatch.redispatches", "count"},
		metricDef{"engine.dispatch.local_fallbacks", "count"},
		metricDef{"engine.dispatch.retries", "count"},
		metricDef{"engine.dispatch.remote_ms", "ms"},
		metricDef{"engine.dispatch.wire_ms", "ms"},
		metricDef{"engine.dispatch.idle_ms", "ms"},
		metricDef{"service.map.hit_ms", "ms"},
		metricDef{"service.map.warm_miss_ms", "ms"},
		metricDef{"service.map.cold_miss_ms", "ms"},
		metricDef{"service.map.client_ms", "ms"},
		metricDef{"service.map.shed", "count"},
		metricDef{"service.map.coalesced", "count"},
		metricDef{"service.map.status_422", "count"},
		metricDef{"loadgen.lag_ms", "ms"},
		metricDef{"loadgen.conn_wait_ms", "ms"},
		metricDef{"trace.overhead_ratio", "ratio"},
		metricDef{"trace.coverage", "fraction"},
	)
	return defs
}()

type metricDef struct{ name, unit string }

// runConfig is what every workload receives.
type runConfig struct {
	seed      int64
	window    time.Duration
	trace     bool
	procStart time.Time
	clients   int // client connections / pool workers: the CPU count
	out       string
}

// report is a workload's outcome before it is rendered.
type report struct {
	attempted, failed int64
	mismatches        int64
	examples          []string // the first few mismatches, for the log
	values            map[string]float64
}

func newReport() *report { return &report{values: make(map[string]float64)} }

// mismatch records an answer that differs from its reference: it is a failed
// operation and makes the run incorrect.
func (r *report) mismatch(format string, args ...any) {
	r.failed++
	r.mismatches++
	if len(r.examples) < 20 {
		r.examples = append(r.examples, fmt.Sprintf(format, args...))
	}
}

// workload runs one named workload.
type workload func(cfg runConfig) (*report, error)

var workloads = map[string]workload{
	"campaign-cold":         runCampaignCold,
	"campaign-warm-cluster": runWarmCluster,
	"map-mixed":             runMapMixed,
	"spgmap-exact":          runSpgmapExact,
}

func main() {
	procStart := time.Now()
	name := flag.String("workload", "", "workload to run: campaign-cold | campaign-warm-cluster | map-mixed | spgmap-exact")
	seed := flag.Int64("seed", 1, "workload seed; 1 reproduces the kernel golden cells")
	seconds := flag.Float64("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics untraced; 1 reports per-layer metrics from a traced run")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fatal(fmt.Errorf("unknown workload %q (want one of %v)", *name, names))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need --seconds > 0 and --trace 0 or 1"))
	}
	out := os.Getenv("PERFBENCH_OUT")
	if out == "" {
		out = ".bench_build"
	}
	cfg := runConfig{
		seed:      *seed,
		window:    time.Duration(*seconds * float64(time.Second)),
		trace:     *trace == 1,
		procStart: procStart,
		clients:   runtime.NumCPU(),
		out:       out,
	}
	rep, err := run(cfg)
	if err != nil {
		fatal(err)
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{Correct: rep.mismatches == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: rep.values[d.name], Unit: d.unit}
	}
	for _, m := range rep.examples {
		fmt.Fprintln(os.Stderr, "perfbench: mismatch:", m)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
