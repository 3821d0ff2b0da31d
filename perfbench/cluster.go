package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"spgcmp/internal/engine"
	"spgcmp/internal/experiments"
	"spgcmp/internal/service"
)

// clusterPassLimit is the campaign-warm-cluster latency limit for slo_ratio.
const clusterPassLimit = 2 * time.Second

// clusterTailGroup is how many consecutive passes request_tail_ms takes its
// slowest-tenth mean over; the figure is the median over the groups.
const clusterTailGroup = 10

// clusterWarmups is the number of campaign passes set-up runs to warm the
// workers' analyses.
const clusterWarmups = 2

// streamItCells is the cell count of one full-suite StreamIt campaign.
var streamItCells = len(experiments.StreamItCells(4, 4, nil, 0))

// cluster is a coordinator with the result store on, as spgserve ships it,
// dispatching to two loopback workers with one pool worker each. Every
// server has its own analysis cache and result store.
type cluster struct {
	coord   *loopback
	workers []*loopback
	caches  []*engine.AnalysisCache
	stores  []*engine.ResultStore
	client  *http.Client
	tracer  *atomic.Pointer[tracer]
	pass    atomic.Int64 // the running pass's span id, parent of dispatch requests
}

func newCluster(traceable bool) (*cluster, error) {
	c := &cluster{tracer: &atomic.Pointer[tracer]{}, client: newClient(2)}
	wrap := func(role string, h http.Handler) http.Handler {
		if !traceable {
			return h
		}
		return switchable{role: role, next: h, tracer: c.tracer}
	}
	var urls []string
	for i := 0; i < 2; i++ {
		cache, store := engine.NewAnalysisCache(512), engine.NewResultStore(4096, 0)
		srv := service.New(service.Config{Cache: cache, Store: store, Executor: &engine.PoolExecutor{Workers: 1}})
		lb, err := serveLoopback(wrap("worker", srv.Handler()))
		if err != nil {
			c.close()
			return nil, err
		}
		c.workers = append(c.workers, lb)
		c.caches = append(c.caches, cache)
		c.stores = append(c.stores, store)
		urls = append(urls, lb.url)
	}
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 4}
	if traceable {
		rt = switchableTransport{base: rt, tracer: c.tracer, parent: c.pass.Load}
	}
	cache, store := engine.NewAnalysisCache(512), engine.NewResultStore(4096, 0)
	srv := service.New(service.Config{
		Cache:    cache,
		Store:    store,
		Executor: &engine.PoolExecutor{},
		Registry: engine.NewWorkerRegistry(engine.RegistryConfig{}, urls...),
		Client:   &http.Client{Transport: rt},
	})
	lb, err := serveLoopback(wrap("coordinator", srv.Handler()))
	if err != nil {
		c.close()
		return nil, err
	}
	c.coord = lb
	c.caches = append(c.caches, cache)
	c.stores = append(c.stores, store)
	return c, nil
}

func (c *cluster) close() {
	if c.coord != nil {
		c.coord.close()
	}
	for _, w := range c.workers {
		w.close()
	}
	c.client.CloseIdleConnections()
}

// campaignStatus is the part of GET /v1/campaign/{id} the benchmark reads.
type campaignStatus struct {
	ID             string          `json:"id"`
	Status         string          `json:"status"`
	Error          string          `json:"error"`
	Redispatches   int64           `json:"redispatches"`
	LocalFallbacks int64           `json:"local_fallbacks"`
	Steals         int64           `json:"steals"`
	Retries        int64           `json:"retries"`
	Result         json.RawMessage `json:"result"`
}

// clusterSeed is the campaign seed of pass k: passes step by 1000 so their
// per-cell Random seeds (campaign seed + cell index) never overlap.
func clusterSeed(seed int64, k int) int64 { return seed*1_000_000 + int64(k)*1000 }

// runPass submits one StreamIt campaign to the coordinator and polls it to
// completion.
func (c *cluster) runPass(seed int64) (campaignStatus, error) {
	return c.runCampaign(c.coord.url, seed)
}

// runCampaign submits one StreamIt campaign to the server at base and polls
// it to completion.
func (c *cluster) runCampaign(base string, seed int64) (campaignStatus, error) {
	var sub struct {
		ID string `json:"id"`
	}
	body := map[string]any{"streamit": map[string]any{"p": 4, "q": 4, "seed": seed}}
	if err := doJSON(c.client, "POST", base+"/v1/campaign", body, http.StatusAccepted, &sub); err != nil {
		return campaignStatus{}, err
	}
	for {
		var st campaignStatus
		if err := doJSON(c.client, "GET", base+"/v1/campaign/"+sub.ID, nil, http.StatusOK, &st); err != nil {
			return st, err
		}
		if st.Status == "running" {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		if st.Status != "done" {
			return st, fmt.Errorf("campaign %s ended %s: %s", st.ID, st.Status, st.Error)
		}
		return st, doJSON(c.client, "DELETE", base+"/v1/campaign/"+sub.ID, nil, http.StatusOK, nil)
	}
}

// warmWorkers runs one full campaign on each worker directly, the workers at
// once, so every worker holds every cell's analysis and memo state: a chunk
// the dispatcher steals is as warm on the thief as on its owner. (Mapping
// one cell per family is not enough: a stolen CCR variant then builds its
// variant state cold, which made passes take seconds.)
func (c *cluster) warmWorkers(seed int64) error {
	errs := make(chan error, len(c.workers))
	for i, w := range c.workers {
		go func() {
			_, err := c.runCampaign(w.url, clusterSeed(seed, -1-i))
			errs <- err
		}()
	}
	var first error
	for range c.workers {
		if err := <-errs; err != nil && first == nil {
			first = fmt.Errorf("warming worker: %w", err)
		}
	}
	return first
}

// dispatchTotals reads the coordinator's process-lifetime dispatcher
// counters from /v1/healthz.
func (c *cluster) dispatchTotals() (engine.DispatcherStats, error) {
	var h struct {
		Dispatcher *engine.DispatcherStats `json:"dispatcher"`
	}
	err := doJSON(c.client, "GET", c.coord.url+"/v1/healthz", nil, http.StatusOK, &h)
	if h.Dispatcher == nil {
		return engine.DispatcherStats{}, err
	}
	return *h.Dispatcher, err
}

// clusterPassResult is one finished pass.
type clusterPassResult struct {
	seed   int64
	ms     float64
	status campaignStatus
	err    error
}

// runWarmCluster submits full-suite StreamIt campaigns to the coordinator,
// one after another, each with a new campaign seed: content keys miss every
// store while analyses stay warm on the workers.
func runWarmCluster(cfg runConfig) (*report, error) {
	rep := newReport()
	cl, setupS, err := setupTimes(cfg, 3, func() (*cluster, error) {
		c, err := newCluster(cfg.trace)
		if err != nil {
			return nil, err
		}
		if err := c.warmWorkers(cfg.seed); err != nil {
			c.close()
			return nil, err
		}
		for k := 0; k < clusterWarmups; k++ {
			if _, err := c.runPass(clusterSeed(cfg.seed, k)); err != nil {
				c.close()
				return nil, fmt.Errorf("warm-up pass: %w", err)
			}
		}
		return c, nil
	}, (*cluster).close)
	if err != nil {
		return nil, err
	}
	defer cl.close()
	rep.values["setup_s"] = setupS

	window := cfg.window
	if cfg.trace {
		window /= 2
	}
	k := clusterWarmups
	timed := func(window time.Duration) ([]clusterPassResult, time.Duration) {
		var out []clusterPassResult
		start := time.Now()
		for time.Since(start) < window {
			seed := clusterSeed(cfg.seed, k)
			k++
			t0 := time.Now()
			id := int64(0)
			if t := cl.tracer.Load(); t != nil {
				id = t.id()
				cl.pass.Store(id)
			}
			st, err := cl.runPass(seed)
			if t := cl.tracer.Load(); t != nil {
				t.record(id, 0, "pass", t0, "")
			}
			out = append(out, clusterPassResult{seed: seed, ms: ms(time.Since(t0)), status: st, err: err})
		}
		return out, time.Since(start)
	}
	passes, _ := timed(window)
	rep.values["max_rss_mb"] = maxRSSMiB()

	all := passes
	if cfg.trace {
		traced, err := tracedClusterPasses(cfg, cl, window, timed, rep)
		if err != nil {
			return nil, err
		}
		rep.values["trace.overhead_ratio"] = median(passMS(traced)) / median(passMS(passes))
		all = append(append([]clusterPassResult(nil), passes...), traced...)
	}

	refCache := experiments.NewAnalysisCache(512)
	within := 0
	var doneMS []float64 // the times of the timed passes answered correctly
	for i, p := range all {
		rep.attempted++
		if p.err != nil {
			rep.failed++
			fmt.Fprintf(os.Stderr, "perfbench: campaign pass %d failed: %v\n", i, p.err)
			continue
		}
		ref, err := experiments.RunStreamItWith(4, 4, nil, p.seed, refCache)
		if err != nil {
			return nil, fmt.Errorf("reference campaign: %w", err)
		}
		if msg := sameJSON(p.status.Result, ref); msg != "" {
			rep.mismatch("campaign-warm-cluster pass seed %d: %s", p.seed, msg)
			continue
		}
		if i < len(passes) {
			doneMS = append(doneMS, p.ms)
			if p.ms <= ms(clusterPassLimit) {
				within++
			}
		}
	}
	// Passes run one after another, so the rate is the suite's cells over a
	// pass's time: the mean of the middle half of the correct passes, which a
	// stalled pass or two on a shared host does not move.
	if m := midMean(doneMS); m > 0 {
		rep.values["items_per_s"] = float64(streamItCells) / (m / 1000)
	}
	rep.values["request_p50_ms"] = median(passMS(passes))
	rep.values["request_tail_ms"] = groupedMedian(passMS(passes), clusterTailGroup, tailMean)
	rep.values["slo_ratio"] = float64(within) / float64(len(passes))
	return rep, nil
}

func passMS(ps []clusterPassResult) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.ms
	}
	return out
}

// sameJSON compares a served JSON document with the encoding of a reference
// value, both compacted.
func sameJSON(served json.RawMessage, ref any) string {
	want, err := json.Marshal(ref)
	if err != nil {
		return err.Error()
	}
	var a, b bytes.Buffer
	if err := json.Compact(&a, served); err != nil {
		return "served result is not JSON: " + err.Error()
	}
	if err := json.Compact(&b, want); err != nil {
		return err.Error()
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return fmt.Sprintf("served result (%d bytes) differs from the local-pool reference (%d bytes)", a.Len(), b.Len())
	}
	return ""
}

// cacheTotals sums the analysis caches' and result stores' statistics.
type cacheTotals struct {
	cache engine.CacheStats
	store engine.ResultStoreStats
}

func sumStats(caches []*engine.AnalysisCache, stores []*engine.ResultStore) cacheTotals {
	var t cacheTotals
	for _, c := range caches {
		s := c.Stats()
		t.cache.Entries += s.Entries
		t.cache.Bytes += s.Bytes
		t.cache.Hits += s.Hits
		t.cache.Misses += s.Misses
	}
	for _, s := range stores {
		st := s.Stats()
		t.store.Entries += st.Entries
		t.store.Bytes += st.Bytes
		t.store.Hits += st.Hits
		t.store.Misses += st.Misses
	}
	return t
}

// recordCacheDeltas reports the cache-layer counters of a window as per-op
// deltas. The analysis cache exposes no eviction counter; every successful
// miss inserts one entry, so evictions are the misses that left no entry.
func recordCacheDeltas(rep *report, before, after cacheTotals, ops int) {
	if ops <= 0 {
		return
	}
	per := float64(ops)
	misses := float64(after.cache.Misses - before.cache.Misses)
	rep.values["engine.analysis_cache.hits"] = float64(after.cache.Hits-before.cache.Hits) / per
	rep.values["engine.analysis_cache.misses"] = misses / per
	rep.values["engine.analysis_cache.evictions"] = max(0, misses-float64(after.cache.Entries-before.cache.Entries)) / per
	rep.values["engine.analysis_cache.bytes"] = float64(after.cache.Bytes) / mib
	hits, miss := float64(after.store.Hits-before.store.Hits), float64(after.store.Misses-before.store.Misses)
	rep.values["engine.result_store.hits"] = hits / per
	rep.values["engine.result_store.misses"] = miss / per
	if hits+miss > 0 {
		rep.values["engine.result_store.hit_ratio"] = hits / (hits + miss)
	}
	rep.values["engine.result_store.bytes"] = float64(after.store.Bytes) / mib
}

// tracedClusterPasses runs the traced half of the window: spans from the
// coordinator's and workers' middleware and the coordinator's dispatch
// transport, plus the public counters around the window.
func tracedClusterPasses(cfg runConfig, cl *cluster, window time.Duration, timed func(time.Duration) ([]clusterPassResult, time.Duration), rep *report) ([]clusterPassResult, error) {
	t := newTracer()
	before := sumStats(cl.caches, cl.stores)
	dBefore, err := cl.dispatchTotals()
	if err != nil {
		return nil, err
	}
	rw := startRuntimeWindow()
	cl.tracer.Store(t)
	passes, _ := timed(window)
	cl.tracer.Store(nil)
	n := len(passes)
	rw.finish(rep, n)
	dAfter, err := cl.dispatchTotals()
	if err != nil {
		return nil, err
	}
	recordCacheDeltas(rep, before, sumStats(cl.caches, cl.stores), n)

	per := float64(n)
	var steals, redisp, fallbacks, retries int64
	for _, p := range passes {
		steals += p.status.Steals
		redisp += p.status.Redispatches
		fallbacks += p.status.LocalFallbacks
		retries += p.status.Retries
	}
	rep.values["engine.dispatch.chunks"] = float64(dAfter.Chunks-dBefore.Chunks) / per
	rep.values["engine.dispatch.remote_chunks"] = float64(dAfter.RemoteChunks-dBefore.RemoteChunks) / per
	rep.values["engine.dispatch.steals"] = float64(steals) / per
	rep.values["engine.dispatch.redispatches"] = float64(redisp) / per
	rep.values["engine.dispatch.local_fallbacks"] = float64(fallbacks) / per
	rep.values["engine.dispatch.retries"] = float64(retries) / per

	lt := t.layers("pass")
	remote := lt.total["worker POST /v1/cells/execute"]
	var wall time.Duration
	for _, s := range t.snapshot() {
		if s.Name == "pass" {
			wall += s.dur()
		}
	}
	rep.values["engine.dispatch.remote_ms"] = ms(remote) / per
	rep.values["engine.dispatch.wire_ms"] = ms(lt.self["wire POST /v1/cells/execute"]) / per
	rep.values["engine.dispatch.idle_ms"] = (ms(wall)*float64(len(cl.workers)) - ms(remote)) / per
	rep.values["trace.coverage"] = lt.coverage
	if err := t.write(cfg.out+"/traces", fmt.Sprintf("campaign-warm-cluster-seed%d", cfg.seed)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
	return passes, nil
}
