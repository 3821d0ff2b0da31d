package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spgcmp/internal/core"
	"spgcmp/internal/engine"
	"spgcmp/internal/experiments"
	"spgcmp/internal/service"
	"spgcmp/internal/streamit"
)

// The map-mixed traffic: the open-loop rate, the latency limit slo_ratio
// counts against, and the random SPGs of the mix (mapDeck sets its shares).
const (
	// mapRate, the open loop's requests per second, is about a tenth of what
	// the closed loop serves on two CPUs: the latency figures then measure
	// service time, not a queue that any slowdown of a shared host would
	// lengthen many times over.
	mapRate  = 100
	mapLimit = 100 * time.Millisecond
	// mapTailGroup is the size of the groups of open-loop requests whose
	// p50 and p95 are medianed: two seconds of schedule, so each group's
	// p95 has ten requests beyond it.
	mapTailGroup = 2 * mapRate
	// mapHotRandom is a multiple of six (see newMapGen) and large enough that
	// a run's warm misses, about 1300 on a fast host, never use up the 2304
	// pairs on grids up to 8x8 and reach the far costlier larger grids.
	mapHotRandom = 48
	mapRandomN   = 30
	// mapWarmupRequests of the mix follow the hot set in set-up: enough
	// never-seen workloads to fill the analysis cache past its bound.
	mapWarmupRequests = 2500
)

// Traffic classes.
const (
	classHit      = "hit"
	classWarmMiss = "warm_miss"
	classColdMiss = "cold_miss"
)

var mapClasses = []string{classHit, classWarmMiss, classColdMiss}

// The /v1/map request shape.
type mapWorkload struct {
	StreamIt string     `json:"streamit,omitempty"`
	CCR      float64    `json:"ccr,omitempty"`
	Random   *mapRandom `json:"random,omitempty"`
}

type mapRandom struct {
	N         int     `json:"n"`
	Elevation int     `json:"elevation"`
	Seed      int64   `json:"seed"`
	CCR       float64 `json:"ccr"`
}

type mapBody struct {
	Workload mapWorkload `json:"workload"`
	P        int         `json:"p"`
	Q        int         `json:"q"`
	Seed     int64       `json:"seed"`
}

// cell is the engine cell the service resolves the request to.
func (b mapBody) cell() engine.Cell {
	var c engine.Cell
	if b.Workload.Random != nil {
		r := b.Workload.Random
		c = experiments.NewRandomCell(r.N, r.Elevation, r.Seed, r.CCR, b.P, b.Q)
	} else {
		a, _ := streamit.ByName(b.Workload.StreamIt) // names come from the suite itself
		ccr := b.Workload.CCR
		if ccr == 0 {
			ccr = a.CCR
		}
		c = experiments.NewStreamItCell(a, ccr, b.P, b.Q, b.Seed)
	}
	c.Spec.Opts.KeepMappings = true
	return c
}

type mapRequest struct {
	class string
	body  mapBody
	raw   []byte
}

// mapGen is the seeded request stream: 80% a hot set warmed in set-up (every
// StreamIt application at a seeded CCR variant, and seeded random SPGs), 10%
// a hot random workload on a grid not yet mapped (analysis hit, store miss),
// 10% a never-seen random SPG (cold). Random SPGs have n=30 stages, and
// elevation 2 or 3 in the hot set, 2 when cold; the CCRs take turns.
type mapGen struct {
	mu     sync.Mutex
	rng    *rand.Rand // guarded by mu
	unique int64      // guarded by mu
	warmAt int        // guarded by mu; next entry of warm
	deck   []string   // guarded by mu; the classes still to deal in this round
	seed   int64
	hot    []mapBody
	hotRnd []mapRandom
	// warm lists every (hot random workload, grid) pair once, in seeded
	// order: grids up to 8x8 first, then up to 16x16, never the hot set's
	// 4x4. Each pair is a store miss the first time it is requested.
	warm []mapBody
}

var mapCCRs = []float64{10, 1, 0.1}

func newMapGen(seed int64) *mapGen {
	rng := rand.New(rand.NewSource(seed))
	g := &mapGen{rng: rng, seed: seed}
	for _, a := range streamit.Suite() {
		ccrs := []float64{0, 10, 1, 0.1}
		g.hot = append(g.hot, mapBody{
			Workload: mapWorkload{StreamIt: a.Name, CCR: ccrs[rng.Intn(len(ccrs))]},
			P:        4, Q: 4, Seed: seed,
		})
	}
	for k := 0; k < mapHotRandom; k++ {
		// Every (elevation, CCR) pair has the same share of the hot set, so
		// the cost of a warm miss does not swing with the seed's draw.
		r := mapRandom{N: mapRandomN, Elevation: 2 + k%2, Seed: seed*100_000 + int64(k), CCR: mapCCRs[k/2%len(mapCCRs)]}
		g.hotRnd = append(g.hotRnd, r)
		g.hot = append(g.hot, mapBody{Workload: mapWorkload{Random: &r}, P: 4, Q: 4, Seed: seed})
	}
	for _, tier := range [][2]int{{2, 8}, {9, 16}} {
		var pairs []mapBody
		for k := range g.hotRnd {
			for p := 2; p <= 16; p++ {
				for q := 2; q <= 16; q++ {
					if side := max(p, q); side < tier[0] || side > tier[1] || (p == 4 && q == 4) {
						continue
					}
					pairs = append(pairs, mapBody{Workload: mapWorkload{Random: &g.hotRnd[k]}, P: p, Q: q, Seed: seed})
				}
			}
		}
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		g.warm = append(g.warm, pairs...)
	}
	return g
}

// mapDeck is one round of the traffic mix: 8 hits, 1 warm miss, 1 cold
// miss. The generator deals round after round, each in a seeded order, so
// every ten requests hold the mix exactly and a run's cost does not swing
// with the chance share of misses it drew.
var mapDeck = []string{
	classHit, classHit, classHit, classHit, classHit, classHit, classHit, classHit,
	classWarmMiss, classColdMiss,
}

func (g *mapGen) next() mapRequest {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.deck) == 0 {
		g.deck = append(g.deck, mapDeck...)
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
	}
	class := g.deck[len(g.deck)-1]
	g.deck = g.deck[:len(g.deck)-1]
	var req mapRequest
	switch class {
	case classHit:
		req = mapRequest{class: classHit, body: g.hot[g.rng.Intn(len(g.hot))]}
	case classWarmMiss:
		// Thousands of pairs: a run exhausting them would wrap around and
		// turn this class into store hits, far beyond today's rates.
		req = mapRequest{class: classWarmMiss, body: g.warm[g.warmAt%len(g.warm)]}
		g.warmAt++
	default:
		g.unique++
		r := mapRandom{N: mapRandomN, Elevation: 2, Seed: g.seed*100_000 + 50_000 + g.unique, CCR: mapCCRs[g.unique%int64(len(mapCCRs))]}
		req = mapRequest{class: classColdMiss, body: mapBody{Workload: mapWorkload{Random: &r}, P: 4, Q: 4, Seed: g.seed}}
	}
	raw, err := json.Marshal(req.body)
	if err != nil {
		panic(err) // plain structs always encode
	}
	req.raw = raw
	return req
}

// The server's analysis cache bounds. Never-seen workloads keep arriving, so
// a cache as large as spgserve's default would grow with the number of
// requests served, and memory with it; under these bounds it reaches a
// steady state and evicts. The entry bound holds the hot set and the
// analyses of the last ~200 cold misses, so a hot analysis is rarely
// evicted before its next warm miss.
const (
	mapCacheEntries = 256
	mapCacheBytes   = 512 << 20
)

// mapTarget is the service under test: one server with its own bounded
// analysis cache and the result store on, as spgserve ships it.
type mapTarget struct {
	gen    *mapGen
	lb     *loopback
	cache  *engine.AnalysisCache
	store  *engine.ResultStore
	client *http.Client
	tracer *atomic.Pointer[tracer]

	mu    sync.Mutex
	first map[string][]byte // guarded by mu; first body served per request
}

func newMapTarget(cfg runConfig) (*mapTarget, error) {
	m := &mapTarget{
		gen:    newMapGen(cfg.seed),
		first:  make(map[string][]byte),
		cache:  engine.NewAnalysisCacheBytes(mapCacheEntries, mapCacheBytes),
		store:  engine.NewResultStore(4096, 0),
		client: newClient(cfg.clients),
		tracer: &atomic.Pointer[tracer]{},
	}
	srv := service.New(service.Config{Cache: m.cache, Store: m.store, Executor: &engine.PoolExecutor{}})
	var h http.Handler = srv.Handler()
	if cfg.trace {
		h = switchable{role: "server", next: h, tracer: m.tracer}
	}
	lb, err := serveLoopback(h)
	if err != nil {
		return nil, err
	}
	m.lb = lb
	if err := m.warm(cfg); err != nil {
		m.close()
		return nil, err
	}
	// Then the traffic mix itself, until the analysis cache and the store
	// are in their steady state of eviction.
	warmup, _ := m.closedLoopN(cfg, time.Minute, mapWarmupRequests)
	for _, s := range warmup {
		if s.err != nil {
			m.close()
			return nil, fmt.Errorf("warm-up traffic: %w", s.err)
		}
	}
	return m, nil
}

// warm answers every hot request once, over cfg.clients connections.
func (m *mapTarget) warm(cfg runConfig) error {
	next := make(chan mapBody)
	errs := make(chan error, cfg.clients)
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var first error
			for b := range next {
				raw, _ := json.Marshal(b) // plain structs always encode
				if s := m.send(mapRequest{class: classHit, body: b, raw: raw}, time.Now()); s.err != nil && first == nil {
					first = fmt.Errorf("warming the hot set: %w", s.err)
				}
			}
			errs <- first
		}()
	}
	for _, b := range m.gen.hot {
		next <- b
	}
	close(next)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (m *mapTarget) close() {
	m.lb.close()
	m.client.CloseIdleConnections()
}

// mapSample is one answered (or failed) request. The body itself is kept
// once per distinct request (mapTarget.first); samples keep its digest.
type mapSample struct {
	req       mapRequest
	due, sent time.Time
	done      time.Time
	status    int
	sum       [sha256.Size]byte
	err       error
}

func (s mapSample) answered() bool {
	return s.err == nil && (s.status == http.StatusOK || s.status == http.StatusUnprocessableEntity)
}

// send issues one request due at due and reads the whole answer.
func (m *mapTarget) send(req mapRequest, due time.Time) mapSample {
	s := mapSample{req: req, due: due, sent: time.Now()}
	hr, err := http.NewRequest("POST", m.lb.url+"/v1/map", bytes.NewReader(req.raw))
	if err != nil {
		s.err = err
		return s
	}
	t := m.tracer.Load()
	var id int64
	if t != nil {
		id = t.id()
		hr.Header.Set(spanHeader, strconv.FormatInt(id, 10))
		hr.Header.Set(classHeader, req.class)
	}
	resp, err := m.client.Do(hr)
	if err == nil {
		s.status = resp.StatusCode
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		s.sum = sha256.Sum256(body)
		m.keepFirst(req.raw, body)
		if err == nil && !s.answered() {
			err = fmt.Errorf("status %d: %s", s.status, bytes.TrimSpace(body))
		}
	}
	s.err = err
	s.done = time.Now()
	if t != nil {
		t.add(span{ID: id, Name: "request", Start: t.since(s.sent), End: t.since(s.done), Attr: req.class, Status: s.status})
	}
	return s
}

// keepFirst remembers the first body served for a request.
func (m *mapTarget) keepFirst(raw, body []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.first[string(raw)]; !ok {
		m.first[string(raw)] = body
	}
}

// firstBody is the first body served for a request.
func (m *mapTarget) firstBody(raw []byte) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.first[string(raw)]
}

// loadStats is the generator's own timing of an open-loop phase.
type loadStats struct {
	lag, connWait time.Duration
	n             int
}

// openLoop schedules requests at mapRate for window from one process with at
// most cfg.clients connections: a request due while every connection is busy
// waits for one, and the wait counts in its latency.
func (m *mapTarget) openLoop(cfg runConfig, window time.Duration) ([]mapSample, loadStats) {
	interval := time.Second / mapRate
	n := int(window / interval)
	out := make([]mapSample, n)
	sem := make(chan struct{}, cfg.clients)
	var ls loadStats
	var wg sync.WaitGroup
	start := time.Now()
	free := start // when the previous request got its connection
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		woke := time.Now()
		sem <- struct{}{}
		got := time.Now()
		// The send delay got-due splits into the generator's own lateness
		// (woke past the later of due and the previous request's send) and
		// the wait for a free connection, which is the rest.
		ready := due
		if free.After(ready) {
			ready = free
		}
		lag := max(0, woke.Sub(ready))
		ls.lag += lag
		ls.connWait += got.Sub(due) - lag
		ls.n++
		free = got
		req := m.gen.next()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i] = m.send(req, due)
		}(i)
	}
	wg.Wait()
	return out, ls
}

// closedLoop runs cfg.clients clients, each sending its next request as soon
// as the previous one is answered, for window.
func (m *mapTarget) closedLoop(cfg runConfig, window time.Duration) ([]mapSample, time.Duration) {
	return m.closedLoopN(cfg, window, -1)
}

// closedLoopN is closedLoop stopping after limit requests when limit >= 0.
func (m *mapTarget) closedLoopN(cfg runConfig, window time.Duration, limit int64) ([]mapSample, time.Duration) {
	var (
		mu   sync.Mutex
		out  []mapSample
		wg   sync.WaitGroup
		sent atomic.Int64
	)
	start := time.Now()
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []mapSample
			for time.Since(start) < window && (limit < 0 || sent.Add(1) <= limit) {
				req := m.gen.next()
				mine = append(mine, m.send(req, time.Now()))
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// coalesced reads the singleflight counter from /v1/healthz.
func (m *mapTarget) coalesced() (uint64, error) {
	var h struct {
		Coalescing struct {
			Coalesced uint64 `json:"coalesced"`
		} `json:"coalescing"`
	}
	err := doJSON(m.client, "GET", m.lb.url+"/v1/healthz", nil, http.StatusOK, &h)
	return h.Coalescing.Coalesced, err
}

// runMapMixed drives /v1/map over loopback: an open loop at mapRate, then a
// closed loop with one client per CPU, the same request mix in both.
func runMapMixed(cfg runConfig) (*report, error) {
	rep := newReport()
	m, setupS, err := setupTimes(cfg, 3, func() (*mapTarget, error) { return newMapTarget(cfg) }, (*mapTarget).close)
	if err != nil {
		return nil, err
	}
	defer m.close()
	rep.values["setup_s"] = setupS

	// Half the window for the open loop, half for the closed loop. A traced
	// run halves both.
	openPhase, closedPhase := cfg.window/2, cfg.window/2
	if cfg.trace {
		openPhase, closedPhase = openPhase/2, closedPhase/2
	}
	open, ls := m.openLoop(cfg, openPhase)
	closed, closedElapsed := m.closedLoop(cfg, closedPhase)
	rep.values["max_rss_mb"] = maxRSSMiB()
	all := append(append([]mapSample(nil), open...), closed...)

	if cfg.trace {
		rep.values["loadgen.lag_ms"] = ms(ls.lag) / float64(ls.n)
		rep.values["loadgen.conn_wait_ms"] = ms(ls.connWait) / float64(ls.n)
		traced, tracedQPS, err := tracedMapPhases(cfg, m, openPhase, closedPhase, rep)
		if err != nil {
			return nil, err
		}
		rep.values["trace.overhead_ratio"] = midRate(closed, nil, closedElapsed) / tracedQPS
		all = append(all, traced...)
	}

	ok := verifyMap(cfg, rep, all)
	var lat []float64
	within := 0
	for i, s := range open {
		lat = append(lat, ms(s.done.Sub(s.due)))
		if ok[i] && s.done.Sub(s.due) <= mapLimit {
			within++
		}
	}
	// Open-loop latencies are taken per mapTailGroup requests of schedule
	// (lat is in due order) and the groups' figures medianed.
	rep.values["items_per_s"] = midRate(closed, ok[len(open):len(open)+len(closed)], closedElapsed)
	rep.values["request_p50_ms"] = groupedMedian(lat, mapTailGroup, median)
	rep.values["request_tail_ms"] = groupedMedian(lat, mapTailGroup, func(xs []float64) float64 { return percentile(xs, 95) })
	rep.values["slo_ratio"] = float64(within) / float64(len(open))
	return rep, nil
}

// verifyMap replays every distinct request against a fresh server with the
// result store off and reports, per sample, whether the served answer was
// byte-identical to it. Infeasible (422) answers count when the reference
// agrees; shed, failed and timed-out requests are failures.
func verifyMap(cfg runConfig, rep *report, all []mapSample) []bool {
	ref := service.New(service.Config{Cache: engine.NewAnalysisCache(512)}).Handler()
	type answer struct {
		status int
		sum    [sha256.Size]byte
	}
	answers := make(map[string]*answer)
	var distinct [][]byte
	for _, s := range all {
		if _, seen := answers[string(s.req.raw)]; !seen && s.answered() {
			answers[string(s.req.raw)] = &answer{}
			distinct = append(distinct, s.req.raw)
		}
	}
	// The reference answers the distinct requests cfg.clients at a time.
	next := make(chan []byte)
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for raw := range next {
				rec := httptest.NewRecorder()
				ref.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/map", bytes.NewReader(raw)))
				*answers[string(raw)] = answer{status: rec.Code, sum: sha256.Sum256(rec.Body.Bytes())}
			}
		}()
	}
	for _, raw := range distinct {
		next <- raw
	}
	close(next)
	wg.Wait()

	ok := make([]bool, len(all))
	for i, s := range all {
		rep.attempted++
		if !s.answered() {
			rep.failed++
			continue
		}
		a := answers[string(s.req.raw)]
		if a.status != s.status || a.sum != s.sum {
			rep.mismatch("map-mixed %s request %s: status %d; reference status %d, body differs: %v",
				s.req.class, s.req.raw, s.status, a.status, a.sum != s.sum)
			continue
		}
		ok[i] = true
	}
	return ok
}

// tracedMapPhases repeats both phases with the server middleware and client
// spans on, collects the public counters around them, and replays every
// store miss through the traced cell path for the core-layer numbers. It
// returns the traced samples and the traced closed-loop rate.
func tracedMapPhases(cfg runConfig, m *mapTarget, openPhase, closedPhase time.Duration, rep *report) ([]mapSample, float64, error) {
	t := newTracer()
	caches, stores := []*engine.AnalysisCache{m.cache}, []*engine.ResultStore{m.store}
	before := sumStats(caches, stores)
	coBefore, err := m.coalesced()
	if err != nil {
		return nil, 0, err
	}
	rw := startRuntimeWindow()
	m.tracer.Store(t)
	open, _ := m.openLoop(cfg, openPhase)
	closed, elapsed := m.closedLoop(cfg, closedPhase)
	m.tracer.Store(nil)
	all := append(open, closed...)
	n := float64(len(all))
	rw.finish(rep, len(all))
	coAfter, err := m.coalesced()
	if err != nil {
		return nil, 0, err
	}
	recordCacheDeltas(rep, before, sumStats(caches, stores), len(all))
	rep.values["service.map.coalesced"] = float64(coAfter-coBefore) / n

	handler := make(map[string]time.Duration)
	count := make(map[string]int)
	var shed, infeasible int
	for _, s := range t.snapshot() {
		if s.Name != "server POST /v1/map" {
			continue
		}
		handler[s.Attr] += s.dur()
		count[s.Attr]++
		switch s.Status {
		case http.StatusTooManyRequests:
			shed++
		case http.StatusUnprocessableEntity:
			infeasible++
		}
	}
	for _, c := range mapClasses {
		if count[c] > 0 {
			rep.values["service.map."+c+"_ms"] = ms(handler[c]) / float64(count[c])
		}
	}
	rep.values["service.map.shed"] = float64(shed) / n
	rep.values["service.map.status_422"] = float64(infeasible) / n
	lt := t.layers("request")
	rep.values["service.map.client_ms"] = ms(lt.self["request"]) / float64(lt.count["request"])
	rep.values["trace.coverage"] = lt.coverage
	if err := t.write(cfg.out+"/traces", fmt.Sprintf("map-mixed-seed%d", cfg.seed)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
	replayMisses(cfg, rep, m, all)
	return all, midRate(closed, nil, elapsed), nil
}

// rateBucket is the interval midRate counts answers in. A second holds about
// a thousand answers, so its count hardly depends on how many of the slow
// misses happened to finish in it.
const rateBucket = time.Second

// midRate is a closed loop's rate of answers, ok[i] marking the correct
// ones (nil counts all): answers are counted per rateBucket of completion
// time, the final partial bucket dropped, and the mean of the middle half of
// the buckets reported, so a stall of a bucket or two on a shared host does
// not move the figure.
func midRate(samples []mapSample, ok []bool, elapsed time.Duration) float64 {
	if len(samples) == 0 {
		return 0
	}
	start := samples[0].sent
	for _, s := range samples {
		if s.sent.Before(start) {
			start = s.sent
		}
	}
	counts := make([]float64, max(1, int(elapsed/rateBucket)))
	for i, s := range samples {
		if k := int(s.done.Sub(start) / rateBucket); k < len(counts) && (ok == nil || ok[i]) {
			counts[k]++
		}
	}
	sort.Float64s(counts)
	mid := counts[len(counts)/4 : len(counts)-len(counts)/4]
	var sum float64
	for _, c := range mid {
		sum += c
	}
	return sum / float64(len(mid)) / rateBucket.Seconds()
}

// replayMisses solves every store-miss request of the traced window again
// through the traced cell path, on a cache warmed with the hot set as the
// server's is, for the core-layer numbers of the miss classes. Each replay
// must reproduce the served answer.
func replayMisses(cfg runConfig, rep *report, m *mapTarget, samples []mapSample) {
	cache := engine.NewAnalysisCache(512)
	for _, b := range m.gen.hot {
		engine.Solve(b.cell(), cache)
	}
	t := newTracer()
	ct := cellTracer{t: t}
	sc := core.NewScratch()
	misses := 0
	for i, s := range samples {
		if s.req.class == classHit || !s.answered() {
			continue
		}
		misses++
		got := ct.solve(i, s.req.body.cell(), ct.cachedBases(cache), sc)
		sc.Reset()
		var served struct {
			Key      string                `json:"key"`
			Feasible bool                  `json:"feasible"`
			Result   engine.InstanceResult `json:"result"`
		}
		if err := json.Unmarshal(m.firstBody(s.req.raw), &served); err != nil {
			rep.mismatch("map-mixed served body of %s is not a map answer: %v", s.req.raw, err)
			continue
		}
		want := engine.CellResult{Index: i, Key: served.Key, Feasible: served.Feasible, Result: served.Result}
		if !sameResult(got, want) {
			rep.mismatch("map-mixed traced replay of %s differs from the served answer", s.req.raw)
		}
	}
	coreMetrics(rep, t, misses)
	if err := t.write(cfg.out+"/traces", fmt.Sprintf("map-mixed-replay-seed%d", cfg.seed)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
}
