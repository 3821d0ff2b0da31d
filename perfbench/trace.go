package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries the causing span's id from a traced client or
// transport to the traced handler that serves the request, so the handler's
// span becomes the child of the caller's.
const spanHeader = "X-Perfbench-Span"

// classHeader tags a /v1/map request with its traffic class (hit, warm_miss,
// cold_miss) for the server-side span.
const classHeader = "X-Perfbench-Class"

// span is one recorded interval. Offsets are from the tracer's origin.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Attr   string `json:"attr,omitempty"`
	Status int    `json:"status,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory; they are written out once the run ends.
type tracer struct {
	origin time.Time
	next   atomic.Int64

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// id reserves a span id, so children can name their parent before the
// parent's span is complete.
func (t *tracer) id() int64 { return t.next.Add(1) }

// add records a finished span.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// since converts a wall-clock instant to the tracer's offset.
func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.origin)) }

// record adds the span [start, now) under a reserved id.
func (t *tracer) record(id, parent int64, name string, start time.Time, attr string) {
	t.add(span{ID: id, Parent: parent, Name: name, Start: t.since(start), End: t.since(time.Now()), Attr: attr})
}

// span runs f under a new span.
func (t *tracer) span(parent int64, name, attr string, f func()) {
	id, start := t.id(), time.Now()
	f()
	t.record(id, parent, name, start, attr)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerTimes aggregates the recorded spans by name: total duration, self
// time (the span minus the part of its interval its children cover) and
// count. coverage is the share of the named root spans' time covered by
// their child spans.
type layerTimes struct {
	total, self map[string]time.Duration
	count       map[string]int
	coverage    float64
}

func (t *tracer) layers(root string) layerTimes {
	spans := t.snapshot()
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	lt := layerTimes{total: map[string]time.Duration{}, self: map[string]time.Duration{}, count: map[string]int{}}
	var rootTotal, rootCovered time.Duration
	for _, s := range spans {
		covered := unionWithin(s, children[s.ID])
		lt.total[s.Name] += s.dur()
		lt.self[s.Name] += s.dur() - covered
		lt.count[s.Name]++
		if s.Name == root {
			rootTotal += s.dur()
			rootCovered += covered
		}
	}
	if rootTotal > 0 {
		lt.coverage = float64(rootCovered) / float64(rootTotal)
	}
	return lt
}

// unionWithin is the length of the union of the children's intervals,
// clipped to the parent's.
func unionWithin(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	started := false
	for _, v := range ivs {
		switch {
		case !started:
			curA, curB, started = v.a, v.b, true
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if started {
		total += curB - curA
	}
	return time.Duration(total)
}

// write stores the spans as JSON lines under dir, named after the run.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".jsonl"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// statusWriter remembers the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// middleware wraps a service handler: every request becomes a span named
// role + route, the child of the span named in spanHeader, tagged with the
// request's classHeader and the answered status.
func (t *tracer) middleware(role string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		id := t.id()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		t.add(span{
			ID: id, Parent: parent, Name: role + " " + r.Method + " " + routeOf(r.URL.Path),
			Start: t.since(start), End: t.since(time.Now()),
			Attr: r.Header.Get(classHeader), Status: sw.code,
		})
	})
}

// routeOf folds per-campaign status paths into one route name.
func routeOf(path string) string {
	const campaign = "/v1/campaign/"
	if len(path) > len(campaign) && path[:len(campaign)] == campaign {
		return campaign + "{id}"
	}
	return path
}

// transport wraps the coordinator's outgoing client: each request becomes a
// span from send until its body is closed, the child of parent(), and
// carries its id to the worker's middleware.
type transport struct {
	t      *tracer
	base   http.RoundTripper
	parent func() int64
}

func (tr *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := tr.t.id()
	parent := tr.parent()
	r := req.Clone(req.Context())
	r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	start := time.Now()
	resp, err := tr.base.RoundTrip(r)
	name := "wire " + r.Method + " " + routeOf(r.URL.Path)
	if err != nil {
		tr.t.record(id, parent, name, start, "")
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { tr.t.record(id, parent, name, start, "") }}
	return resp, nil
}

// spanBody ends its span when the body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}
