package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
)

// loopback is an in-process HTTP server on a loopback port.
type loopback struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	lb := &loopback{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(lb.done)
		_ = lb.srv.Serve(ln) // returns http.ErrServerClosed once close is called
	}()
	return lb, nil
}

// close stops the server and waits for its accept loop to exit.
func (l *loopback) close() {
	_ = l.srv.Close() // the only error is the listener's close error, nothing to act on
	<-l.done
}

// newClient returns a client with its own connection pool of at most conns
// connections per host.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}}
}

// switchable routes a handler through the tracer's middleware while a tracer
// is installed, and straight through otherwise.
type switchable struct {
	role   string
	next   http.Handler
	tracer *atomic.Pointer[tracer]
}

func (s switchable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if t := s.tracer.Load(); t != nil {
		t.middleware(s.role, s.next).ServeHTTP(w, r)
		return
	}
	s.next.ServeHTTP(w, r)
}

// switchableTransport traces outgoing requests while a tracer is installed.
type switchableTransport struct {
	base   http.RoundTripper
	tracer *atomic.Pointer[tracer]
	parent func() int64
}

func (s switchableTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t := s.tracer.Load(); t != nil {
		return (&transport{t: t, base: s.base, parent: s.parent}).RoundTrip(req)
	}
	return s.base.RoundTrip(req)
}

// doJSON issues one request and decodes a JSON answer into out (when
// non-nil), failing on any status other than want.
func doJSON(c *http.Client, method, url string, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}
