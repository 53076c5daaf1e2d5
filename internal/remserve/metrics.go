package remserve

import (
	"net/http"
	"sync"
	"time"

	"repro/internal/remobs"
)

// This file is the serving tier's observability: every request is
// counted and timed per (endpoint, wire, status class) and the
// registry is exposed at GET /metrics in Prometheus text format. The
// wrapper obeys the same contract as the handlers it wraps — zero
// allocations after warm-up. Everything stringy happens once, in
// newServeMetrics: the (endpoint × wire × class) counter cube and the
// (endpoint × wire) histogram grid are pre-registered, so the per-
// request work is two array indexings, two atomic adds and a pooled
// ResponseWriter wrapper.

// Endpoint indices. epOther covers 404s and keeps the cube closed.
const (
	epAt = iota
	epStrongest
	epObserve
	epSnapshot
	epDelta
	epHealthz
	epVersion
	epMetrics
	epOther
	numEndpoints
)

var endpointNames = [numEndpoints]string{
	"at", "strongest", "observe", "snapshot", "delta",
	"healthz", "version", "metrics", "other",
}

// endpointIndex maps a request path to its endpoint index without
// allocating (string switch).
func endpointIndex(path string) int {
	switch path {
	case "/at":
		return epAt
	case "/strongest":
		return epStrongest
	case "/observe":
		return epObserve
	case "/snapshot":
		return epSnapshot
	case "/delta":
		return epDelta
	case "/healthz":
		return epHealthz
	case "/version":
		return epVersion
	case "/metrics":
		return epMetrics
	default:
		return epOther
	}
}

// Wire indices: JSON is the default; "binary" covers both the REMB
// batch request codec and the REMS Accept-negotiated responses.
const (
	wireJSON = iota
	wireBinary
	numWires
)

var wireNames = [numWires]string{"json", "binary"}

// wireIndex classifies a request by the codec it speaks: a binary
// Content-Type (POST bodies) or a binary Accept (GET responses).
func wireIndex(r *http.Request) int {
	if isWireContentType(r.Header.Get("Content-Type")) || acceptsWire(r.Header.Get("Accept")) {
		return wireBinary
	}
	return wireJSON
}

// Status classes.
const (
	class2xx = iota
	class4xx
	class5xx
	classOther
	numClasses
)

var classNames = [numClasses]string{"2xx", "4xx", "5xx", "other"}

func classIndex(status int) int {
	switch {
	case status >= 200 && status < 300:
		return class2xx
	case status >= 400 && status < 500:
		return class4xx
	case status >= 500 && status < 600:
		return class5xx
	default:
		return classOther
	}
}

// serveMetrics is the pre-registered instrument set one Server owns.
type serveMetrics struct {
	reqs [numEndpoints][numWires][numClasses]*remobs.Counter
	lat  [numEndpoints][numWires]*remobs.Histogram
}

// newServeMetrics registers the full cube. Registration is idempotent
// in remobs, so a leader and a follower sharing one registry (one
// process, two Servers) share the instruments rather than colliding.
func newServeMetrics(reg *remobs.Registry) *serveMetrics {
	if reg == nil {
		return nil
	}
	m := &serveMetrics{}
	for e := 0; e < numEndpoints; e++ {
		for wi := 0; wi < numWires; wi++ {
			for c := 0; c < numClasses; c++ {
				m.reqs[e][wi][c] = reg.Counter("rem_http_requests_total",
					"HTTP requests by endpoint, wire codec and status class",
					remobs.L("endpoint", endpointNames[e]),
					remobs.L("wire", wireNames[wi]),
					remobs.L("code", classNames[c]))
			}
			m.lat[e][wi] = reg.Histogram("rem_http_request_seconds",
				"HTTP request latency by endpoint and wire codec",
				remobs.L("endpoint", endpointNames[e]),
				remobs.L("wire", wireNames[wi]))
		}
	}
	return m
}

// statusRecorder captures the response status without disturbing the
// handlers. Pooled; a handler that never calls WriteHeader implicitly
// answered 200.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

var srPool = sync.Pool{New: func() any { return new(statusRecorder) }}

// ServeHTTP is the instrumented entry point: it times and classifies
// every request around the routing in route (handlers.go). Without an
// Observer the wrapper is one nil check.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m := s.metrics
	if m == nil {
		s.route(w, r)
		return
	}
	start := time.Now()
	sr := srPool.Get().(*statusRecorder)
	sr.ResponseWriter, sr.status = w, 0
	s.route(sr, r)
	status := sr.status
	if status == 0 {
		status = http.StatusOK
	}
	sr.ResponseWriter = nil
	srPool.Put(sr)
	ei := endpointIndex(r.URL.Path)
	wi := wireIndex(r)
	m.reqs[ei][wi][classIndex(status)].Inc()
	m.lat[ei][wi].Observe(time.Since(start))
}

// metricsCT is the Prometheus text-format content type, installed as a
// shared slice like the other response headers.
var metricsCT = []string{"text/plain; version=0.0.4; charset=utf-8"}

// handleMetrics serves GET /metrics: the registry rendered into a
// pooled buffer (cold path — scrapes come once per interval, not per
// query).
func (s *Server) handleMetrics(w http.ResponseWriter) {
	bb := bufPool.Get().(*buffers)
	b := s.obs.Registry.AppendPrometheus(bb.out[:0])
	h := w.Header()
	if _, ok := h["Content-Type"]; !ok {
		h["Content-Type"] = metricsCT
	}
	w.Write(b)
	bb.out = b
	bufPool.Put(bb)
}
