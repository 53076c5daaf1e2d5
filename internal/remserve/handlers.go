package remserve

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"repro/internal/geom"
	"repro/internal/rem"
	"repro/internal/remshard"
	"repro/internal/remstore"
)

// This file is the request path: routing, parameter parsing and
// response assembly. The hot handlers (GET/POST /at, GET /strongest)
// are zero-allocation after warm-up: the query string is scanned in
// place (no url.Values map), response bodies are appended into pooled
// buffers, and the Content-Type header is installed as a shared
// package-level slice. Float values render in strconv 'g' shortest
// round-trip form — the same bits parse back — with non-finite values
// (JSON has no NaN/Inf) as null. The encoding is deterministic: the
// same (value, version) always serialises to the same bytes, which is
// what lets the rule 8 wire tests compare HTTP responses against
// direct library calls byte for byte.

// buffers is the per-request scratch a handler borrows from the pool:
// the response body, the POST body, decoded points and query outputs.
// wireKey memoises the last binary-batch key so steady-state binary
// requests allocate nothing at all.
type buffers struct {
	out     []byte
	body    []byte
	pts     []geom.Vec3
	vals    []float64
	skeys   []string
	wireKey string
}

var bufPool = sync.Pool{New: func() any { return new(buffers) }}

// jsonCT, binCT and wireCT are installed into response header maps as
// shared slices so the hot path never allocates a header value. They
// are never mutated.
// DeltaContentType is the media type of a GET /delta response carrying
// a rem tile-delta ("REMD") message. A /delta response carrying a full
// snapshot instead (base no longer retained) uses the /snapshot media
// type, application/octet-stream — the Content-Type is how a follower
// tells the two apart.
const DeltaContentType = "application/x-rem-delta"

var (
	jsonCT  = []string{"application/json"}
	binCT   = []string{"application/octet-stream"}
	wireCT  = []string{WireContentType}
	deltaCT = []string{DeltaContentType}
	varyAE  = []string{"Accept-Encoding"}
)

// route routes the fixed endpoint set. Unknown paths get 404, wrong
// methods 405 with an Allow header. With rate limiting enabled,
// over-budget clients get 429 + Retry-After before any routing —
// /healthz stays exempt so orchestrator readiness probes cannot be
// throttled into a false "down". ServeHTTP (metrics.go) wraps this
// with the per-request instrumentation when an Observer is attached.
func (s *Server) route(w http.ResponseWriter, r *http.Request) {
	if s.limiter != nil && r.URL.Path != "/healthz" {
		if ok, retryAfter := s.limiter.allow(r.RemoteAddr); !ok {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
			http.Error(w, "remserve: rate limit exceeded", http.StatusTooManyRequests)
			return
		}
	}
	switch r.URL.Path {
	case "/at":
		switch r.Method {
		case http.MethodGet, http.MethodHead:
			s.handleAt(w, r)
		case http.MethodPost:
			s.handleAtBatch(w, r)
		default:
			methodNotAllowed(w, "GET, POST")
		}
	case "/strongest":
		switch r.Method {
		case http.MethodGet, http.MethodHead:
			s.handleStrongest(w, r)
		case http.MethodPost:
			s.handleStrongestBatch(w, r)
		default:
			methodNotAllowed(w, "GET, POST")
		}
	case "/observe":
		if s.ingestQ == nil {
			// Read-only deployments do not reveal a write surface.
			http.NotFound(w, r)
			return
		}
		if r.Method != http.MethodPost {
			methodNotAllowed(w, "POST")
			return
		}
		s.handleObserve(w, r)
	case "/snapshot":
		if !getOrHead(w, r) {
			return
		}
		s.handleSnapshot(w, r)
	case "/delta":
		if !getOrHead(w, r) {
			return
		}
		s.handleDelta(w, r)
	case "/healthz":
		if !getOrHead(w, r) {
			return
		}
		s.handleHealthz(w)
	case "/version":
		if !getOrHead(w, r) {
			return
		}
		s.handleVersion(w)
	case "/metrics":
		if s.obs == nil || s.obs.Registry == nil {
			// No observer, no exposition — same posture as /observe on a
			// read-only deployment.
			http.NotFound(w, r)
			return
		}
		if !getOrHead(w, r) {
			return
		}
		s.handleMetrics(w)
	default:
		http.NotFound(w, r)
	}
}

// getOrHead admits GET and HEAD (net/http suppresses the response body
// for HEAD on its own) and answers 405 for everything else.
func getOrHead(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		methodNotAllowed(w, "GET")
		return false
	}
	return true
}

func methodNotAllowed(w http.ResponseWriter, allow string) {
	w.Header().Set("Allow", allow)
	http.Error(w, http.StatusText(http.StatusMethodNotAllowed), http.StatusMethodNotAllowed)
}

// queryError maps a store error to its status: 404 for a key outside
// the vocabulary, 503 for a store that has not (fully) published yet —
// both with the store's own message — and 500 for anything else.
func queryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, rem.ErrUnknownKey):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, remstore.ErrEmpty), errors.Is(err, remshard.ErrPartial):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// writeJSON emits a completed body from a pooled buffer. The
// Content-Type slice is installed only when absent so steady-state
// writes against a reused header map allocate nothing.
func writeJSON(w http.ResponseWriter, body []byte) {
	h := w.Header()
	if _, ok := h["Content-Type"]; !ok {
		h["Content-Type"] = jsonCT
	}
	w.Write(body)
}

// writeWire is writeJSON's binary twin: a completed wire message from a
// pooled buffer under the wire media type.
func writeWire(w http.ResponseWriter, body []byte) {
	h := w.Header()
	if _, ok := h["Content-Type"]; !ok {
		h["Content-Type"] = wireCT
	}
	w.Write(body)
}

// handleAt serves GET /at?key=K&x=…&y=…[&z=…]. An Accept naming the
// binary wire media type switches the response to the "REMS" keyed
// message (the raw value bits, no text rendering); JSON stays the
// default.
func (s *Server) handleAt(w http.ResponseWriter, r *http.Request) {
	key, p, err := queryParams(r.URL.RawQuery, true)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	v, ver, err := s.b.At(key, p)
	if err != nil {
		queryError(w, err)
		return
	}
	if acceptsWire(r.Header.Get("Accept")) {
		bb := bufPool.Get().(*buffers)
		b := appendWireKeyedResponse(bb.out[:0], ver, key, v)
		writeWire(w, b)
		bb.out = b
		bufPool.Put(bb)
		return
	}
	bb := bufPool.Get().(*buffers)
	b := append(bb.out[:0], `{"key":`...)
	b = appendJSONString(b, key)
	b = append(b, `,"value":`...)
	b = appendJSONFloat(b, v)
	b = append(b, `,"version":`...)
	b = strconv.AppendUint(b, ver, 10)
	b = append(b, "}\n"...)
	writeJSON(w, b)
	bb.out = b
	bufPool.Put(bb)
}

// handleStrongest serves GET /strongest?x=…&y=…[&z=…], with the same
// Accept-negotiated binary variant as GET /at (the winning key rides in
// the "REMS" message).
func (s *Server) handleStrongest(w http.ResponseWriter, r *http.Request) {
	_, p, err := queryParams(r.URL.RawQuery, false)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	key, v, ver, err := s.b.Strongest(p)
	if err != nil {
		queryError(w, err)
		return
	}
	if acceptsWire(r.Header.Get("Accept")) {
		bb := bufPool.Get().(*buffers)
		b := appendWireKeyedResponse(bb.out[:0], ver, key, v)
		writeWire(w, b)
		bb.out = b
		bufPool.Put(bb)
		return
	}
	bb := bufPool.Get().(*buffers)
	b := append(bb.out[:0], `{"key":`...)
	b = appendJSONString(b, key)
	b = append(b, `,"value":`...)
	b = appendJSONFloat(b, v)
	b = append(b, `,"version":`...)
	b = strconv.AppendUint(b, ver, 10)
	b = append(b, "}\n"...)
	writeJSON(w, b)
	bb.out = b
	bufPool.Put(bb)
}

// handleAtBatch serves POST /at: the key is resolved once and the whole
// batch is answered by one snapshot of the owning store. The request
// codec follows Content-Type (see readBatch) and the response codec
// follows Accept independently, so any of the four format pairings
// works.
func (s *Server) handleAtBatch(w http.ResponseWriter, r *http.Request) {
	bb := bufPool.Get().(*buffers)
	defer func() { bufPool.Put(bb) }()
	key, ok := s.readBatch(w, r, bb, true)
	if !ok {
		return
	}
	if cap(bb.vals) < len(bb.pts) {
		bb.vals = make([]float64, len(bb.pts))
	}
	vals := bb.vals[:len(bb.pts)]
	ver, err := s.b.AtBatchInto(vals, key, bb.pts)
	if err != nil {
		queryError(w, err)
		return
	}
	if acceptsWire(r.Header.Get("Accept")) {
		b := appendWireBatchResponse(bb.out[:0], ver, vals)
		writeWire(w, b)
		bb.out = b
		return
	}
	b := append(bb.out[:0], `{"key":`...)
	b = appendJSONString(b, key)
	b = append(b, `,"values":[`...)
	for i, v := range vals {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONFloat(b, v)
	}
	b = append(b, `],"version":`...)
	b = strconv.AppendUint(b, ver, 10)
	b = append(b, "}\n"...)
	writeJSON(w, b)
	bb.out = b
}

// handleStrongestBatch serves POST /strongest: a best-server query for
// every point of the batch, answered through the coverage index of the
// serving snapshot(s). The codec negotiation mirrors POST /at —
// Content-Type picks the request decoder (JSON `{"points":[[x,y,z],…]}`
// or a "REMQ" message with a zero-length key; a key is accepted and
// ignored on both, strongest always scans the whole vocabulary), Accept
// picks the response encoder (JSON `{"keys":…,"values":…,"version":…}`
// or the "REMW" keyed-batch message) — and the same size caps apply.
// The version is the serving snapshot generation for a monolithic
// backend and 0 for a sharded one.
func (s *Server) handleStrongestBatch(w http.ResponseWriter, r *http.Request) {
	bb := bufPool.Get().(*buffers)
	defer func() { bufPool.Put(bb) }()
	if _, ok := s.readBatch(w, r, bb, false); !ok {
		return
	}
	if cap(bb.vals) < len(bb.pts) {
		bb.vals = make([]float64, len(bb.pts))
	}
	if cap(bb.skeys) < len(bb.pts) {
		bb.skeys = make([]string, len(bb.pts))
	}
	vals := bb.vals[:len(bb.pts)]
	keys := bb.skeys[:len(bb.pts)]
	ver, err := s.b.StrongestBatchInto(keys, vals, bb.pts)
	if err != nil {
		queryError(w, err)
		return
	}
	if acceptsWire(r.Header.Get("Accept")) {
		b := appendWireStrongestResponse(bb.out[:0], ver, keys, vals)
		writeWire(w, b)
		bb.out = b
		return
	}
	b := append(bb.out[:0], `{"keys":[`...)
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, k)
	}
	b = append(b, `],"values":[`...)
	for i, v := range vals {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONFloat(b, v)
	}
	b = append(b, `],"version":`...)
	b = strconv.AppendUint(b, ver, 10)
	b = append(b, "}\n"...)
	writeJSON(w, b)
	bb.out = b
}

// readBatch reads a POST /at or POST /strongest body into bb.pts and
// returns its key. Content-Type picks the codec: the binary wire format
// (application/x-rem-batch, decoded straight into the pooled point
// buffer with zero text parsing) or JSON. Both codecs accept the same
// batches — every point exactly three finite coordinates — and both
// answer 413 over MaxBatchBytes or MaxBatchPoints. needKey is false on
// POST /strongest, whose key is optional and ignored. ok is false when
// a response has already been written.
func (s *Server) readBatch(w http.ResponseWriter, r *http.Request, bb *buffers, needKey bool) (key string, ok bool) {
	body, ok := s.readCappedBody(w, r, bb)
	if !ok {
		return "", false
	}
	var err *wireError
	if isWireContentType(r.Header.Get("Content-Type")) {
		key, err = decodeWireBatch(body, bb, s.maxPoints, !needKey)
	} else {
		key, err = s.parseJSONBatch(body, bb, needKey)
	}
	if err != nil {
		http.Error(w, err.msg, err.status)
		return "", false
	}
	return key, true
}

// parseJSONBatch is the JSON request codec: one encoding/json call,
// then the key, batch-size and row-shape checks, filling bb.pts exactly
// like decodeWireBatch does. A row that is not exactly (x, y, z) is a
// 400, never a zero-filled or truncated point.
func (s *Server) parseJSONBatch(body []byte, bb *buffers, needKey bool) (string, *wireError) {
	var req struct {
		Key    string      `json:"key"`
		Points [][]jsonNum `json:"points"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return "", wireErrorf(400, "remserve: bad batch body: %s", err.Error())
	}
	if needKey && req.Key == "" {
		return "", wireErrorf(400, `remserve: batch body needs a "key"`)
	}
	if len(req.Points) > s.maxPoints {
		return "", wireErrorf(413, "remserve: batch of %d points exceeds the %d-point cap", len(req.Points), s.maxPoints)
	}
	bb.pts = bb.pts[:0]
	for i, q := range req.Points {
		if len(q) != 3 {
			return "", wireErrorf(400, "remserve: point %d has %d coordinates, want 3", i, len(q))
		}
		bb.pts = append(bb.pts, geom.V(float64(q[0]), float64(q[1]), float64(q[2])))
	}
	return req.Key, nil
}

// jsonNum is one element of a JSON body row. It decodes through
// strconv rather than as a plain float64 because encoding/json leaves a
// float64 untouched on null, which would turn [1,null,3] into (1,0,3).
// encoding/json has already checked the element is valid JSON, so
// ParseFloat fails exactly on a non-number (null, a string, an array)
// or one that overflows float64: every decoded jsonNum is finite.
type jsonNum float64

func (n *jsonNum) UnmarshalJSON(b []byte) error {
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return fmt.Errorf("%s is not a finite number", b)
	}
	*n = jsonNum(v)
	return nil
}

// handleSnapshot serves GET /snapshot: the binary codec of the serving
// map (Map.WriteTo — byte-identical to a direct library export of the
// same generation), with a strong ETag derived from the serving
// version(s). If-None-Match on an unchanged map answers 304 with no
// body, so a polling client pays one header exchange per unchanged
// generation. An Accept-Encoding naming gzip compresses the codec
// stream on the fly (pooled writers; decompressed bytes remain exactly
// Map.WriteTo); the ETag is the generation validator and is shared by
// both encodings — If-None-Match revalidation works identically with
// and without compression — and Vary: Accept-Encoding keeps shared
// caches from serving one client's encoding to the other.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	m, tag, err := s.b.Snapshot()
	if err != nil {
		queryError(w, err)
		return
	}
	etag := `"` + tag + `"`
	h := w.Header()
	h.Set("ETag", etag)
	h["Vary"] = varyAE
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h["Content-Type"] = binCT
	h.Set("X-REM-Version", tag)
	gz := acceptsGzip(r.Header.Get("Accept-Encoding"))
	if gz {
		h.Set("Content-Encoding", "gzip")
	}
	if r.Method == http.MethodHead {
		// Validators are set; skip serialising a body net/http would
		// discard anyway.
		return
	}
	if !gz {
		if _, err := m.WriteTo(w); err != nil {
			// Headers are gone; all we can do is abandon the connection.
			return
		}
		return
	}
	zw := gzPool.Get().(*gzip.Writer)
	zw.Reset(w)
	_, werr := m.WriteTo(zw)
	cerr := zw.Close()
	gzPool.Put(zw)
	if werr != nil || cerr != nil {
		// Headers (and possibly partial compressed bytes) are gone;
		// abandon the connection.
		return
	}
}

// handleDelta serves GET /delta?from=<tag>: the tile-delta ("REMD")
// message that turns the client's generation — named by the version tag
// it got from a previous /snapshot or /delta ETag — into the serving
// one. If the client is already current, 304. If the named base is no
// longer retained (evicted history, a restarted leader, a tag from
// another deployment — the tag is untrusted input and any unresolvable
// value lands here), the response degrades to the full snapshot codec,
// distinguished by Content-Type, so one request always yields bytes the
// follower can apply. Every 200 carries the serving tag in ETag and
// X-REM-Version; a delta body also echoes its base in X-REM-Delta-Base.
// An Accept-Encoding naming gzip compresses the response body — delta
// or full-snapshot fallback — exactly like /snapshot (pooled writers;
// the decompressed bytes remain the identical "REMD" message or
// Map.WriteTo codec, CRC trailer included), with Vary: Accept-Encoding
// on every response so shared caches keep the encodings apart.
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	m, tag, err := s.b.Snapshot()
	if err != nil {
		queryError(w, err)
		return
	}
	from, err := unescape(r.URL.Query().Get("from"))
	if err != nil || from == "" {
		http.Error(w, `remserve: /delta needs a "from" version tag`, http.StatusBadRequest)
		return
	}
	etag := `"` + tag + `"`
	h := w.Header()
	h.Set("ETag", etag)
	h["Vary"] = varyAE
	if from == tag || etagMatch(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("X-REM-Version", tag)
	gz := acceptsGzip(r.Header.Get("Accept-Encoding"))
	if base, ok := s.b.SnapshotAt(from); ok {
		bb := bufPool.Get().(*buffers)
		b, err := rem.AppendDelta(bb.out[:0], base, m)
		if err == nil {
			h["Content-Type"] = deltaCT
			h.Set("X-REM-Delta-Base", from)
			if gz {
				h.Set("Content-Encoding", "gzip")
			}
			if r.Method == http.MethodHead {
				bb.out = b
				bufPool.Put(bb)
				return
			}
			if !gz {
				w.Write(b)
			} else {
				zw := gzPool.Get().(*gzip.Writer)
				zw.Reset(w)
				_, werr := zw.Write(b)
				cerr := zw.Close()
				gzPool.Put(zw)
				_ = werr
				_ = cerr // headers are gone either way; nothing to report
			}
			bb.out = b
			bufPool.Put(bb)
			return
		}
		// A retained base the serving map cannot diff against (geometry
		// or vocabulary drift) degrades to a full snapshot like an
		// evicted one.
		bufPool.Put(bb)
	}
	h["Content-Type"] = binCT
	if gz {
		h.Set("Content-Encoding", "gzip")
	}
	if r.Method == http.MethodHead {
		return
	}
	if !gz {
		if _, err := m.WriteTo(w); err != nil {
			// Headers are gone; abandon the connection.
			return
		}
		return
	}
	zw := gzPool.Get().(*gzip.Writer)
	zw.Reset(w)
	_, werr := m.WriteTo(zw)
	cerr := zw.Close()
	gzPool.Put(zw)
	if werr != nil || cerr != nil {
		// Headers (and possibly partial compressed bytes) are gone;
		// abandon the connection.
		return
	}
}

// gzPool recycles gzip writers across /snapshot downloads — the
// deflate state is ~hundreds of KB, far too much to allocate per
// request.
var gzPool = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}

// acceptsGzip reports whether an Accept-Encoding header admits gzip:
// a "gzip" (or "x-gzip") member without q=0. The bare wildcard is
// deliberately not honoured — identity is this endpoint's default and
// always acceptable.
func acceptsGzip(header string) bool {
	for header != "" {
		var elem string
		if i := strings.IndexByte(header, ','); i >= 0 {
			elem, header = header[:i], header[i+1:]
		} else {
			elem, header = header, ""
		}
		coding := elem
		if i := strings.IndexByte(elem, ';'); i >= 0 {
			coding = elem[:i]
		}
		switch strings.ToLower(strings.TrimSpace(coding)) {
		case "gzip", "x-gzip":
			return !refusedByQ(elem)
		}
	}
	return false
}

// etagMatch reports whether an If-None-Match header matches the given
// strong ETag: "*", or any member of the comma-separated list (weak
// validators compare by opaque tag, per RFC 9110's weak comparison).
func etagMatch(header, etag string) bool {
	for header != "" {
		var c string
		if i := strings.IndexByte(header, ','); i >= 0 {
			c, header = header[:i], header[i+1:]
		} else {
			c, header = header, ""
		}
		c = strings.TrimSpace(c)
		c = strings.TrimPrefix(c, "W/")
		if c == "*" || c == etag {
			return true
		}
	}
	return false
}

// handleHealthz serves GET /healthz: 200 {"status":"serving",…} once
// every key-owning shard has published, 503 before — so "poll until
// healthz is 200" is a complete readiness check for the CI smoke and
// for orchestrators. The 503 body names the condition: "empty" when
// nothing has published, "degraded" when some shards serve and others
// are still pending (a store mid-first-round), with the pending count —
// an operator reading the probe sees which failure they have, not a
// bare status code.
func (s *Server) handleHealthz(w http.ResponseWriter) {
	tag, shards, pending := s.b.Versions()
	status := "serving"
	if pending > 0 {
		status = "empty"
		// Versions have no leading zeros, so a tag with any digit other
		// than 0 names a shard that has published.
		if strings.Trim(tag, ".0") != "" {
			status = "degraded"
		}
	}
	bb := bufPool.Get().(*buffers)
	b := append(bb.out[:0], `{"status":"`...)
	b = append(b, status...)
	b = append(b, `","shards":`...)
	b = strconv.AppendInt(b, int64(shards), 10)
	if pending > 0 {
		b = append(b, `,"pending_shards":`...)
		b = strconv.AppendInt(b, int64(pending), 10)
	}
	b = append(b, `,"version":"`...)
	b = append(b, tag...)
	b = append(b, "\"}\n"...)
	h := w.Header()
	if _, ok := h["Content-Type"]; !ok {
		h["Content-Type"] = jsonCT
	}
	if pending > 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	w.Write(b)
	bb.out = b
	bufPool.Put(bb)
}

// handleVersion serves GET /version: the serving version tag and shard
// count, 200 whether or not anything has published (version "0"s until
// then).
func (s *Server) handleVersion(w http.ResponseWriter) {
	tag, shards, _ := s.b.Versions()
	bb := bufPool.Get().(*buffers)
	b := append(bb.out[:0], `{"version":"`...)
	b = append(b, tag...)
	b = append(b, `","shards":`...)
	b = strconv.AppendInt(b, int64(shards), 10)
	b = append(b, "}\n"...)
	writeJSON(w, b)
	bb.out = b
	bufPool.Put(bb)
}

// readCappedBody is the one body-cap gate every POST endpoint (/at,
// /strongest, /observe) shares: the declared Content-Length and the
// actual bytes are both held to MaxBatchBytes (413 over it, 400 on a
// read fault), and the body lands in the pooled request buffer. ok is
// false when a response has already been written.
func (s *Server) readCappedBody(w http.ResponseWriter, r *http.Request, bb *buffers) ([]byte, bool) {
	if r.ContentLength > s.maxBytes {
		http.Error(w, fmt.Sprintf("remserve: batch body exceeds %d bytes", s.maxBytes), http.StatusRequestEntityTooLarge)
		return nil, false
	}
	body, err := readBody(bb.body[:0], r.Body, s.maxBytes)
	bb.body = body[:0]
	if err != nil {
		if errors.Is(err, errBodyTooLarge) {
			http.Error(w, fmt.Sprintf("remserve: batch body exceeds %d bytes", s.maxBytes), http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return nil, false
	}
	return body, true
}

// errBodyTooLarge marks a request body over the configured cap.
var errBodyTooLarge = errors.New("remserve: request body too large")

// readBody appends the request body into dst, refusing bodies longer
// than maxBytes — without the per-request wrapper allocation
// http.MaxBytesReader would cost the hot batch path. The reused dst
// capacity bounds each read, so an over-cap (or unbounded chunked)
// body is detected within one buffer growth of the cap.
func readBody(dst []byte, r io.Reader, maxBytes int64) ([]byte, error) {
	for {
		if int64(len(dst)) > maxBytes {
			return dst, errBodyTooLarge
		}
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			if int64(len(dst)) > maxBytes {
				return dst, errBodyTooLarge
			}
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// queryParams scans a raw query string in place: key (when wantKey),
// x, y required, z optional (0 — the store clamps into the volume
// anyway). Unescaping allocates only for values that actually contain
// %-escapes or '+', so plain requests parse allocation-free. Coordinates
// must be finite.
func queryParams(raw string, wantKey bool) (string, geom.Vec3, error) {
	var key string
	var p geom.Vec3
	var haveKey, haveX, haveY bool
	for raw != "" {
		var seg string
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			seg, raw = raw[:i], raw[i+1:]
		} else {
			seg, raw = raw, ""
		}
		if seg == "" {
			continue
		}
		name, val := seg, ""
		if i := strings.IndexByte(seg, '='); i >= 0 {
			name, val = seg[:i], seg[i+1:]
		}
		switch name {
		case "key":
			k, err := unescape(val)
			if err != nil {
				return "", geom.Vec3{}, fmt.Errorf("remserve: bad key escaping: %w", err)
			}
			key, haveKey = k, true
		case "x":
			v, err := parseCoord(name, val)
			if err != nil {
				return "", geom.Vec3{}, err
			}
			p.X, haveX = v, true
		case "y":
			v, err := parseCoord(name, val)
			if err != nil {
				return "", geom.Vec3{}, err
			}
			p.Y, haveY = v, true
		case "z":
			v, err := parseCoord(name, val)
			if err != nil {
				return "", geom.Vec3{}, err
			}
			p.Z = v
		}
	}
	if wantKey && !haveKey {
		return "", geom.Vec3{}, errors.New(`remserve: missing "key" parameter`)
	}
	if !haveX || !haveY {
		return "", geom.Vec3{}, errors.New(`remserve: missing "x"/"y" parameters`)
	}
	return key, p, nil
}

// parseCoord decodes one coordinate under standard query semantics —
// %-escapes resolve and '+' means space, so a correctly encoded
// exponent sign arrives as "%2B" ("x=1e%2B5" parses, a literal
// "x=1e+5" is "1e 5" and fails) — then requires a finite float. The
// unescape fast path keeps plain numbers allocation-free.
func parseCoord(name, val string) (float64, error) {
	val, err := unescape(val)
	if err != nil {
		return 0, fmt.Errorf("remserve: bad %s escaping: %w", name, err)
	}
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, fmt.Errorf("remserve: bad %s %q", name, val)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("remserve: %s %q is not finite", name, val)
	}
	return v, nil
}

// unescape resolves %-escapes and '+' in a query value; the common case
// (a plain MAC key — hex and colons) is returned as a zero-copy
// substring.
func unescape(val string) (string, error) {
	if !strings.ContainsAny(val, "%+") {
		return val, nil
	}
	return url.QueryUnescape(val)
}

// appendJSONFloat appends v as a JSON number in strconv 'g' shortest
// round-trip form; non-finite values (unrepresentable in JSON) become
// null.
func appendJSONFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, "null"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendJSONString appends s as a JSON string. Keys are MAC-shaped (hex
// digits and colons), so the fast path copies bytes between quotes;
// anything needing escapes falls back to encoding/json.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x80 {
			enc, err := json.Marshal(s)
			if err != nil {
				// A Go string always marshals; keep the signature total.
				return append(append(append(b, '"'), []byte("?")...), '"')
			}
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
