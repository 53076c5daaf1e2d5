package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/rem"
	"repro/internal/remserve"
)

// queryKind is one request shape of the query mixes.
type queryKind int

const (
	getAt queryKind = iota
	getStrongest
	postAtBin
	postStrongestBin
	numKinds
)

var kindNames = [numKinds]string{"get_at", "get_strongest", "post_at_bin", "post_strongest_bin"}

// checkEvery is the sampling interval of the bit-for-bit check against
// the direct library call and of the traced request spans.
const checkEvery = 64

// queryReq is one generated request, encoded for the socket.
type queryReq struct {
	kind   queryKind
	key    string      // empty for strongest
	pts    []geom.Vec3 // one point for GETs
	target string      // request target: path and query
	body   []byte      // POST body, binary wire
	wire   []byte      // the whole encoded request
}

// wireHeader is what the binary-wire POSTs add to a request.
var wireHeader = []string{"Content-Type: " + remserve.WireContentType, "Accept: " + remserve.WireContentType}

// set makes q a request of the given kind, reusing q's buffers. q
// keeps pts.
func (q *queryReq) set(kind queryKind, key string, pts []geom.Vec3) {
	q.kind, q.key, q.pts = kind, key, pts
	p := pts[0]
	switch kind {
	case getAt:
		// MAC keys (hex digits and colons) need no escaping.
		q.target, q.body = "/at?key="+key+"&x="+coord(p.X)+"&y="+coord(p.Y)+"&z="+coord(p.Z), nil
	case getStrongest:
		q.target, q.body = "/strongest?x="+coord(p.X)+"&y="+coord(p.Y)+"&z="+coord(p.Z), nil
	case postAtBin:
		q.target, q.body = "/at", remserve.AppendBatchRequest(q.body[:0], key, pts)
	default:
		q.target, q.body = "/strongest", remserve.AppendStrongestRequest(q.body[:0], pts)
	}
	method, header := "GET", []string(nil)
	if q.body != nil {
		method, header = "POST", wireHeader
	}
	q.wire = encodeRequest(q.wire[:0], method, q.target, header, q.body)
}

// clone copies q out of a reused buffer.
func (q *queryReq) clone() *queryReq {
	c := *q
	c.pts = append([]geom.Vec3(nil), q.pts...)
	c.body = append([]byte(nil), q.body...)
	c.wire = nil // replays rebuild the request from target and body
	return &c
}

// httpRequest rebuilds q as an *http.Request for an in-process replay.
func (q *queryReq) httpRequest() (*http.Request, error) {
	if q.body == nil {
		return http.NewRequest(http.MethodGet, "http://rembench"+q.target, nil)
	}
	req, err := http.NewRequest(http.MethodPost, "http://rembench"+q.target, bytes.NewReader(q.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", remserve.WireContentType)
	req.Header.Set("Accept", remserve.WireContentType)
	return req, nil
}

// source hands a closed loop its i-th request; the request stays valid
// until the next call.
type source func(i int) *queryReq

// kindAt is query_point's fixed rotation: three /at requests to every
// /strongest, so every seed and every window sees the same mix.
func kindAt(i int) queryKind {
	if i%4 == 3 {
		return getStrongest
	}
	return getAt
}

// getPool is one client's JSON GETs of one uniform point each, keys
// drawn Zipf, the i-th of the given kind. The pool is encoded up front,
// so the client spends nothing but the socket calls per request.
func getPool(w *world, stream string, kind func(i int) queryKind) []queryReq {
	qs := w.queries(stream, 4096)
	pool := make([]queryReq, len(qs))
	for i, q := range qs {
		pool[i].set(kind(i), w.macs[q.key], []geom.Vec3{q.p})
	}
	return pool
}

func poolSource(pool []queryReq) source {
	return func(i int) *queryReq { return &pool[i%len(pool)] }
}

// bulkSource draws a query_bulk client's requests as they are sent:
// binary POSTs of n uniform points, keys drawn Zipf, alternating
// between /at and /strongest (1:1, fixed like kindAt). Generating them
// fresh costs a few percent of a request, and keeps the keys and the
// grid cells they touch distributed as drawn instead of as a small
// pool would sample them.
func bulkSource(w *world, client, n int) source {
	r := newRNG(w.seed, fmt.Sprintf("bulk-client-%d", client))
	q := &queryReq{}
	pts := make([]geom.Vec3, n)
	return func(i int) *queryReq {
		for j := range pts {
			pts[j] = w.uniformPoint(r)
		}
		q.set(postAtBin+queryKind(i%2), w.macs[w.zipf.draw(r)], pts)
		return q
	}
}

// backend is the part of remserve.Backend the answers are checked
// against: the store the server fronts, called directly.
type backend interface {
	At(key string, p geom.Vec3) (float64, uint64, error)
	Strongest(p geom.Vec3) (string, float64, uint64, error)
	AtBatchInto(dst []float64, key string, pts []geom.Vec3) (uint64, error)
	StrongestBatchInto(keys []string, vals []float64, pts []geom.Vec3) (uint64, error)
}

// sampled is a request a traced run timed; q is kept for the replays
// of the first maxReplays samples of each kind and nil after them.
type sampled struct {
	kind           queryKind
	q              *queryReq
	startNS, endNS int64 // client round trip
}

// maxReplays bounds the sampled requests a client keeps per kind: a
// 512-point request is tens of KB, and thousands of them would load
// the collector while the loop is measured.
const maxReplays = 256

// numWindows is how many equal slices the measured phase of a closed
// loop is cut into. The loop's metrics are medians over the slices, so
// a burst of load from outside the benchmark that covers a few slices
// does not move them.
const numWindows = 10

// window is one slice of a closed loop's measured phase.
type window struct {
	lat    []float64 // request latencies, ms
	points int       // points answered
}

// loopResult is one closed-loop client's record.
type loopResult struct {
	windows  [numWindows]window
	attempts int
	sampled  []sampled
	failures []string
	failed   int
}

func (lr *loopResult) fail(format string, args ...any) {
	lr.failed++
	if len(lr.failures) < 4 {
		lr.failures = append(lr.failures, fmt.Sprintf(format, args...))
	}
}

// closedLoop sends the source's requests back to back on one
// connection until end, recording requests that start at or after
// measureFrom. Every response's status and decoding is checked; every
// checkEvery-th is compared bit for bit with the direct library call
// (when check returns a store; nil skips the comparison, as for a
// follower whose version was evicted) and, when traced, kept as a
// sample.
func closedLoop(base string, next source, measureFrom, end time.Time, check func(ver uint64) backend, traced bool) *loopResult {
	lr := &loopResult{}
	var kept [numKinds]int
	span := end.Sub(measureFrom)
	c := newConn(base)
	defer c.close()
	for i := 0; ; i++ {
		q := next(i)
		t0 := time.Now()
		if !t0.Before(end) {
			break
		}
		startNS := nowNS()
		code, body, err := c.roundTrip(q.wire)
		lat := time.Since(t0)
		lr.attempts++
		measured := !t0.Before(measureFrom)
		if err != nil || code != http.StatusOK {
			lr.fail("%s: status %d err %v", kindNames[q.kind], code, err)
			continue
		}
		// One request in checkEvery is checked deeply (and traced); the
		// offset rotates so that every kind of the mix is sampled.
		deep := i%checkEvery == (i/checkEvery)%4
		if err := verify(q, body, deep, check); err != nil {
			lr.fail("%s: %v", kindNames[q.kind], err)
			continue
		}
		if measured {
			w := &lr.windows[min(numWindows-1, int(t0.Sub(measureFrom)*numWindows/span))]
			w.lat = append(w.lat, ms(lat))
			w.points += len(q.pts)
			if deep && traced {
				sm := sampled{kind: q.kind, startNS: startNS, endNS: startNS + int64(lat)}
				if kept[q.kind] < maxReplays {
					sm.q = q.clone()
					kept[q.kind]++
				}
				lr.sampled = append(lr.sampled, sm)
			}
		}
	}
	return lr
}

// answer is a decoded response, normalised across the four shapes.
type answer struct {
	keys []string // strongest only
	vals []float64
	ver  uint64
}

// verify decodes a response and, when deep, compares it bit for bit
// with the direct library call on the store check resolves for the
// response's version.
func verify(q *queryReq, body []byte, deep bool, check func(uint64) backend) error {
	got, err := decode(q, body)
	if err != nil {
		return err
	}
	if len(got.vals) != len(q.pts) || (got.keys != nil && len(got.keys) != len(q.pts)) {
		return fmt.Errorf("%d keys, %d values for %d points", len(got.keys), len(got.vals), len(q.pts))
	}
	if !deep {
		return nil
	}
	b := check(got.ver)
	if b == nil {
		return nil
	}
	want, err := library(q, b)
	if err != nil {
		return fmt.Errorf("library call: %w", err)
	}
	if got.ver != want.ver {
		return fmt.Errorf("version %d, library %d", got.ver, want.ver)
	}
	for i := range want.vals {
		if !sameBits(got.vals[i], want.vals[i]) || (want.keys != nil && got.keys[i] != want.keys[i]) {
			return fmt.Errorf("point %d: answered %v %v, library %v %v", i, got.keys, got.vals[i], want.keys, want.vals[i])
		}
	}
	return nil
}

func decode(q *queryReq, body []byte) (answer, error) {
	switch q.kind {
	case getAt, getStrongest:
		key, v, ver, err := parseKeyedJSON(body)
		if err != nil {
			return answer{}, err
		}
		a := answer{vals: []float64{v}, ver: ver}
		if q.kind == getStrongest {
			a.keys = []string{string(key)}
		} else if string(key) != q.key {
			return answer{}, fmt.Errorf("answered key %q, asked %q", key, q.key)
		}
		return a, nil
	case postAtBin:
		vals, ver, err := remserve.DecodeBatchResponse(body)
		return answer{vals: vals, ver: ver}, err
	default:
		keys, vals, ver, err := remserve.DecodeStrongestResponse(body)
		return answer{keys: keys, vals: vals, ver: ver}, err
	}
}

// library answers q by calling the store directly.
func library(q *queryReq, b backend) (answer, error) {
	switch q.kind {
	case getAt:
		v, ver, err := b.At(q.key, q.pts[0])
		return answer{vals: []float64{v}, ver: ver}, err
	case getStrongest:
		k, v, ver, err := b.Strongest(q.pts[0])
		return answer{keys: []string{k}, vals: []float64{v}, ver: ver}, err
	case postAtBin:
		a := answer{vals: make([]float64, len(q.pts))}
		var err error
		a.ver, err = b.AtBatchInto(a.vals, q.key, q.pts)
		return a, err
	default:
		a := answer{keys: make([]string, len(q.pts)), vals: make([]float64, len(q.pts))}
		var err error
		a.ver, err = b.StrongestBatchInto(a.keys, a.vals, q.pts)
		return a, err
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// parseKeyedJSON decodes the GET /at and GET /strongest body,
// {"key":K,"value":V|null,"version":N}, strictly: any other shape is an
// error.
func parseKeyedJSON(b []byte) (key []byte, v float64, ver uint64, err error) {
	rest, ok := bytes.CutPrefix(b, []byte(`{"key":"`))
	if !ok {
		return nil, 0, 0, fmt.Errorf("bad body %q", b)
	}
	i := bytes.IndexByte(rest, '"')
	if i < 0 {
		return nil, 0, 0, fmt.Errorf("bad body %q", b)
	}
	key, rest = rest[:i], rest[i+1:]
	if rest, ok = bytes.CutPrefix(rest, []byte(`,"value":`)); !ok {
		return nil, 0, 0, fmt.Errorf("bad body %q", b)
	}
	i = bytes.IndexByte(rest, ',')
	if i < 0 {
		return nil, 0, 0, fmt.Errorf("bad body %q", b)
	}
	if num := rest[:i]; string(num) == "null" {
		v = math.NaN()
	} else if v, err = strconv.ParseFloat(string(num), 64); err != nil {
		return nil, 0, 0, err
	}
	rest = rest[i+1:]
	if rest, ok = bytes.CutPrefix(rest, []byte(`"version":`)); !ok {
		return nil, 0, 0, fmt.Errorf("bad body %q", b)
	}
	if rest, ok = bytes.CutSuffix(rest, []byte("}\n")); !ok {
		return nil, 0, 0, fmt.Errorf("bad body %q", b)
	}
	if ver, err = strconv.ParseUint(string(rest), 10, 64); err != nil {
		return nil, 0, 0, err
	}
	return key, v, ver, nil
}

// runClients runs one closed-loop client per source against base for
// warmup+measure and merges their records.
func runClients(base string, sources []source, warmup, measure time.Duration, check func(uint64) backend, traced bool) *loopResult {
	start := time.Now()
	from, end := start.Add(warmup), start.Add(warmup+measure)
	results := make([]*loopResult, len(sources))
	var wg sync.WaitGroup
	for i := range sources {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = closedLoop(base, sources[i], from, end, check, traced)
		}(i)
	}
	wg.Wait()
	all := &loopResult{}
	for _, r := range results {
		for i := range all.windows {
			all.windows[i].lat = append(all.windows[i].lat, r.windows[i].lat...)
			all.windows[i].points += r.windows[i].points
		}
		all.attempts += r.attempts
		all.sampled = append(all.sampled, r.sampled...)
		all.failed += r.failed
		all.failures = append(all.failures, r.failures...)
	}
	return all
}

// runQuery is the query_point / query_bulk workload: boot the sharded
// leader (several times, keeping the last), then drive it closed loop.
func runQuery(cfg config, w *world, bulk bool, tr *tracer) *report {
	grid := pointGrid
	if bulk {
		grid = cfg.bulkGrid
	}
	rep := newReport()
	data := w.survey()
	var setups []float64
	var qs *queryStack
	for setupStart, i := time.Now(), 0; cfg.moreSetups(i, setupStart); i++ {
		s, d, err := bootQueryStack(data, grid)
		rep.attempted++
		if err != nil {
			rep.fail("setup: %v", err)
			return rep
		}
		setups = append(setups, d.Seconds())
		if qs != nil {
			qs.close()
		}
		qs = s
	}
	defer qs.close()
	sd := summarize(setups, 50)
	rep.set("setup_s", sd.p50, fmt.Sprintf("median of %d set-ups (%dx%dx%d grid, %d shards)", sd.n, grid[0], grid[1], grid[2], numShards))

	sources := make([]source, numClients)
	for c := range sources {
		if bulk {
			sources[c] = bulkSource(w, c, cfg.bulkPoints)
		} else {
			sources[c] = poolSource(getPool(w, fmt.Sprintf("point-client-%d", c), kindAt))
		}
	}
	// The sharded store never republishes here: every answer is checked
	// against its current generation.
	store := remserve.ShardedBackend(qs.ss)
	check := func(uint64) backend { return store }
	lr := runClients(qs.url, sources, cfg.warmup(), cfg.measure(), check, tr != nil)
	rep.attempted += lr.attempts
	rep.failed += lr.failed
	for _, f := range lr.failures {
		rep.problem("%s", f)
	}
	unit := "requests"
	if bulk {
		unit = fmt.Sprintf("requests of %d points", cfg.bulkPoints)
	}
	if !reportWindows(rep, lr, cfg.measure(), fmt.Sprintf("%s, %d clients", unit, numClients), true) {
		return rep
	}

	if tr != nil {
		traceQueries(rep, tr, qs.srv, store, lr.sampled)
		parts := make([]*rem.Map, numShards)
		for si := range parts {
			parts[si] = qs.ss.StoreOf(si).Current().Map()
		}
		merged, err := qs.ss.MergedSnapshot()
		if err != nil {
			rep.problem("merged snapshot: %v", err)
		} else {
			traceMaps(rep, parts, merged)
		}
	}
	rep.set("heap_mb", heapMB(), "HeapInuse after GC, leader serving")
	return rep
}

// reportWindows sets pts_per_s and, when latency is set, the latency
// metrics of a closed loop: each is the median over the measured
// phase's windows of that window's throughput, p50 and p99. It reports
// false when some window saw no request.
func reportWindows(rep *report, lr *loopResult, measure time.Duration, what string, latency bool) bool {
	var thr, p50, p99 []float64
	n := 0
	for i := range lr.windows {
		w := &lr.windows[i]
		d := summarize(w.lat, 99)
		if d.n == 0 {
			rep.problem("no request completed in window %d of the measured phase", i)
			return false
		}
		n += d.n
		thr = append(thr, float64(w.points)/(measure.Seconds()/numWindows))
		p50 = append(p50, d.p50)
		p99 = append(p99, percentile(w.lat, 99))
		w.lat = nil
	}
	td, pd, tl := summarize(thr, 50), summarize(p50, 50), summarize(p99, 50)
	rep.set("pts_per_s", td.p50, fmt.Sprintf("median of %d windows (%.4g–%.4g), n=%d %s", numWindows, thr[0], thr[len(thr)-1], n, what))
	if latency {
		rep.set("latency_p50_ms", pd.p50, fmt.Sprintf("median of %d window p50s (%.4g–%.4g), n=%d", numWindows, p50[0], p50[len(p50)-1], n))
		rep.set("latency_tail_ms", tl.p50, fmt.Sprintf("median of %d window p99s (%.4g–%.4g), n=%d", numWindows, p99[0], p99[len(p99)-1], n))
	}
	return true
}
