package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/rem"
)

// The traced run (-trace 1) records spans around the calls this
// benchmark makes into each layer, from the benchmark's own files: the
// program itself gains no tracing. Spans stay in memory and are written
// as JSON lines when the run ends. Query spans are sampled 1 in
// checkEvery; the per-layer query costs come from replaying up to
// maxReplays sampled requests per kind and client in-process, first
// through the server's ServeHTTP (no socket) and then straight into the
// serving store.

// span is one timed interval. Spans of one request or batch share a
// trace id; parent names the span that caused it (0 for a root).
// Replayed spans are named "replay.*": they re-run the request after
// the measured phase rather than nest inside it in time.
type span struct {
	Trace   uint64 `json:"trace"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

type tracer struct {
	mu     sync.Mutex
	spans  []span
	nextID uint64
}

// add records a span and returns its id.
func (t *tracer) add(trace, parent uint64, name string, start, end int64) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.spans = append(t.spans, span{Trace: trace, ID: t.nextID, Parent: parent, Name: name, StartNS: start, EndNS: end})
	return t.nextID
}

// newTrace allocates a trace id.
func (t *tracer) newTrace() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// libRepeat is how many times a replayed library call runs per sample,
// so that one clock read pair is spread over several calls.
const libRepeat = 8

// remNames are the store rungs of the four request kinds: per call for
// the point queries, per point for the batches.
var remNames = [numKinds]string{"rem.at_ns", "rem.strongest_ns", "rem.at_batch_ns_per_pt", "rem.strongest_batch_ns_per_pt"}

// traceQueries replays the sampled requests through h.ServeHTTP and
// the store b, and reports the remserve and rem rungs of the query
// ladder.
func traceQueries(rep *report, tr *tracer, h http.Handler, b backend, samples []sampled) {
	var serve, client, lib [numKinds][]float64 // µs per request
	var points [numKinds]int
	dw := &discardWriter{h: http.Header{}}
	var vals []float64
	var keys []string
	for _, s := range samples {
		trace := tr.newTrace()
		root := tr.add(trace, 0, "client."+kindNames[s.kind], s.startNS, s.endNS)
		client[s.kind] = append(client[s.kind], us(time.Duration(s.endNS-s.startNS)))
		q := s.q
		if q == nil {
			continue
		}
		points[q.kind] = len(q.pts)

		req, err := q.httpRequest()
		if err != nil {
			rep.fail("replay: %v", err)
			continue
		}
		clear(dw.h)
		dw.code = 0
		t0 := nowNS()
		h.ServeHTTP(dw, req)
		t1 := nowNS()
		if dw.code != 0 && dw.code != http.StatusOK {
			rep.fail("replay %s: status %d", kindNames[q.kind], dw.code)
			continue
		}
		tr.add(trace, root, "replay.remserve.ServeHTTP", t0, t1)
		serve[q.kind] = append(serve[q.kind], us(time.Duration(t1-t0)))

		if cap(vals) < len(q.pts) {
			vals, keys = make([]float64, len(q.pts)), make([]string, len(q.pts))
		}
		vals, keys = vals[:len(q.pts)], keys[:len(q.pts)]
		t0 = nowNS()
		for i := 0; i < libRepeat; i++ {
			switch q.kind {
			case getAt:
				_, _, err = b.At(q.key, q.pts[0])
			case getStrongest:
				_, _, _, err = b.Strongest(q.pts[0])
			case postAtBin:
				_, err = b.AtBatchInto(vals, q.key, q.pts)
			default:
				_, err = b.StrongestBatchInto(keys, vals, q.pts)
			}
		}
		t1 = nowNS()
		if err != nil {
			rep.fail("replay store %s: %v", kindNames[q.kind], err)
			continue
		}
		tr.add(trace, root, "replay.store."+kindNames[q.kind], t0, t1)
		lib[q.kind] = append(lib[q.kind], us(time.Duration(t1-t0))/libRepeat)
	}
	var overhead, weight float64
	for k := queryKind(0); k < numKinds; k++ {
		d := summarize(serve[k], 99)
		c, l := summarize(client[k], 99), summarize(lib[k], 99)
		prefix := "remserve." + kindNames[k]
		rep.set(prefix+".p50_us", d.p50, fmt.Sprintf("ServeHTTP replay, n=%d", d.n))
		rep.set(prefix+".p99_us", percentile(serve[k], 99), fmt.Sprintf("n=%d", d.n))
		rep.set(prefix+".count", float64(d.n), "")
		if l.n > 0 {
			rep.set(remNames[k], l.p50*1e3/float64(points[k]), fmt.Sprintf("median of %d replays of %d point(s)", l.n, points[k]))
		}
		if c.n > 0 && l.n > 0 {
			overhead += float64(c.n) * (c.p50 - l.p50)
			weight += float64(c.n)
		}
	}
	if weight > 0 {
		rep.set("remserve.overhead_us_per_req", overhead/weight, "client p50 minus library-call p50 per request kind, weighted by the mix")
	}
}

// discardWriter is the ResponseWriter of the replays: it keeps the
// status and drops the body.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(p), nil
}
func (w *discardWriter) WriteHeader(code int) { w.code = code }

// traceMaps reports the coverage-index and snapshot-size rungs of the
// serving maps (one per shard) and the merged snapshot.
func traceMaps(rep *report, parts []*rem.Map, merged *rem.Map) {
	var cand, cubes, keys int
	for _, m := range parts {
		st, ok := m.CoverIndexStats()
		if !ok {
			rep.problem("serving map carries no coverage index")
			return
		}
		cand += st.Candidates
		cubes = st.Cubes
		keys += len(m.Keys())
	}
	if cubes > 0 && keys > 0 {
		perCube := float64(cand) / float64(cubes)
		rep.set("rem.coverindex.candidates_per_cube", perCube, fmt.Sprintf("over %d keys, %d cubes", keys, cubes))
		rep.set("rem.coverindex.prune_ratio", perCube/float64(keys), "candidates / keys")
	}
	var cw countingWriter
	if _, err := merged.WriteTo(&cw); err != nil {
		rep.problem("snapshot encode: %v", err)
		return
	}
	rep.set("rem.snapshot_bytes", float64(cw.n), fmt.Sprintf("codec bytes, version %d", merged.Version()))
}

// timerOvershoot measures how late a 500 µs sleep wakes up on this
// host, in µs (median of 200): the floor under any open-loop
// schedule's lateness.
func timerOvershoot() float64 {
	const n, d = 200, 500 * time.Microsecond
	xs := make([]float64, n)
	for i := range xs {
		t := time.Now()
		time.Sleep(d)
		xs[i] = us(time.Since(t) - d)
	}
	return summarize(xs, 50).p50
}

// heapMB is HeapInuse after forced GCs, in MB (10^6 bytes). The
// second GC frees what sync.Pools kept through the first.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / 1e6
}
