// Package remserve is the network edge of the REM serving stack: a
// net/http front over a live snapshot store — the sharded
// remshard.ShardedStore or a plain remstore.Store — so consumers can
// query the map without linking the Go packages. The store keeps
// publishing new generations underneath it (core.RunStream, targeted
// Rebuild calls); the server never takes a lock on the query path, so a
// rebuild never blocks an HTTP response and a response never observes a
// half-published map.
//
// Endpoints:
//
//	GET  /at?key=K&x=…&y=…[&z=…]   one interpolated value for key K
//	POST /at                       batch: {"key":K,"points":[[x,y,z],…]}
//	GET  /strongest?x=…&y=…[&z=…]  best-server query across all keys
//	POST /strongest                batch: {"points":[[x,y,z],…]}
//	POST /observe                  ingest (Options.Ingest): WAL-durable
//	                               observation batches, see ingest.go
//	GET  /snapshot                 binary codec of the serving map (ETag)
//	GET  /delta?from=<tag>         tile delta since a retained generation
//	                               (full snapshot when the base is gone)
//	GET  /healthz                  200 serving / 503 empty or degraded,
//	                               version + shards (+ pending count)
//	GET  /version                  serving version tag + shard count
//
// Every successful query response carries the serving snapshot version
// (the JSON "version" field; the dotted per-shard tag on /snapshot,
// /healthz and /version), so clients can detect generation swaps.
// /snapshot sets a strong ETag derived from the serving versions and
// honours If-None-Match — an unchanged map costs one header exchange.
//
// Determinism contract rule 8 extends over the wire: the bytes served
// by /at, /strongest and /snapshot are exactly what the direct
// library calls return (for /snapshot, byte-identical to
// Map.WriteTo of the same serving generation), for any partitioner and
// shard count, under concurrent rebuilds. The hot handlers allocate
// nothing after warm-up: request parsing works on the raw query string,
// and response bodies are assembled in pooled buffers.
package remserve

import (
	"context"
	"net"
	"strconv"
	"strings"
	"time"

	"repro/internal/geom"
	"repro/internal/rem"
	"repro/internal/remobs"
	"repro/internal/remshard"
	"repro/internal/remstore"
	"repro/internal/remwal"
)

// ErrEmpty is what queries return before the backing store has
// published — re-exported so HTTP callers need not import remstore.
var ErrEmpty = remstore.ErrEmpty

// Backend is the serving surface the HTTP layer fronts. Both store
// flavours satisfy it (StoreBackend, ShardedBackend); all methods must
// be safe for arbitrary concurrency with each other and with rebuilds,
// which the stores guarantee.
type Backend interface {
	// At answers a point query for one key; the version is the serving
	// snapshot generation of the store (or owning shard) that answered.
	At(key string, p geom.Vec3) (float64, uint64, error)
	// AtBatchInto answers a multi-point query for one key into a
	// caller-owned buffer; len(dst) must equal len(pts).
	AtBatchInto(dst []float64, key string, pts []geom.Vec3) (uint64, error)
	// Strongest answers a best-server query across the vocabulary.
	Strongest(p geom.Vec3) (string, float64, uint64, error)
	// StrongestBatchInto answers a best-server query for every point into
	// caller-owned buffers; len(keys) and len(vals) must equal len(pts).
	// The version is the serving snapshot generation for a monolithic
	// store and 0 for a sharded one (a batch may span shard snapshots; the
	// per-point answers still match the monolithic store bit for bit —
	// rule 8 — only the single version tag has no sharded equivalent).
	StrongestBatchInto(keys []string, vals []float64, pts []geom.Vec3) (uint64, error)
	// Snapshot returns the serving map and its version tag (the ETag
	// body): the snapshot version for a monolithic store, the dotted
	// per-shard version vector for a sharded one. The tag uniquely
	// identifies the returned bytes.
	Snapshot() (*rem.Map, string, error)
	// SnapshotAt resolves a historical generation by its version tag —
	// the delta-base lookup behind GET /delta. ok=false means the
	// generation is no longer retained (or the tag never named one), and
	// the server falls back to a full snapshot.
	SnapshotAt(tag string) (*rem.Map, bool)
	// Versions reports what /healthz and /version render: the dotted
	// per-shard serving-version tag ("0" entries for shards that have not
	// published), the shard count, and how many key-owning shards have
	// not published yet (0 once serving).
	Versions() (tag string, shards, pending int)
}

// versionTag renders the serving versions as the dotted tag used by
// ETags, /healthz and /version: "7" monolithic, "3.1.2.4" sharded.
func versionTag(versions []uint64) string {
	b := make([]byte, 0, 4*len(versions))
	for i, v := range versions {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, v, 10)
	}
	return string(b)
}

// parseVersionTag inverts versionTag: a dotted tag back into a version
// vector, or ok=false for anything malformed (a client-supplied tag is
// untrusted input).
func parseVersionTag(tag string) ([]uint64, bool) {
	var versions []uint64
	for len(tag) > 0 {
		part := tag
		if i := strings.IndexByte(tag, '.'); i >= 0 {
			part, tag = tag[:i], tag[i+1:]
		} else {
			tag = ""
		}
		v, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return nil, false
		}
		versions = append(versions, v)
	}
	return versions, len(versions) > 0
}

// storeBackend fronts one monolithic remstore.Store.
type storeBackend struct{ st *remstore.Store }

// StoreBackend adapts a monolithic snapshot store to the serving
// surface.
func StoreBackend(st *remstore.Store) Backend { return storeBackend{st} }

func (b storeBackend) At(key string, p geom.Vec3) (float64, uint64, error) {
	return b.st.At(key, p)
}

func (b storeBackend) AtBatchInto(dst []float64, key string, pts []geom.Vec3) (uint64, error) {
	return b.st.AtBatchInto(dst, key, pts)
}

func (b storeBackend) Strongest(p geom.Vec3) (string, float64, uint64, error) {
	return b.st.Strongest(p)
}

func (b storeBackend) StrongestBatchInto(keys []string, vals []float64, pts []geom.Vec3) (uint64, error) {
	return b.st.StrongestBatchInto(keys, vals, pts)
}

func (b storeBackend) Snapshot() (*rem.Map, string, error) {
	s := b.st.Current()
	if s == nil {
		return nil, "", ErrEmpty
	}
	return s.Map(), strconv.FormatUint(s.Version(), 10), nil
}

func (b storeBackend) SnapshotAt(tag string) (*rem.Map, bool) {
	versions, ok := parseVersionTag(tag)
	if !ok || len(versions) != 1 {
		return nil, false
	}
	s := b.st.SnapshotAt(versions[0])
	if s == nil {
		return nil, false
	}
	return s.Map(), true
}

func (b storeBackend) Versions() (string, int, int) {
	if s := b.st.Current(); s != nil {
		return strconv.FormatUint(s.Version(), 10), 1, 0
	}
	return "0", 1, 1
}

// shardedBackend fronts a remshard.ShardedStore.
type shardedBackend struct{ ss *remshard.ShardedStore }

// ShardedBackend adapts a sharded store to the serving surface.
func ShardedBackend(ss *remshard.ShardedStore) Backend { return shardedBackend{ss} }

func (b shardedBackend) At(key string, p geom.Vec3) (float64, uint64, error) {
	return b.ss.At(key, p)
}

func (b shardedBackend) AtBatchInto(dst []float64, key string, pts []geom.Vec3) (uint64, error) {
	return b.ss.AtBatchInto(dst, key, pts)
}

func (b shardedBackend) Strongest(p geom.Vec3) (string, float64, uint64, error) {
	return b.ss.Strongest(p)
}

func (b shardedBackend) StrongestBatchInto(keys []string, vals []float64, pts []geom.Vec3) (uint64, error) {
	// A sharded batch may merge answers from different shard snapshots;
	// there is no single serving version to report, so the tag is 0.
	return 0, b.ss.StrongestBatchInto(keys, vals, pts)
}

func (b shardedBackend) Snapshot() (*rem.Map, string, error) {
	m, versions, err := b.ss.MergedSnapshotVersions()
	if err != nil {
		return nil, "", err
	}
	return m, versionTag(versions), nil
}

func (b shardedBackend) SnapshotAt(tag string) (*rem.Map, bool) {
	versions, ok := parseVersionTag(tag)
	if !ok || len(versions) != b.ss.NumShards() {
		return nil, false
	}
	return b.ss.MergedSnapshotAt(versions)
}

func (b shardedBackend) Versions() (string, int, int) {
	n := b.ss.NumShards()
	versions := make([]uint64, n)
	pending := 0
	for si := 0; si < n; si++ {
		if cur := b.ss.StoreOf(si).Current(); cur != nil {
			versions[si] = cur.Version()
		} else if b.ss.ShardLen(si) > 0 {
			pending++
		}
	}
	return versionTag(versions), n, pending
}

const (
	// DefaultMaxBatchBytes caps a POST /at body; larger bodies get 413.
	DefaultMaxBatchBytes = 1 << 20
	// DefaultMaxBatchPoints caps the points of one batch; larger
	// batches get 413.
	DefaultMaxBatchPoints = 8192

	// DefaultReadHeaderTimeout bounds how long a connection may sit
	// between accept and a complete request header — the slowloris
	// guard. Every response the server assembles is small or streamed
	// from an immutable snapshot, so generous read/idle bounds cost
	// nothing while unbounded ones leak a goroutine and a connection per
	// stalled client.
	DefaultReadHeaderTimeout = 5 * time.Second
	// DefaultReadTimeout bounds reading one full request (headers and
	// body; POST /at bodies are capped at MaxBatchBytes anyway).
	DefaultReadTimeout = 30 * time.Second
	// DefaultIdleTimeout bounds how long a keep-alive connection may sit
	// idle between requests.
	DefaultIdleTimeout = 2 * time.Minute
)

// Options tunes a Server.
type Options struct {
	// MaxBatchBytes caps the POST /at request body in bytes
	// (≤ 0 means DefaultMaxBatchBytes).
	MaxBatchBytes int64
	// MaxBatchPoints caps the points of one POST /at batch
	// (≤ 0 means DefaultMaxBatchPoints).
	MaxBatchPoints int
	// RateLimit throttles per-client request rates (429 + Retry-After
	// past the budget; /healthz exempt). The zero value disables it.
	RateLimit RateLimit
	// Ingest enables POST /observe: a queue to submit into and an
	// optional bearer token. The zero value leaves the server read-only.
	Ingest IngestOptions
	// Observer attaches the observability layer: per-endpoint request
	// counters and latency histograms (split by wire codec and status
	// class) plus GET /metrics exposition of the observer's registry.
	// nil (the default) keeps the server uninstrumented — /metrics
	// answers 404 and the request path pays one pointer test.
	Observer *remobs.Observer
}

// Server is the HTTP front. It is an http.Handler (mount it anywhere)
// and owns an optional listener lifecycle: Serve blocks until Shutdown,
// which stops accepting and drains in-flight requests.
type Server struct {
	b           Backend
	maxBytes    int64
	maxPoints   int
	limiter     *limiter
	ingestQ     *remwal.Queue
	ingestToken string

	obs     *remobs.Observer
	metrics *serveMetrics

	front Front
}

// New builds a server over any backend.
func New(b Backend, opts Options) *Server {
	if opts.MaxBatchBytes <= 0 {
		opts.MaxBatchBytes = DefaultMaxBatchBytes
	}
	if opts.MaxBatchPoints <= 0 {
		opts.MaxBatchPoints = DefaultMaxBatchPoints
	}
	s := &Server{
		b:           b,
		maxBytes:    opts.MaxBatchBytes,
		maxPoints:   opts.MaxBatchPoints,
		limiter:     newLimiter(opts.RateLimit),
		ingestQ:     opts.Ingest.Queue,
		ingestToken: opts.Ingest.Token,
	}
	if opts.Observer != nil {
		s.obs = opts.Observer
		s.metrics = newServeMetrics(opts.Observer.Registry)
	}
	return s
}

// NewStore is New over a monolithic store.
func NewStore(st *remstore.Store, opts Options) *Server {
	return New(StoreBackend(st), opts)
}

// NewSharded is New over a sharded store.
func NewSharded(ss *remshard.ShardedStore, opts Options) *Server {
	return New(ShardedBackend(ss), opts)
}

// Serve accepts connections on l until Shutdown; a clean shutdown
// returns nil.
func (s *Server) Serve(l net.Listener) error { return s.front.Serve(l, s) }

// Shutdown closes connections that never sent a request, stops
// accepting new ones and drains in-flight requests, waiting up to ctx. A
// server that never served is a no-op.
func (s *Server) Shutdown(ctx context.Context) error { return s.front.Shutdown(ctx) }
