// Package remstore is the live-serving side of the REM: a concurrent
// snapshot store that decouples queries from rebuilds. A writer publishes
// immutable rem.Map generations (typically produced by Map.RebuildKeys
// from a window of new observations); readers resolve the current
// snapshot with a single atomic pointer load and query it lock-free, so a
// rebuild never blocks a query and a query never observes a half-built
// map. The store keeps a bounded history of recent snapshots (useful for
// delta inspection and for readers pinned to an old generation) under a
// configurable retention policy (max count and max age, see
// SetRetention), and per-snapshot build/query counters. The hot counters
// are cache-line padded (parallel.PaddedUint64) so concurrent readers
// bumping them do not invalidate each other's lines — and, in a sharded
// deployment, so two stores' counters never share a line.
package remstore

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/rem"
)

// DefaultMaxHistory bounds the snapshot history when New is given no
// explicit bound.
const DefaultMaxHistory = 4

// ErrEmpty is returned by queries against a store that has never
// published a snapshot.
var ErrEmpty = errors.New("remstore: no snapshot published")

// Snapshot is one published, immutable REM generation together with its
// serving counters. All methods are safe for concurrent use.
type Snapshot struct {
	m           *rem.Map
	version     uint64
	publishedAt time.Time
	// Build provenance: how many keys the publisher re-rasterised for
	// this generation and how many tiles it shares with its predecessor.
	builtKeys   int
	sharedTiles int
	// queries is bumped by every reader serving from this snapshot; the
	// padding keeps those increments off the immutable fields' cache
	// lines above.
	queries parallel.PaddedUint64
}

// Map returns the snapshot's immutable map.
func (s *Snapshot) Map() *rem.Map { return s.m }

// Version returns the snapshot's version: the store's publish sequence
// number (1 for the first published snapshot), unless the publisher
// chose one explicitly via PublishAt. Strictly increasing across
// publishes either way.
func (s *Snapshot) Version() uint64 { return s.version }

// PublishedAt returns when the snapshot was published (the store clock;
// wall time outside tests). Age-based retention evicts against it.
func (s *Snapshot) PublishedAt() time.Time { return s.publishedAt }

// Queries returns how many queries this snapshot has served.
func (s *Snapshot) Queries() uint64 { return s.queries.Load() }

// BuildStats returns the publish-time provenance: the number of keys
// rebuilt for this generation and the number of tiles shared with the
// previous snapshot.
func (s *Snapshot) BuildStats() (builtKeys, sharedTiles int) {
	return s.builtKeys, s.sharedTiles
}

// Retention is the snapshot history policy. The serving snapshot is
// never evicted, whatever the bounds say.
type Retention struct {
	// MaxCount bounds the retained snapshots, serving one included;
	// ≤ 0 keeps the store's current count bound unchanged.
	MaxCount int
	// MaxAge evicts snapshots published longer than this ago; ≤ 0
	// disables age-based eviction.
	MaxAge time.Duration
}

// Store is the concurrent snapshot store. Publish swaps the current
// snapshot atomically; Current and the query helpers are lock-free. The
// zero value is not usable; call New.
type Store struct {
	cur atomic.Pointer[Snapshot]

	// mu serialises publishers and guards history/retention; readers
	// never take it.
	mu        sync.Mutex
	history   []*Snapshot
	retain    Retention
	evictions uint64
	// now is the store clock — time.Now outside tests, injectable so
	// age-based retention is testable without sleeping.
	now func() time.Time

	// o is the attached instrument set (observe.go); nil means
	// uninstrumented. Guarded by mu: written once by SetObserver, read
	// on the publish path, never on the query path.
	o *storeObs

	// The store-wide counters are padded to their own cache lines:
	// queries is bumped by every concurrent reader and must not share a
	// line with publishes (bumped by writers) or with cur (loaded by
	// every reader).
	publishes parallel.PaddedUint64
	queries   parallel.PaddedUint64
}

// New returns an empty store keeping at most maxHistory snapshots
// (≤ 0 means DefaultMaxHistory). Use SetRetention to add an age bound
// or change the count bound later.
func New(maxHistory int) *Store {
	if maxHistory <= 0 {
		maxHistory = DefaultMaxHistory
	}
	return &Store{retain: Retention{MaxCount: maxHistory}, now: time.Now}
}

// SetRetention updates the history policy and prunes immediately.
// A non-positive MaxCount leaves the count bound unchanged; a
// non-positive MaxAge disables age eviction.
func (st *Store) SetRetention(r Retention) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if r.MaxCount > 0 {
		st.retain.MaxCount = r.MaxCount
	}
	st.retain.MaxAge = r.MaxAge
	st.pruneLocked(st.now())
}

// pruneLocked applies the retention policy to the history front (the
// oldest snapshots). The serving snapshot — always the last history
// entry — survives both bounds.
func (st *Store) pruneLocked(now time.Time) {
	for len(st.history) > st.retain.MaxCount {
		st.history[0] = nil
		st.history = st.history[1:]
		st.evictions++
	}
	if st.retain.MaxAge > 0 {
		cutoff := now.Add(-st.retain.MaxAge)
		for len(st.history) > 1 && st.history[0].publishedAt.Before(cutoff) {
			st.history[0] = nil
			st.history = st.history[1:]
			st.evictions++
		}
	}
}

// Publish makes m the current snapshot and returns it. builtKeys records
// how many keys the caller re-rasterised to produce m (its key count for
// a from-scratch build). Publishers are serialised; readers continue on
// the previous snapshot until the single atomic swap.
func (st *Store) Publish(m *rem.Map, builtKeys int) (*Snapshot, error) {
	return st.publish(m, builtKeys, 0)
}

// PublishAt is Publish with an explicit snapshot version instead of the
// store's own publish sequence — the replication hook: a follower
// mirroring a leader publishes each synced generation under the
// leader's version number, so version-tagged responses from leader and
// replica agree at the same generation. The version must exceed the
// serving snapshot's (a replica can skip generations, never revisit
// one); the publish counter still counts every publish.
func (st *Store) PublishAt(m *rem.Map, builtKeys int, version uint64) (*Snapshot, error) {
	if version == 0 {
		return nil, errors.New("remstore: explicit version must be positive")
	}
	return st.publish(m, builtKeys, version)
}

func (st *Store) publish(m *rem.Map, builtKeys int, version uint64) (*Snapshot, error) {
	if m == nil {
		return nil, errors.New("remstore: nil map")
	}
	start := time.Now()
	st.mu.Lock()
	defer st.mu.Unlock()
	prev := st.cur.Load()
	if prev != nil {
		pn, pm, pz := prev.m.Resolution()
		nn, nm, nz := m.Resolution()
		if pn != nn || pm != nm || pz != nz || len(prev.m.Keys()) != len(m.Keys()) {
			return nil, fmt.Errorf("remstore: snapshot geometry %dx%dx%d/%d keys does not match current %dx%dx%d/%d keys",
				nn, nm, nz, len(m.Keys()), pn, pm, pz, len(prev.m.Keys()))
		}
		// Same cardinality is not enough: mixing vocabularies in one
		// store would make key-addressed queries answer from whichever
		// generation happens to be current.
		for i, k := range m.Keys() {
			if pk := prev.m.Keys()[i]; pk != k {
				return nil, fmt.Errorf("remstore: snapshot key %d is %q, current store serves %q", i, k, pk)
			}
		}
		// And the coordinate frame must match: a snapshot over a
		// different volume would silently clamp and interpolate queries
		// in the wrong frame under the same keys.
		if pv, v := prev.m.Volume(), m.Volume(); !sameBounds(pv, v) {
			return nil, fmt.Errorf("remstore: snapshot volume %v–%v does not match current %v–%v", v.Min, v.Max, pv.Min, pv.Max)
		}
	}
	if version != 0 && prev != nil && version <= prev.version {
		return nil, fmt.Errorf("remstore: explicit version %d not after serving version %d", version, prev.version)
	}
	seq := st.publishes.Add(1)
	if version == 0 {
		version = seq
		// The publish sequence can lag the serving version if explicit
		// versions were published into this store; versions stay strictly
		// monotonic regardless.
		if prev != nil && version <= prev.version {
			version = prev.version + 1
		}
	}
	// Materialise the coverage index before the snapshot becomes visible,
	// so no reader ever pays the brute Strongest scan on an indexed
	// store. Incremental generations usually arrive with a mended index
	// already attached (RebuildKeys/ApplyDelta carry it forward); this
	// covers from-scratch builds and codec-loaded maps.
	t0 := time.Now()
	m.BuildCoverIndex()
	indexD := time.Since(t0)
	s := &Snapshot{m: m, version: version, publishedAt: st.now(), builtKeys: builtKeys}
	if prev != nil {
		s.sharedTiles = m.SharedTiles(prev.m)
	}
	st.history = append(st.history, s)
	st.cur.Store(s)
	st.pruneLocked(s.publishedAt)
	st.observePublish(s, time.Since(start), indexD)
	return s, nil
}

// sameBounds compares two volumes bit-for-bit (the identity rem.Map.Equal
// uses), so NaN coordinates can never slip past the frame check.
func sameBounds(a, b geom.Cuboid) bool {
	av := [6]float64{a.Min.X, a.Min.Y, a.Min.Z, a.Max.X, a.Max.Y, a.Max.Z}
	bv := [6]float64{b.Min.X, b.Min.Y, b.Min.Z, b.Max.X, b.Max.Y, b.Max.Z}
	for i := range av {
		if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
			return false
		}
	}
	return true
}

// Current returns the latest snapshot, or nil before the first publish.
// It is a single atomic load — safe to call from any number of
// goroutines while publishes proceed.
func (st *Store) Current() *Snapshot { return st.cur.Load() }

// At answers a point query against the current snapshot, returning the
// interpolated value and the snapshot version that served it. Only
// served queries count: a failed lookup (unknown key, empty store)
// leaves the counters alone.
func (st *Store) At(key string, p geom.Vec3) (float64, uint64, error) {
	s := st.cur.Load()
	if s == nil {
		return 0, 0, ErrEmpty
	}
	v, err := s.m.At(key, p)
	if err == nil {
		s.queries.Add(1)
		st.queries.Add(1)
	}
	return v, s.version, err
}

// AtBatch answers a multi-point query against the current snapshot: the
// key is resolved once and every point is served by the same snapshot,
// whose version is returned. Element i corresponds to pts[i] and is
// bit-identical to At(key, pts[i]); each point counts as one query.
func (st *Store) AtBatch(key string, pts []geom.Vec3) ([]float64, uint64, error) {
	out := make([]float64, len(pts))
	ver, err := st.AtBatchInto(out, key, pts)
	if err != nil {
		return nil, 0, err
	}
	return out, ver, nil
}

// AtBatchInto is AtBatch into a caller-owned buffer — the
// zero-allocation serving path. len(dst) must equal len(pts). A failed
// batch (unknown key, buffer mismatch) counts no queries.
func (st *Store) AtBatchInto(dst []float64, key string, pts []geom.Vec3) (uint64, error) {
	s := st.cur.Load()
	if s == nil {
		return 0, ErrEmpty
	}
	if err := s.m.AtBatchInto(dst, key, pts); err != nil {
		return 0, err
	}
	s.queries.Add(uint64(len(pts)))
	st.queries.Add(uint64(len(pts)))
	return s.version, nil
}

// Strongest answers a best-server query against the current snapshot,
// returning the winning key, its value and the serving snapshot version.
func (st *Store) Strongest(p geom.Vec3) (string, float64, uint64, error) {
	s := st.cur.Load()
	if s == nil {
		return "", 0, 0, ErrEmpty
	}
	s.queries.Add(1)
	st.queries.Add(1)
	key, v := s.m.Strongest(p)
	return key, v, s.version, nil
}

// StrongestBatch answers a best-server query for every point against one
// snapshot (whose version is returned): element i matches what
// Strongest(pts[i]) would return. Each point counts as one query.
func (st *Store) StrongestBatch(pts []geom.Vec3) ([]string, []float64, uint64, error) {
	s := st.cur.Load()
	if s == nil {
		return nil, nil, 0, ErrEmpty
	}
	s.queries.Add(uint64(len(pts)))
	st.queries.Add(uint64(len(pts)))
	keys, vals := s.m.StrongestBatch(pts)
	return keys, vals, s.version, nil
}

// StrongestBatchInto is StrongestBatch into caller-owned buffers — the
// zero-allocation serving path behind POST /strongest. len(keys) and
// len(vals) must equal len(pts). A failed batch counts no queries.
func (st *Store) StrongestBatchInto(keys []string, vals []float64, pts []geom.Vec3) (uint64, error) {
	s := st.cur.Load()
	if s == nil {
		return 0, ErrEmpty
	}
	if err := s.m.StrongestBatchInto(keys, vals, pts); err != nil {
		return 0, err
	}
	s.queries.Add(uint64(len(pts)))
	st.queries.Add(uint64(len(pts)))
	return s.version, nil
}

// History returns the retained snapshots, oldest first. The slice is a
// copy; the snapshots are shared (and immutable apart from their
// counters).
func (st *Store) History() []*Snapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]*Snapshot(nil), st.history...)
}

// SnapshotAt returns the retained snapshot with exactly the given
// version, or nil if it was never published or has been evicted — the
// delta-base lookup: a server asked for "the changes since version v"
// can only answer if v is still in its history.
func (st *Store) SnapshotAt(version uint64) *Snapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	// Newest first: delta bases are overwhelmingly the latest or
	// next-to-latest generation.
	for i := len(st.history) - 1; i >= 0; i-- {
		if st.history[i].version == version {
			return st.history[i]
		}
	}
	return nil
}

// LiveTiles returns the distinct tile count referenced by the retained
// snapshots — the memory the history actually holds live, as opposed to
// HistoryLen × NumTiles. It is computed from the per-snapshot
// SharedTiles provenance: the oldest retained snapshot contributes all
// its tiles, every later one only the tiles it did not share with its
// immediate predecessor. Exact for publish chains produced by
// RebuildKeys (tile sharing is strictly between consecutive
// generations there); an upper bound if unrelated maps that alias
// storage are published out of order.
func (st *Store) LiveTiles() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.liveTilesLocked()
}

func (st *Store) liveTilesLocked() int {
	if len(st.history) == 0 {
		return 0
	}
	live := st.history[0].m.NumTiles()
	for _, s := range st.history[1:] {
		live += s.m.NumTiles() - s.sharedTiles
	}
	return live
}

// Stats is an aggregate view of the store: the library's one counter
// source (SetObserver bridges the serving subset as rem_store_* at
// scrape time).
type Stats struct {
	// Publishes counts snapshots ever published.
	Publishes uint64
	// Queries counts queries served across all snapshots (each point of
	// a batch query counts once).
	Queries uint64
	// CurrentVersion is the serving snapshot's version (0 when empty).
	CurrentVersion uint64
	// HistoryLen is the retained snapshot count.
	HistoryLen int
	// Evictions counts snapshots dropped by the retention policy.
	Evictions uint64
	// LiveTiles is the distinct tile count the retained history
	// references (see Store.LiveTiles).
	LiveTiles int
}

// Stats returns the aggregate counters.
func (st *Store) Stats() Stats {
	s := Stats{
		Publishes: st.publishes.Load(),
		Queries:   st.queries.Load(),
	}
	if cur := st.cur.Load(); cur != nil {
		s.CurrentVersion = cur.version
	}
	st.mu.Lock()
	s.HistoryLen = len(st.history)
	s.Evictions = st.evictions
	s.LiveTiles = st.liveTilesLocked()
	st.mu.Unlock()
	return s
}
