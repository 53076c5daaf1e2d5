// Package remshard partitions a REM vocabulary across independent
// remstore.Store instances — the scale-out layer above the single
// concurrent snapshot store. A deterministic Partitioner assigns every
// key to exactly one shard at construction; queries route by key with
// one atomic snapshot load on the owning shard, rebuilds rasterise and
// publish only the shards whose keys a window dirtied (concurrently,
// through internal/parallel), and each shard's publish is invisible to
// the others — an update to one AP never blocks queries or rebuilds on
// the rest. Per-shard query counters are cache-line padded
// (parallel.PaddedUint64), so readers hammering different shards never
// contend on a counter line.
//
// Determinism contract rule 8: a sharded store answers every query
// byte-identically to a single monolithic store over the same cumulative
// data — At values, Strongest winners (vocabulary-order tie-breaks are
// preserved across the shard merge) and the logical query count in
// Stats — for any Partitioner and any shard count. Snapshot versions are
// the one sharded-only observable: they are per-shard publish sequences
// (a shard untouched since round 1 still serves version 1), where a
// monolithic store numbers every window. MergedSnapshot reassembles the
// monolithic view (rem.Merge shares the tiles, copying nothing) and is
// Map.Equal to the monolithic build — that identity is what the rule 8
// tests pin.
package remshard

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/ml"
	"repro/internal/parallel"
	"repro/internal/rem"
	"repro/internal/remstore"
)

// ErrEmpty is what queries return before any shard has published — the
// same sentinel the underlying stores use, re-exported so callers of the
// sharded front need not import remstore to match it.
var ErrEmpty = remstore.ErrEmpty

// ErrPartial is what MergedSnapshot returns for a store mid-first-round:
// some shards serve, others have never published, so no consistent
// monolithic view exists yet. Like ErrEmpty it is retryable — the next
// rounds fill the missing shards in.
var ErrPartial = errors.New("remshard: not every shard has published")

// Config parameterises a ShardedStore.
type Config struct {
	// Shards is the shard count; ≤ 0 means 1 (a sharded store over one
	// shard behaves exactly like a monolithic store, which is what the
	// equivalence tests exploit).
	Shards int
	// Partitioner assigns keys to shards; nil means HashByKey.
	Partitioner Partitioner
	// Volume is the mapped volume every shard's maps cover.
	Volume geom.Cuboid
	// Resolution is the grid (cells per axis) every shard's maps use.
	Resolution [3]int
	// MaxHistory bounds each shard store's snapshot history
	// (≤ 0 means remstore.DefaultMaxHistory).
	MaxHistory int
}

// shardState is one shard: its store, its slice of the vocabulary (in
// global order) and its padded logical-query counter. The fields before
// the counter are immutable after New; the counter's padding keeps
// their cache lines clean under write traffic.
type shardState struct {
	store *remstore.Store
	// keys is the shard's vocabulary, ordered by global key index.
	keys []string
	// global[i] is the global index of keys[i].
	global []int
	// logical counts monolithic-equivalent queries answered by this
	// shard: one per At/Strongest, one per point of a batch.
	logical parallel.PaddedUint64
}

// ShardedStore routes queries and rebuilds over the partitioned
// vocabulary. All query methods are safe for arbitrary concurrency with
// each other and with Rebuild; concurrent Rebuild calls are safe only
// when their dirty sets touch disjoint shards (within one shard,
// rebuilds are read-modify-write chains and need a single writer, same
// as a monolithic store).
type ShardedStore struct {
	vol geom.Cuboid
	res [3]int
	// keys is the full vocabulary in global order.
	keys []string
	// keyIdx maps key → global index; shardOf maps global index → shard.
	keyIdx  map[string]int
	shardOf []int
	shards  []*shardState
	rounds  atomic.Uint64
	// o is the attached instrument set (observe.go); nil means
	// uninstrumented. Written once by SetObserver before rebuild
	// traffic, read on the rebuild path only.
	o *shardObs
}

// New builds a sharded store over the vocabulary. The partitioner is
// consulted once per key; duplicate keys, invalid geometry and
// out-of-range shard assignments are rejected. Shards that no key maps
// to are legal (they simply never serve).
func New(keys []string, cfg Config) (*ShardedStore, error) {
	n := cfg.Shards
	if n <= 0 {
		n = 1
	}
	part := cfg.Partitioner
	if part == nil {
		part = HashByKey{}
	}
	if len(keys) == 0 {
		return nil, errors.New("remshard: store needs at least one key")
	}
	if cfg.Resolution[0] < 1 || cfg.Resolution[1] < 1 || cfg.Resolution[2] < 1 {
		return nil, fmt.Errorf("remshard: grid resolution %dx%dx%d invalid", cfg.Resolution[0], cfg.Resolution[1], cfg.Resolution[2])
	}
	s := &ShardedStore{
		vol:     cfg.Volume,
		res:     cfg.Resolution,
		keys:    append([]string(nil), keys...),
		keyIdx:  make(map[string]int, len(keys)),
		shardOf: make([]int, len(keys)),
		shards:  make([]*shardState, n),
	}
	for i := range s.shards {
		s.shards[i] = &shardState{store: remstore.New(cfg.MaxHistory)}
	}
	for gi, k := range s.keys {
		if _, dup := s.keyIdx[k]; dup {
			return nil, fmt.Errorf("remshard: duplicate key %q", k)
		}
		s.keyIdx[k] = gi
		si := part.Shard(k, n)
		if si < 0 || si >= n {
			return nil, fmt.Errorf("remshard: partitioner routed key %q to shard %d, want [0, %d)", k, si, n)
		}
		s.shardOf[gi] = si
		sh := s.shards[si]
		sh.keys = append(sh.keys, k)
		sh.global = append(sh.global, gi)
	}
	return s, nil
}

// NumShards returns the shard count.
func (s *ShardedStore) NumShards() int { return len(s.shards) }

// Keys returns the full vocabulary in global order (a copy).
func (s *ShardedStore) Keys() []string { return append([]string(nil), s.keys...) }

// Volume returns the mapped volume.
func (s *ShardedStore) Volume() geom.Cuboid { return s.vol }

// Resolution returns the per-shard grid resolution.
func (s *ShardedStore) Resolution() [3]int { return s.res }

// Rounds returns how many rebuild rounds have been driven.
func (s *ShardedStore) Rounds() uint64 { return s.rounds.Load() }

// ShardFor returns the shard owning key, or false for a key outside the
// vocabulary.
func (s *ShardedStore) ShardFor(key string) (int, bool) {
	gi, ok := s.keyIdx[key]
	if !ok {
		return 0, false
	}
	return s.shardOf[gi], true
}

// ShardKeys returns shard si's slice of the vocabulary, in global key
// order (a copy).
func (s *ShardedStore) ShardKeys(si int) []string {
	return append([]string(nil), s.shards[si].keys...)
}

// ShardLen returns how many keys shard si owns — the allocation-free
// cardinality check (ShardKeys copies the slice).
func (s *ShardedStore) ShardLen(si int) int { return len(s.shards[si].keys) }

// StoreOf exposes shard si's underlying snapshot store — history and
// retention are managed there (e.g. StoreOf(i).SetRetention).
func (s *ShardedStore) StoreOf(si int) *remstore.Store { return s.shards[si].store }

// Round reports one rebuild round.
type Round struct {
	// Seq is the 1-based round sequence number.
	Seq uint64
	// DirtyKeys is the resolved global dirty-key count.
	DirtyKeys int
	// AffectedShards is how many shards rebuilt and published.
	AffectedShards int
	// BuiltKeys is the total keys rasterised — more than DirtyKeys when
	// a previously unbuilt shard had to full-build.
	BuiltKeys int
	// SharedTiles sums the tile sharing of the snapshots published this
	// round (each against its own shard's predecessor).
	SharedTiles int
	// Versions[si] is shard si's snapshot version published this round,
	// 0 for shards the round did not touch.
	Versions []uint64
}

// Rebuild rasterises and publishes the shards owning the dirty keys, in
// parallel: the dirty set (global key indices; ml.DirtyAll means every
// key, so estimator Observe results wire straight through) is grouped by
// shard, each affected shard derives its next generation — RebuildKeys
// against its current snapshot, or a full build the first time — and
// publishes independently, so untouched shards' serving snapshots are
// never replaced, not even with a cheap alias. predict answers by global
// key index (the same contract core.BatchPredictorFor produces); it must
// be safe for concurrent use. The worker budget is split across the
// affected shards, and any split produces byte-identical shard maps.
//
// On error some shards of the round may already have published; each is
// internally consistent, and re-running the round against the same
// estimator state republishes byte-identical maps, so retry is safe.
func (s *ShardedStore) Rebuild(dirty []int, predict rem.BatchPredictFunc, opts rem.BuildOptions) (Round, error) {
	if predict == nil {
		return Round{}, errors.New("remshard: rebuild needs a predictor")
	}
	start := time.Now()
	local := make([][]int, len(s.shards))
	resolved := 0
	add := func(gi int) {
		si := s.shardOf[gi]
		local[si] = append(local[si], localIndex(s.shards[si], gi))
		resolved++
	}
	all := false
	for _, k := range dirty {
		if k == ml.DirtyAll {
			all = true
			break
		}
	}
	if all {
		for gi := range s.keys {
			add(gi)
		}
	} else {
		seen := make(map[int]bool, len(dirty))
		ks := make([]int, 0, len(dirty))
		for _, gi := range dirty {
			if gi < 0 || gi >= len(s.keys) {
				return Round{}, fmt.Errorf("remshard: dirty key %d outside [0, %d)", gi, len(s.keys))
			}
			if !seen[gi] {
				seen[gi] = true
				ks = append(ks, gi)
			}
		}
		sort.Ints(ks)
		for _, gi := range ks {
			add(gi)
		}
	}
	var affected []int
	for si, l := range local {
		if len(l) > 0 {
			affected = append(affected, si)
		}
	}
	round := Round{
		Seq:            s.rounds.Add(1),
		DirtyKeys:      resolved,
		AffectedShards: len(affected),
		Versions:       make([]uint64, len(s.shards)),
	}
	if len(affected) == 0 {
		s.observeRebuild(round, time.Since(start))
		return round, nil
	}
	// Split the worker budget across the affected shards: outer×inner ≈
	// the requested bound, and any split yields byte-identical maps.
	w := parallel.Workers(opts.Workers)
	outer := w
	if outer > len(affected) {
		outer = len(affected)
	}
	inner := w / outer
	if inner < 1 {
		inner = 1
	}
	type pub struct {
		version            uint64
		built, sharedTiles int
	}
	pubs, err := parallel.Map(len(affected), outer, func(i int) (pub, error) {
		si := affected[i]
		sh := s.shards[si]
		wrap := func(centers []geom.Vec3, ki int) ([]float64, error) {
			return predict(centers, sh.global[ki])
		}
		shOpts := rem.BuildOptions{Workers: inner}
		var next *rem.Map
		var built int
		var err error
		if cur := sh.store.Current(); cur == nil {
			// First generation for this shard: its whole vocabulary
			// slice, whatever subset the round dirtied.
			next, err = rem.BuildMapBatch(s.vol, s.res[0], s.res[1], s.res[2], sh.keys, wrap, shOpts)
			built = len(sh.keys)
		} else {
			next, err = cur.Map().RebuildKeys(local[si], wrap, shOpts)
			built = len(local[si])
		}
		if err != nil {
			return pub{}, fmt.Errorf("remshard: rebuilding shard %d: %w", si, err)
		}
		snap, err := sh.store.Publish(next, built)
		if err != nil {
			return pub{}, fmt.Errorf("remshard: publishing shard %d: %w", si, err)
		}
		_, shared := snap.BuildStats()
		return pub{version: snap.Version(), built: built, sharedTiles: shared}, nil
	})
	if err != nil {
		return Round{}, err
	}
	for i, p := range pubs {
		round.Versions[affected[i]] = p.version
		round.BuiltKeys += p.built
		round.SharedTiles += p.sharedTiles
	}
	s.observeRebuild(round, time.Since(start))
	return round, nil
}

// localIndex translates a global key index into the shard-local index.
// sh.global is sorted (New appends in global order) and gi is always
// present — the caller routed it to this shard — so a binary search
// resolves it.
func localIndex(sh *shardState, gi int) int {
	return sort.SearchInts(sh.global, gi)
}

// At answers a point query, routed to the shard owning the key: one map
// lookup, one atomic snapshot load. The returned version is the owning
// shard's snapshot version.
func (s *ShardedStore) At(key string, p geom.Vec3) (float64, uint64, error) {
	sh, err := s.route(key)
	if err != nil {
		return 0, 0, err
	}
	v, ver, err := sh.store.At(key, p)
	if err == nil {
		sh.logical.Add(1)
	}
	return v, ver, err
}

// AtBatch answers a multi-point query for one key: routed once, served
// by one snapshot of the owning shard. Each point counts as one query.
func (s *ShardedStore) AtBatch(key string, pts []geom.Vec3) ([]float64, uint64, error) {
	sh, err := s.route(key)
	if err != nil {
		return nil, 0, err
	}
	out, ver, err := sh.store.AtBatch(key, pts)
	if err == nil {
		sh.logical.Add(uint64(len(pts)))
	}
	return out, ver, err
}

// AtBatchInto is AtBatch into a caller-owned buffer (no allocation).
func (s *ShardedStore) AtBatchInto(dst []float64, key string, pts []geom.Vec3) (uint64, error) {
	sh, err := s.route(key)
	if err != nil {
		return 0, err
	}
	ver, err := sh.store.AtBatchInto(dst, key, pts)
	if err == nil {
		sh.logical.Add(uint64(len(pts)))
	}
	return ver, err
}

func (s *ShardedStore) route(key string) (*shardState, error) {
	gi, ok := s.keyIdx[key]
	if !ok {
		return nil, fmt.Errorf("remshard: %w %q", rem.ErrUnknownKey, key)
	}
	return s.shards[s.shardOf[gi]], nil
}

// Strongest answers a best-server query across every shard: each
// serving shard's snapshot is loaded once (one atomic load per shard)
// and rem.StrongestAcrossInto picks the winner under the global
// vocabulary order, so the result is exactly what a monolithic store
// over the same data returns — including ties, which resolve to the
// earliest key in global order. The returned version is the winning
// shard's snapshot version.
func (s *ShardedStore) Strongest(p geom.Vec3) (string, float64, uint64, error) {
	sc := strongestScratchPool.Get().(*strongestScratch)
	defer sc.release()
	sc.pt[0] = p
	if err := s.strongest(sc, sc.key[:], sc.val[:], sc.pt[:]); err != nil {
		return "", 0, 0, err
	}
	var ver uint64
	if j := sc.from[0]; j >= 0 {
		ver = sc.vers[j]
	}
	return sc.key[0], sc.val[0], ver, nil
}

// StrongestBatch answers a best-server query for every point: each
// serving shard's snapshot is loaded once for the whole batch, and
// element i matches Strongest(pts[i]) exactly. Serving versions are
// per-shard; use Strongest for a versioned answer.
func (s *ShardedStore) StrongestBatch(pts []geom.Vec3) ([]string, []float64, error) {
	keys := make([]string, len(pts))
	vals := make([]float64, len(pts))
	if err := s.StrongestBatchInto(keys, vals, pts); err != nil {
		return nil, nil, err
	}
	return keys, vals, nil
}

// StrongestBatchInto is StrongestBatch into caller-owned buffers — the
// zero-allocation serving path behind POST /strongest on a sharded
// backend. len(keys) and len(vals) must equal len(pts).
func (s *ShardedStore) StrongestBatchInto(keys []string, vals []float64, pts []geom.Vec3) error {
	if len(keys) != len(pts) || len(vals) != len(pts) {
		return fmt.Errorf("remshard: batch destinations hold %d keys / %d values for %d points", len(keys), len(vals), len(pts))
	}
	sc := strongestScratchPool.Get().(*strongestScratch)
	defer sc.release()
	return s.strongest(sc, keys, vals, pts)
}

// strongestScratch is the pooled working set of the best-server path:
// the serving shards' maps with their global-index tables, shard
// indices and versions, each point's winning part and the per-shard
// logical-query tallies, plus one-point buffers for Strongest. Pooling
// keeps the serving path allocation-free at steady state.
type strongestScratch struct {
	parts  []*rem.Map
	global [][]int
	shard  []int
	vers   []uint64
	from   []int
	counts []uint64
	pt     [1]geom.Vec3
	key    [1]string
	val    [1]float64
}

var strongestScratchPool = sync.Pool{New: func() any { return new(strongestScratch) }}

// release drops the snapshot references and returns sc to the pool.
func (sc *strongestScratch) release() {
	clear(sc.parts)
	sc.key[0] = ""
	strongestScratchPool.Put(sc)
}

// strongest answers the best-server query over the serving shards into
// keys/vals (sc.from records each point's winning part) and counts one
// logical query per point on the winning shard — or on the first
// serving shard when no key wins, as a monolithic store counts every
// query. Shards with no keys or no published snapshot are left out;
// ErrEmpty when none serves.
func (s *ShardedStore) strongest(sc *strongestScratch, keys []string, vals []float64, pts []geom.Vec3) error {
	sc.parts, sc.global, sc.shard, sc.vers = sc.parts[:0], sc.global[:0], sc.shard[:0], sc.vers[:0]
	for si, sh := range s.shards {
		if len(sh.keys) == 0 {
			continue
		}
		snap := sh.store.Current()
		if snap == nil {
			continue
		}
		sc.parts = append(sc.parts, snap.Map())
		sc.global = append(sc.global, sh.global)
		sc.shard = append(sc.shard, si)
		sc.vers = append(sc.vers, snap.Version())
	}
	if len(sc.parts) == 0 {
		return remstore.ErrEmpty
	}
	if cap(sc.from) < len(pts) {
		sc.from = make([]int, len(pts))
	}
	sc.from = sc.from[:len(pts)]
	if err := rem.StrongestAcrossInto(sc.parts, sc.global, keys, vals, sc.from, pts); err != nil {
		return err
	}
	if cap(sc.counts) < len(sc.parts) {
		sc.counts = make([]uint64, len(sc.parts))
	}
	sc.counts = sc.counts[:len(sc.parts)]
	clear(sc.counts)
	for _, j := range sc.from {
		if j < 0 {
			j = 0
		}
		sc.counts[j]++
	}
	for j, n := range sc.counts {
		if n > 0 {
			s.shards[sc.shard[j]].logical.Add(n)
		}
	}
	return nil
}

// MergedSnapshot reassembles the current per-shard snapshots into one
// monolithic map over the full vocabulary, sharing every tile
// (rem.Merge copies tile headers, never cells). The result is Map.Equal
// to what a monolithic store would serve over the same cumulative data —
// the rule 8 identity — and suits export paths (CSV, codec) that want
// the whole map. It errors if only some shards have published (a store
// mid-first-round); ErrEmpty if none have.
func (s *ShardedStore) MergedSnapshot() (*rem.Map, error) {
	m, _, err := s.MergedSnapshotVersions()
	return m, err
}

// MergedSnapshotVersions is MergedSnapshot plus the serving provenance:
// versions[si] is the snapshot version of shard si that contributed its
// tiles to the merged map (0 for a shard with no keys). Each shard's
// serving snapshot is loaded exactly once and used for both the merge
// and the version vector, so under concurrent rebuilds the vector
// describes precisely the generation combination the returned map holds
// — the identity the HTTP front's ETag relies on.
func (s *ShardedStore) MergedSnapshotVersions() (*rem.Map, []uint64, error) {
	versions := make([]uint64, len(s.shards))
	var parts []*rem.Map
	missing := 0
	for si, sh := range s.shards {
		if len(sh.keys) == 0 {
			continue
		}
		snap := sh.store.Current()
		if snap == nil {
			missing++
			continue
		}
		versions[si] = snap.Version()
		parts = append(parts, snap.Map())
	}
	if len(parts) == 0 {
		return nil, nil, remstore.ErrEmpty
	}
	if missing > 0 {
		return nil, nil, fmt.Errorf("%w (%d shard(s) pending)", ErrPartial, missing)
	}
	m, err := rem.Merge(s.keys, parts)
	if err != nil {
		return nil, nil, err
	}
	return m, versions, nil
}

// MergedSnapshotAt reassembles the historical merged view identified by
// a version vector (versions[si] = shard si's snapshot version;
// key-less shards are ignored). It succeeds only if every key-owning
// shard still retains its snapshot at exactly that version — the
// delta-base lookup behind the HTTP front's "changes since <etag>"
// endpoint. ok=false means at least one constituent was evicted (or
// never existed) and the caller must fall back to a full snapshot.
func (s *ShardedStore) MergedSnapshotAt(versions []uint64) (*rem.Map, bool) {
	if len(versions) != len(s.shards) {
		return nil, false
	}
	var parts []*rem.Map
	for si, sh := range s.shards {
		if len(sh.keys) == 0 {
			continue
		}
		snap := sh.store.SnapshotAt(versions[si])
		if snap == nil {
			return nil, false
		}
		parts = append(parts, snap.Map())
	}
	if len(parts) == 0 {
		return nil, false
	}
	m, err := rem.Merge(s.keys, parts)
	if err != nil {
		return nil, false
	}
	return m, true
}

// Stats is the aggregate view across shards.
type Stats struct {
	// Shards is the shard count.
	Shards int
	// Rounds counts rebuild rounds driven.
	Rounds uint64
	// Queries counts logical queries — one per At/Strongest, one per
	// point of a batch — the number a monolithic store's Stats.Queries
	// would report for the same query stream.
	Queries uint64
	// ShardPublishes sums snapshot publishes across the shard stores
	// (≥ Rounds: one publish per affected shard per round).
	ShardPublishes uint64
	// ShardQueries sums store-level queries across the shard stores
	// (key-routed queries only; best-server queries are counted at the
	// router, in Queries).
	ShardQueries uint64
	// PerShard is each shard store's own Stats, indexed by shard.
	PerShard []remstore.Stats
}

// Stats returns the aggregate counters. The totals are exactly the sums
// of the per-shard figures it returns alongside them (pinned by the
// concurrent-hammer test).
func (s *ShardedStore) Stats() Stats {
	out := Stats{
		Shards:   len(s.shards),
		Rounds:   s.rounds.Load(),
		PerShard: make([]remstore.Stats, len(s.shards)),
	}
	for i, sh := range s.shards {
		st := sh.store.Stats()
		out.PerShard[i] = st
		out.Queries += sh.logical.Load()
		out.ShardPublishes += st.Publishes
		out.ShardQueries += st.Queries
	}
	return out
}
