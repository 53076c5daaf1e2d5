package remshard

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/ml"
	"repro/internal/rem"
	"repro/internal/remstore"
	"repro/internal/simrand"
)

var testVol = geom.MustCuboid(geom.V(0, 0, 0), 4, 3, 2.6)

const (
	testNX = 6
	testNY = 5
	testNZ = 4
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("aa:bb:%02d", i)
	}
	return keys
}

// evolvingModel is the test stand-in for an incremental estimator: a
// deterministic field per (key, generation), where a key's generation
// advances when a round dirties it. The predictor answers by global key
// index, exactly the contract core.BatchPredictorFor produces, and is
// concurrency-safe during a rebuild (gen mutates only between rounds).
type evolvingModel struct {
	gen []int
}

func newEvolvingModel(nKeys int) *evolvingModel {
	return &evolvingModel{gen: make([]int, nKeys)}
}

func (m *evolvingModel) touch(dirty []int) {
	for _, gi := range dirty {
		if gi == ml.DirtyAll {
			for i := range m.gen {
				m.gen[i]++
			}
			return
		}
		m.gen[gi]++
	}
}

func (m *evolvingModel) predict(centers []geom.Vec3, gi int) ([]float64, error) {
	out := make([]float64, len(centers))
	g := float64(m.gen[gi])
	for i, p := range centers {
		out[i] = -55 - p.X*float64(1+gi%3) - 2*p.Y + p.Z - float64(gi) - 3*g
	}
	return out, nil
}

func testProbes(n int) []geom.Vec3 {
	rng := simrand.New(777)
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.V(rng.Range(-0.2, 4.2), rng.Range(-0.2, 3.2), rng.Range(-0.2, 2.8))
	}
	return pts
}

// testPartitioners returns the named partitioners the equivalence tests
// sweep: the hash default, an explicit per-key round-robin assignment
// (which leaves shards empty when shards > len(keys)), and a
// range-partitioning func that keeps contiguous key runs together.
func testPartitioners(keys []string, shards int) map[string]Partitioner {
	assign := make(map[string]int, len(keys))
	for i, k := range keys {
		assign[k] = i % shards
	}
	return map[string]Partitioner{
		"hash":     HashByKey{},
		"explicit": Explicit{Assign: assign},
		"range": PartitionFunc(func(key string, n int) int {
			for i, k := range keys {
				if k == key {
					return i * n / len(keys)
				}
			}
			return -1
		}),
	}
}

// driveRound applies one dirty round to both a monolithic chain and a
// sharded store from the same evolving model.
type harness struct {
	t       *testing.T
	keys    []string
	model   *evolvingModel
	mono    *remstore.Store
	monoMap *rem.Map
	sharded *ShardedStore
}

func newHarness(t *testing.T, nKeys int, p Partitioner, shards int) *harness {
	t.Helper()
	keys := testKeys(nKeys)
	sh, err := New(keys, Config{
		Shards:      shards,
		Partitioner: p,
		Volume:      testVol,
		Resolution:  [3]int{testNX, testNY, testNZ},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &harness{
		t:       t,
		keys:    keys,
		model:   newEvolvingModel(nKeys),
		mono:    remstore.New(0),
		sharded: sh,
	}
}

func (h *harness) round(dirty []int) Round {
	h.t.Helper()
	h.model.touch(dirty)
	// Monolithic: full build on the first round, RebuildKeys after.
	var next *rem.Map
	var err error
	if h.monoMap == nil {
		next, err = rem.BuildMapBatch(testVol, testNX, testNY, testNZ, h.keys, h.model.predict, rem.BuildOptions{Workers: 1})
	} else {
		next, err = h.monoMap.RebuildKeys(dirty, h.model.predict, rem.BuildOptions{Workers: 1})
	}
	if err != nil {
		h.t.Fatal(err)
	}
	if _, err := h.mono.Publish(next, len(dirty)); err != nil {
		h.t.Fatal(err)
	}
	h.monoMap = next
	// Sharded: the same dirty set, routed.
	round, err := h.sharded.Rebuild(dirty, h.model.predict, rem.BuildOptions{Workers: 2})
	if err != nil {
		h.t.Fatal(err)
	}
	return round
}

// checkEquivalence pins rule 8 at a quiescent point: the merged sharded
// view is Map.Equal to the monolithic map, and At/Strongest answers
// match bit for bit.
func (h *harness) checkEquivalence(probes []geom.Vec3) {
	h.t.Helper()
	merged, err := h.sharded.MergedSnapshot()
	if err != nil {
		h.t.Fatal(err)
	}
	if !merged.Equal(h.monoMap) {
		h.t.Fatal("merged sharded view differs from the monolithic map")
	}
	for _, key := range h.keys {
		for _, p := range probes {
			wv, _, err := h.mono.At(key, p)
			if err != nil {
				h.t.Fatal(err)
			}
			gv, _, err := h.sharded.At(key, p)
			if err != nil {
				h.t.Fatal(err)
			}
			if math.Float64bits(gv) != math.Float64bits(wv) {
				h.t.Fatalf("At(%s, %v): sharded %v, monolithic %v", key, p, gv, wv)
			}
		}
	}
	for _, p := range probes {
		wk, wv, _, err := h.mono.Strongest(p)
		if err != nil {
			h.t.Fatal(err)
		}
		gk, gv, _, err := h.sharded.Strongest(p)
		if err != nil {
			h.t.Fatal(err)
		}
		if gk != wk || math.Float64bits(gv) != math.Float64bits(wv) {
			h.t.Fatalf("Strongest(%v): sharded (%s, %v), monolithic (%s, %v)", p, gk, gv, wk, wv)
		}
	}
	wk, wv, _, err := h.mono.StrongestBatch(probes)
	if err != nil {
		h.t.Fatal(err)
	}
	gk, gv, err := h.sharded.StrongestBatch(probes)
	if err != nil {
		h.t.Fatal(err)
	}
	for i := range probes {
		if gk[i] != wk[i] || math.Float64bits(gv[i]) != math.Float64bits(wv[i]) {
			h.t.Fatalf("StrongestBatch[%d]: sharded (%s, %v), monolithic (%s, %v)", i, gk[i], gv[i], wk[i], wv[i])
		}
	}
	for _, key := range h.keys {
		wb, _, err := h.mono.AtBatch(key, probes)
		if err != nil {
			h.t.Fatal(err)
		}
		gb, _, err := h.sharded.AtBatch(key, probes)
		if err != nil {
			h.t.Fatal(err)
		}
		for i := range probes {
			if math.Float64bits(gb[i]) != math.Float64bits(wb[i]) {
				h.t.Fatalf("AtBatch(%s)[%d]: sharded %v, monolithic %v", key, i, gb[i], wb[i])
			}
		}
	}
}

// checkPartial pins rule 8 for a store mid-first-round: best-server
// answers cover exactly the serving shards' keys, as the brute scan of
// their merged maps gives them, with the winning shard's version and one
// logical query per point. It returns how many key-owning shards have
// not published yet.
func (h *harness) checkPartial(probes []geom.Vec3) int {
	h.t.Helper()
	s := h.sharded
	var parts []*rem.Map
	var order []string
	owner := map[string]int{}
	pending := 0
	for si := 0; si < s.NumShards(); si++ {
		if s.ShardLen(si) == 0 {
			continue
		}
		snap := s.StoreOf(si).Current()
		if snap == nil {
			pending++
			continue
		}
		parts = append(parts, snap.Map())
		for _, k := range s.ShardKeys(si) {
			owner[k] = si
		}
	}
	for _, k := range h.keys {
		if _, ok := owner[k]; ok {
			order = append(order, k)
		}
	}
	serving, err := rem.Merge(order, parts)
	if err != nil {
		h.t.Fatal(err)
	}
	before := s.Stats().Queries
	gk, gv, err := s.StrongestBatch(probes)
	if err != nil {
		h.t.Fatal(err)
	}
	for i, p := range probes {
		wk, wv := serving.StrongestBrute(p)
		k, v, ver, err := s.Strongest(p)
		if err != nil {
			h.t.Fatal(err)
		}
		if k != wk || math.Float64bits(v) != math.Float64bits(wv) || gk[i] != wk || math.Float64bits(gv[i]) != math.Float64bits(wv) {
			h.t.Fatalf("partial store at %v: Strongest (%s, %v), batch (%s, %v), serving brute (%s, %v)", p, k, v, gk[i], gv[i], wk, wv)
		}
		if want := s.StoreOf(owner[k]).Current().Version(); ver != want {
			h.t.Fatalf("partial store at %v: version %d, winning shard serves %d", p, ver, want)
		}
	}
	if got := s.Stats().Queries - before; got != uint64(2*len(probes)) {
		h.t.Fatalf("partial store counted %d logical queries for %d", got, 2*len(probes))
	}
	return pending
}

// TestShardedEquivalence is rule 8 at the remshard layer: over a round
// sequence with localized, overlapping and DirtyAll dirty sets, every
// query answers byte-identically to the monolithic chain — for each
// partitioner and shard count, including shard counts above the key
// count, a partitioner that leaves shard 0 keyless, and a store whose
// other shards have not published yet.
func TestShardedEquivalence(t *testing.T) {
	const nKeys = 7
	probes := testProbes(23)
	rounds := [][]int{
		{0, 1, 2, 3, 4, 5, 6}, // first build
		{1},
		{2, 5},
		{ml.DirtyAll},
		{6, 0, 6, 0}, // duplicates collapse
	}
	for _, shards := range []int{1, 2, 4, 9} {
		partitioners := testPartitioners(testKeys(nKeys), shards)
		if shards > 1 {
			partitioners["keyless0"] = PartitionFunc(func(key string, n int) int {
				var i int
				fmt.Sscanf(key, "aa:bb:%02d", &i)
				return 1 + i%(n-1)
			})
		}
		for name, p := range partitioners {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				// Mid-first-round: only key 0's shard has published.
				partial := newHarness(t, nKeys, p, shards)
				if _, err := partial.sharded.Rebuild([]int{0}, partial.model.predict, rem.BuildOptions{Workers: 1}); err != nil {
					t.Fatal(err)
				}
				if pending := partial.checkPartial(probes); name == "explicit" && shards > 1 && pending == 0 {
					t.Fatal("explicit partition left no shard pending")
				}
				h := newHarness(t, nKeys, p, shards)
				for _, dirty := range rounds {
					round := h.round(dirty)
					h.checkEquivalence(probes)
					if round.Seq == 0 || round.AffectedShards == 0 {
						t.Fatalf("round = %+v", round)
					}
				}
				if got := h.sharded.Rounds(); got != uint64(len(rounds)) {
					t.Fatalf("rounds = %d, want %d", got, len(rounds))
				}
			})
		}
	}
}

// TestShardedQueryCounts: the logical query count matches what a
// monolithic store reports for the same query stream, and the aggregate
// stats are self-consistent.
func TestShardedQueryCounts(t *testing.T) {
	h := newHarness(t, 5, HashByKey{}, 3)
	h.round([]int{0, 1, 2, 3, 4})
	probes := testProbes(9)
	for _, key := range h.keys {
		if _, _, err := h.mono.At(key, probes[0]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := h.sharded.At(key, probes[0]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := h.mono.AtBatch(key, probes); err != nil {
			t.Fatal(err)
		}
		if _, _, err := h.sharded.AtBatch(key, probes); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range probes {
		if _, _, _, err := h.mono.Strongest(p); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := h.sharded.Strongest(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := h.mono.StrongestBatch(probes); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.sharded.StrongestBatch(probes); err != nil {
		t.Fatal(err)
	}
	monoQ := h.mono.Stats().Queries
	stats := h.sharded.Stats()
	if stats.Queries != monoQ {
		t.Fatalf("sharded logical queries = %d, monolithic = %d", stats.Queries, monoQ)
	}
	var pubs, shq uint64
	for _, ps := range stats.PerShard {
		pubs += ps.Publishes
		shq += ps.Queries
	}
	if stats.ShardPublishes != pubs || stats.ShardQueries != shq {
		t.Fatalf("aggregate totals %d/%d do not match per-shard sums %d/%d",
			stats.ShardPublishes, stats.ShardQueries, pubs, shq)
	}
}

// TestShardedVersionsIndependent: a round leaves untouched shards'
// serving snapshots (and versions) alone — the publish-independence the
// sharding exists for.
func TestShardedVersionsIndependent(t *testing.T) {
	keys := testKeys(4)
	// Range partitioner: keys 0,1 → shard 0; keys 2,3 → shard 1.
	h := newHarness(t, 4, PartitionFunc(func(key string, shards int) int {
		var i int
		fmt.Sscanf(key, "aa:bb:%02d", &i)
		return i / 2
	}), 2)
	h.round([]int{0, 1, 2, 3})
	r := h.round([]int{1}) // dirties shard 0 only
	if r.AffectedShards != 1 || r.Versions[0] != 2 || r.Versions[1] != 0 {
		t.Fatalf("round = %+v", r)
	}
	if v := h.sharded.StoreOf(1).Current().Version(); v != 1 {
		t.Fatalf("untouched shard advanced to version %d", v)
	}
	if v := h.sharded.StoreOf(0).Current().Version(); v != 2 {
		t.Fatalf("touched shard at version %d, want 2", v)
	}
	// And the untouched shard's map is literally the same object.
	if _, _, err := h.sharded.At(keys[3], geom.V(1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	// BuiltKeys counts only what was rasterised.
	if r.BuiltKeys != 1 || r.DirtyKeys != 1 {
		t.Fatalf("round built %d / dirty %d, want 1 / 1", r.BuiltKeys, r.DirtyKeys)
	}
}

// TestShardedUnbuiltShardFullBuilds: dirtying one key of a shard that
// has never published full-builds that shard.
func TestShardedUnbuiltShardFullBuilds(t *testing.T) {
	h := newHarness(t, 4, PartitionFunc(func(key string, shards int) int {
		var i int
		fmt.Sscanf(key, "aa:bb:%02d", &i)
		return i / 2
	}), 2)
	h.model.touch([]int{0})
	r, err := h.sharded.Rebuild([]int{0}, h.model.predict, rem.BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Shard 0 owns keys 0 and 1; both must be rasterised.
	if r.AffectedShards != 1 || r.BuiltKeys != 2 || r.DirtyKeys != 1 {
		t.Fatalf("round = %+v", r)
	}
	// Shard 1 has not published: the merged view must refuse.
	if _, err := h.sharded.MergedSnapshot(); err == nil {
		t.Fatal("partially-published store merged")
	}
	// But routed queries to the built shard serve.
	if _, _, err := h.sharded.At(h.keys[1], geom.V(1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.sharded.At(h.keys[2], geom.V(1, 1, 1)); !errors.Is(err, remstore.ErrEmpty) {
		t.Fatalf("unbuilt shard query = %v, want ErrEmpty", err)
	}
}

// TestShardedEmpty: queries against a store that has never rebuilt.
func TestShardedEmpty(t *testing.T) {
	h := newHarness(t, 3, HashByKey{}, 2)
	if _, _, err := h.sharded.At(h.keys[0], geom.V(1, 1, 1)); !errors.Is(err, remstore.ErrEmpty) {
		t.Fatalf("At = %v, want ErrEmpty", err)
	}
	if _, _, _, err := h.sharded.Strongest(geom.V(1, 1, 1)); !errors.Is(err, remstore.ErrEmpty) {
		t.Fatalf("Strongest = %v, want ErrEmpty", err)
	}
	if _, _, err := h.sharded.StrongestBatch(testProbes(3)); !errors.Is(err, remstore.ErrEmpty) {
		t.Fatalf("StrongestBatch = %v, want ErrEmpty", err)
	}
	if _, err := h.sharded.MergedSnapshot(); !errors.Is(err, remstore.ErrEmpty) {
		t.Fatalf("MergedSnapshot = %v, want ErrEmpty", err)
	}
	if stats := h.sharded.Stats(); stats.Queries != 0 {
		t.Fatalf("empty-store queries counted: %+v", stats)
	}
}

// TestShardedValidation: bad configurations and bad queries fail loudly.
func TestShardedValidation(t *testing.T) {
	keys := testKeys(3)
	good := Config{Shards: 2, Volume: testVol, Resolution: [3]int{4, 4, 2}}
	if _, err := New(nil, good); err == nil {
		t.Fatal("empty vocabulary accepted")
	}
	if _, err := New([]string{"a", "a"}, good); err == nil {
		t.Fatal("duplicate key accepted")
	}
	bad := good
	bad.Resolution = [3]int{0, 4, 2}
	if _, err := New(keys, bad); err == nil {
		t.Fatal("invalid resolution accepted")
	}
	// Partitioner routing out of range (Explicit without fallback).
	if _, err := New(keys, Config{Shards: 2, Partitioner: Explicit{Assign: map[string]int{keys[0]: 0}},
		Volume: testVol, Resolution: [3]int{4, 4, 2}}); err == nil {
		t.Fatal("unassigned key accepted")
	}
	if _, err := New(keys, Config{Shards: 2, Partitioner: PartitionFunc(func(string, int) int { return 7 }),
		Volume: testVol, Resolution: [3]int{4, 4, 2}}); err == nil {
		t.Fatal("out-of-range assignment accepted")
	}
	st, err := New(keys, good)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Rebuild([]int{0}, nil, rem.BuildOptions{}); err == nil {
		t.Fatal("nil predictor accepted")
	}
	model := newEvolvingModel(3)
	if _, err := st.Rebuild([]int{5}, model.predict, rem.BuildOptions{}); err == nil {
		t.Fatal("out-of-range dirty key accepted")
	}
	if _, err := st.Rebuild([]int{0, 1, 2}, model.predict, rem.BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.At("nope", geom.V(1, 1, 1)); err == nil {
		t.Fatal("unknown key accepted")
	}
	if _, ok := st.ShardFor("nope"); ok {
		t.Fatal("unknown key has a shard")
	}
	// An empty dirty set is a no-op round.
	r, err := st.Rebuild(nil, model.predict, rem.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.AffectedShards != 0 || r.DirtyKeys != 0 {
		t.Fatalf("no-op round = %+v", r)
	}
}

// TestMergedSnapshotAt: a version vector resolves to the exact merged
// view that was serving when the vector was captured — as long as every
// constituent shard snapshot is still retained.
func TestMergedSnapshotAt(t *testing.T) {
	h := newHarness(t, 9, HashByKey{}, 3)
	type gen struct {
		versions []uint64
		m        *rem.Map
	}
	var gens []gen
	for r := 0; r < 3; r++ {
		h.round([]int{ml.DirtyAll})
		m, versions, err := h.sharded.MergedSnapshotVersions()
		if err != nil {
			t.Fatal(err)
		}
		gens = append(gens, gen{versions: versions, m: m})
	}
	for i, g := range gens {
		got, ok := h.sharded.MergedSnapshotAt(g.versions)
		if !ok {
			t.Fatalf("generation %d no longer resolvable", i)
		}
		if !got.Equal(g.m) {
			t.Fatalf("generation %d reconstructed differently", i)
		}
	}
	// A vector naming a version no shard ever published, or of the wrong
	// length, is unresolvable.
	bogus := append([]uint64(nil), gens[0].versions...)
	bogus[0] = 99
	if _, ok := h.sharded.MergedSnapshotAt(bogus); ok {
		t.Fatal("bogus version vector resolved")
	}
	if _, ok := h.sharded.MergedSnapshotAt(gens[0].versions[:1]); ok {
		t.Fatal("short version vector resolved")
	}
	// Push every shard past its history bound: the earliest vector's
	// constituents evict and the lookup reports the miss.
	for r := 0; r < remstore.DefaultMaxHistory+1; r++ {
		h.round([]int{ml.DirtyAll})
	}
	if _, ok := h.sharded.MergedSnapshotAt(gens[0].versions); ok {
		t.Fatal("evicted generation still resolvable")
	}
	latest, versions, err := h.sharded.MergedSnapshotVersions()
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := h.sharded.MergedSnapshotAt(versions); !ok || !got.Equal(latest) {
		t.Fatal("current generation not resolvable through its own vector")
	}
}

// TestShardedStrongestAllocs: the best-server serving path allocates
// nothing at steady state — batch and point queries alike.
func TestShardedStrongestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	h := newHarness(t, 9, HashByKey{}, 4)
	h.round([]int{ml.DirtyAll})
	probes := testProbes(64)
	keys, vals := make([]string, len(probes)), make([]float64, len(probes))
	batch := func() {
		if err := h.sharded.StrongestBatchInto(keys, vals, probes); err != nil {
			t.Fatal(err)
		}
	}
	point := func() {
		if _, _, _, err := h.sharded.Strongest(probes[3]); err != nil {
			t.Fatal(err)
		}
	}
	batch()
	point()
	if n := testing.AllocsPerRun(100, batch); n != 0 {
		t.Fatalf("StrongestBatchInto allocates %v per call", n)
	}
	if n := testing.AllocsPerRun(100, point); n != 0 {
		t.Fatalf("Strongest allocates %v per call", n)
	}
}
