package rem

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/simrand"
)

// Quickchecks for determinism rule 9 (indexed ≡ scan): the coverage
// index must reproduce the brute O(keys) scan bit-for-bit — winner key,
// winner value bits, dark-cell lists — on maps salted with cross-key
// ties, NaN and ±Inf cells, and must keep doing so across the index's
// whole lifecycle: fresh build, RebuildKeys mends, ApplyDelta mends,
// and shard Merge reassembly.

// gnarlyPredict returns a pure (position, key) → value function drawing
// from a quantised palette (so exact cross-key ties are common) salted
// with NaN and ±Inf cells. Purity keeps builds deterministic under any
// chunking; salt varies the field between generations.
func gnarlyPredict(salt uint64) BatchPredictFunc {
	return func(centers []geom.Vec3, k int) ([]float64, error) {
		out := make([]float64, len(centers))
		for i, p := range centers {
			h := math.Float64bits(p.X*3.1+p.Y*1.7+p.Z) ^ uint64(k)*0x9E3779B97F4A7C15 ^ salt
			h ^= h >> 33
			h *= 0xff51afd7ed558ccd
			h ^= h >> 33
			switch h % 29 {
			case 0:
				out[i] = math.NaN()
			case 1:
				out[i] = math.Inf(1)
			case 2:
				out[i] = math.Inf(-1)
			default:
				out[i] = -100 + float64((h/29)%14)*4.5
			}
		}
		return out, nil
	}
}

// gnarlyMap builds a random-geometry map through gnarlyPredict.
func gnarlyMap(t *testing.T, rng *simrand.Source, salt uint64) *Map {
	t.Helper()
	nx, ny, nz := 1+rng.Intn(6), 1+rng.Intn(5), 1+rng.Intn(4)
	nKeys := 1 + rng.Intn(9)
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%02d", i)
	}
	vol := geom.MustCuboid(geom.V(rng.Range(-3, 0), rng.Range(-3, 0), 0), rng.Range(1, 5), rng.Range(1, 5), rng.Range(1, 3))
	m, err := BuildMapBatch(vol, nx, ny, nz, keys, gnarlyPredict(salt), BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// quickcheckPoints mixes interior points, out-of-volume points (the
// clamping path), exact cell centres and cube-face midpoints (where
// interpolation weights hit exactly 0 and 1).
func quickcheckPoints(rng *simrand.Source, m *Map, n int) []geom.Vec3 {
	vol := m.Volume()
	s := vol.Size()
	nx, ny, nz := m.Resolution()
	pts := make([]geom.Vec3, n)
	for i := range pts {
		switch rng.Intn(4) {
		case 0:
			pts[i] = geom.V(vol.Min.X+rng.Float64()*s.X, vol.Min.Y+rng.Float64()*s.Y, vol.Min.Z+rng.Float64()*s.Z)
		case 1:
			pts[i] = geom.V(vol.Max.X+rng.Range(0, 2), vol.Min.Y-rng.Range(0, 2), vol.Max.Z+rng.Range(0, 1))
		case 2:
			pts[i] = m.cellCenter(rng.Intn(nx), rng.Intn(ny), rng.Intn(nz))
		default:
			c := m.cellCenter(rng.Intn(nx), rng.Intn(ny), rng.Intn(nz))
			pts[i] = geom.V(c.X+0.5*s.X/float64(nx), c.Y, c.Z+0.5*s.Z/float64(nz))
		}
	}
	return pts
}

// requireRule9 asserts indexed ≡ brute, bit for bit, on point queries,
// batch queries and dark-region sweeps.
func requireRule9(t *testing.T, rng *simrand.Source, m *Map, tag string) {
	t.Helper()
	if !m.HasCoverIndex() {
		t.Fatalf("%s: map lost its coverage index", tag)
	}
	pts := quickcheckPoints(rng, m, 48)
	for _, p := range pts {
		ik, iv := m.Strongest(p)
		bk, bv := m.StrongestBrute(p)
		if ik != bk || math.Float64bits(iv) != math.Float64bits(bv) {
			t.Fatalf("%s: Strongest(%v) indexed (%q, %x) != brute (%q, %x)",
				tag, p, ik, math.Float64bits(iv), bk, math.Float64bits(bv))
		}
		if cv := m.CoverageAt(p); math.Float64bits(cv) != math.Float64bits(bv) {
			t.Fatalf("%s: CoverageAt(%v) %x != brute %x", tag, p, math.Float64bits(cv), math.Float64bits(bv))
		}
	}
	n := len(pts)
	ik, iv := make([]string, n), make([]float64, n)
	bk, bv := make([]string, n), make([]float64, n)
	if err := m.StrongestBatchInto(ik, iv, pts); err != nil {
		t.Fatal(err)
	}
	if err := m.StrongestBatchBruteInto(bk, bv, pts); err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if ik[i] != bk[i] || math.Float64bits(iv[i]) != math.Float64bits(bv[i]) {
			t.Fatalf("%s: batch point %d indexed (%q, %x) != brute (%q, %x)",
				tag, i, ik[i], math.Float64bits(iv[i]), bk[i], math.Float64bits(bv[i]))
		}
	}
	requireDarkRule9(t, m, tag, math.Inf(-1), -120, -75, -40, 0, math.Inf(1))
}

// requireDarkRule9 asserts indexed ≡ brute, bit for bit, on dark-region
// sweeps at each threshold.
func requireDarkRule9(t *testing.T, m *Map, tag string, thresholds ...float64) {
	t.Helper()
	for _, thr := range thresholds {
		di := m.DarkRegions(thr)
		db := m.DarkRegionsBrute(thr)
		if len(di) != len(db) {
			t.Fatalf("%s: DarkRegions(%v) indexed %d cells, brute %d", tag, thr, len(di), len(db))
		}
		for i := range di {
			if di[i].Center != db[i].Center || math.Float64bits(di[i].BestRSS) != math.Float64bits(db[i].BestRSS) {
				t.Fatalf("%s: DarkRegions(%v) cell %d indexed %+v != brute %+v", tag, thr, i, di[i], db[i])
			}
		}
	}
}

// TestCoverIndexQuickcheck: a freshly built index reproduces the brute
// scan bit-for-bit on random maps with ties and non-finite cells.
func TestCoverIndexQuickcheck(t *testing.T) {
	rng := simrand.New(4242)
	for trial := 0; trial < 40; trial++ {
		m := gnarlyMap(t, rng, uint64(trial)*17)
		m.BuildCoverIndex()
		requireRule9(t, rng, m, fmt.Sprintf("trial %d", trial))
		st, ok := m.CoverIndexStats()
		if !ok || st.Cubes == 0 || st.Bytes == 0 {
			t.Fatalf("trial %d: implausible index stats %+v ok=%v", trial, st, ok)
		}
	}
}

// TestCoverIndexOptOut: dropping the index falls back to the brute scan
// with identical results, and rebuilding re-attaches it.
func TestCoverIndexOptOut(t *testing.T) {
	rng := simrand.New(77)
	m := gnarlyMap(t, rng, 5)
	m.BuildCoverIndex()
	p := quickcheckPoints(rng, m, 1)[0]
	ik, iv := m.Strongest(p)
	m.DropCoverIndex()
	if m.HasCoverIndex() {
		t.Fatal("index survived DropCoverIndex")
	}
	bk, bv := m.Strongest(p)
	if ik != bk || math.Float64bits(iv) != math.Float64bits(bv) {
		t.Fatalf("opt-out changed the answer: (%q, %v) != (%q, %v)", ik, iv, bk, bv)
	}
	m.BuildCoverIndex()
	if !m.HasCoverIndex() {
		t.Fatal("BuildCoverIndex did not re-attach")
	}
}

// TestCoverIndexMendRebuildKeys: rule 9 holds on generations derived by
// RebuildKeys, whose index is mended from the parent, across a chain of
// derivations (so looseness or staleness would accumulate and surface).
func TestCoverIndexMendRebuildKeys(t *testing.T) {
	rng := simrand.New(9001)
	for trial := 0; trial < 15; trial++ {
		m := gnarlyMap(t, rng, uint64(trial))
		m.BuildCoverIndex()
		for gen := 1; gen <= 3; gen++ {
			nKeys := len(m.Keys())
			var dirty []int
			for k := 0; k < nKeys; k++ {
				if rng.Intn(2) == 0 {
					dirty = append(dirty, k)
				}
			}
			next, err := m.RebuildKeys(dirty, gnarlyPredict(uint64(trial)*100+uint64(gen)), BuildOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !next.HasCoverIndex() {
				t.Fatalf("trial %d gen %d: mend did not carry the index forward", trial, gen)
			}
			requireRule9(t, rng, next, fmt.Sprintf("trial %d gen %d", trial, gen))
			m = next
		}
	}
}

// TestCoverIndexMendApplyDelta: rule 9 holds on a follower's generation
// derived by ApplyDelta, whose index is mended from the base around the
// cells whose bits the delta changed.
func TestCoverIndexMendApplyDelta(t *testing.T) {
	rng := simrand.New(31337)
	for trial := 0; trial < 15; trial++ {
		base := gnarlyMap(t, rng, uint64(trial))
		base.BuildCoverIndex()
		nKeys := len(base.Keys())
		var dirty []int
		for k := 0; k < nKeys; k++ {
			if rng.Intn(3) == 0 {
				dirty = append(dirty, k)
			}
		}
		next, err := base.RebuildKeys(dirty, gnarlyPredict(uint64(trial)+999), BuildOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		delta, err := AppendDelta(nil, base, next)
		if err != nil {
			t.Fatal(err)
		}
		applied, err := ApplyDelta(base, delta)
		if err != nil {
			t.Fatal(err)
		}
		if !applied.HasCoverIndex() {
			t.Fatalf("trial %d: ApplyDelta did not mend the index", trial)
		}
		requireRule9(t, rng, applied, fmt.Sprintf("trial %d", trial))
		// The applied map is Equal to next, so its indexed answers must
		// also match next's answers bit-for-bit.
		for _, p := range quickcheckPoints(rng, applied, 16) {
			ak, av := applied.Strongest(p)
			nk, nv := next.Strongest(p)
			if ak != nk || math.Float64bits(av) != math.Float64bits(nv) {
				t.Fatalf("trial %d: applied (%q, %x) != next (%q, %x)", trial, ak, math.Float64bits(av), nk, math.Float64bits(nv))
			}
		}
	}
}

// TestCoverIndexMerge: a merged map reassembles its index from indexed
// parts (rule 9 against the merged brute scan), and stays unindexed —
// with identical query results — when any part lacks one.
func TestCoverIndexMerge(t *testing.T) {
	rng := simrand.New(555)
	for trial := 0; trial < 15; trial++ {
		nx, ny, nz := 1+rng.Intn(5), 1+rng.Intn(4), 1+rng.Intn(3)
		vol := geom.MustCuboid(geom.V(-1, -1, 0), 3, 3, 2)
		nParts := 1 + rng.Intn(3)
		var order []string
		parts := make([]*Map, nParts)
		for pi := 0; pi < nParts; pi++ {
			nk := 1 + rng.Intn(4)
			keys := make([]string, nk)
			for i := range keys {
				keys[i] = fmt.Sprintf("p%d-%02d", pi, i)
			}
			order = append(order, keys...)
			p, err := BuildMapBatch(vol, nx, ny, nz, keys, gnarlyPredict(uint64(trial)*31+uint64(pi)), BuildOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			p.BuildCoverIndex()
			parts[pi] = p
		}
		// Interleave the order so part-local key order differs from the
		// merged vocabulary order.
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		merged, err := Merge(order, parts)
		if err != nil {
			t.Fatal(err)
		}
		if !merged.HasCoverIndex() {
			t.Fatalf("trial %d: merge of indexed parts lost the index", trial)
		}
		requireRule9(t, rng, merged, fmt.Sprintf("trial %d", trial))

		// One unindexed part disables reassembly but changes no answer.
		parts[nParts-1].DropCoverIndex()
		plain, err := Merge(order, parts)
		if err != nil {
			t.Fatal(err)
		}
		if plain.HasCoverIndex() {
			t.Fatalf("trial %d: merge with an unindexed part built an index", trial)
		}
		for _, p := range quickcheckPoints(rng, merged, 16) {
			mk, mv := merged.Strongest(p)
			pk, pv := plain.Strongest(p)
			if mk != pk || math.Float64bits(mv) != math.Float64bits(pv) {
				t.Fatalf("trial %d: merged indexed (%q, %x) != unindexed (%q, %x)", trial, mk, math.Float64bits(mv), pk, math.Float64bits(pv))
			}
		}
	}
}

// TestCoverIndexSharing: a no-op rebuild shares the whole index with the
// parent, and a small dirty set keeps cell-tile sharing intact (the index
// rides the same copy-on-write discipline as cell tiles).
func TestCoverIndexSharing(t *testing.T) {
	m, err := BuildMapBatch(geom.MustCuboid(geom.V(0, 0, 0), 4, 3, 2), 12, 10, 6,
		[]string{"a", "b", "c", "d"}, gnarlyPredict(1), BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.BuildCoverIndex()
	same, err := m.RebuildKeys([]int{1}, gnarlyPredict(1), BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Identical predictor → no tile content changed → the child must
	// share the parent's index object outright.
	if same.cover.Load() != m.cover.Load() {
		t.Fatal("no-op rebuild did not share the parent's index")
	}
	next, err := m.RebuildKeys([]int{1}, gnarlyPredict(2), BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !next.HasCoverIndex() {
		t.Fatal("mend dropped the index")
	}
	rng := simrand.New(8)
	requireRule9(t, rng, next, "dirty-key mend")
}

// acrossField is a gnarly field with per-key generations: key gi draws
// from gnarlyPredict salted by its generation, and keys marked nan are
// NaN everywhere. The whole map and every part map are rasterised from
// it, so they agree cell for cell.
type acrossField struct {
	salt uint64
	gen  []uint64
	nan  []bool
}

func (f *acrossField) predict(centers []geom.Vec3, gi int) ([]float64, error) {
	if f.nan[gi] {
		out := make([]float64, len(centers))
		for i := range out {
			out[i] = math.NaN()
		}
		return out, nil
	}
	return gnarlyPredict(f.salt^f.gen[gi]*0x2545F4914F6CDD1D)(centers, gi)
}

// local adapts predict to a part whose local key k is global key
// global[k].
func (f *acrossField) local(global []int) BatchPredictFunc {
	return func(centers []geom.Vec3, k int) ([]float64, error) { return f.predict(centers, global[k]) }
}

// requireUpperSound asserts that every cube's U bounds every key's
// corner maximum, recomputed from the cells with cubeBounds.
func requireUpperSound(t *testing.T, m *Map, tag string) {
	t.Helper()
	ci := m.cover.Load()
	if ci == nil {
		return
	}
	for cube := 0; cube < m.stride; cube++ {
		cx, cy, cz := cube%m.nx, (cube/m.nx)%m.ny, cube/(m.nx*m.ny)
		want := math.Inf(-1)
		for ki := range m.keys {
			if _, ub, _ := m.cubeBounds(ki, cx, cy, cz); ub > want {
				want = ub
			}
		}
		if got := ci.tiles[cube>>tileShift].upper[cube&tileMask]; !(got >= want) {
			t.Fatalf("%s: cube %d upper %v below the key maximum %v", tag, cube, got, want)
		}
	}
}

// requireAcross asserts that StrongestAcrossInto over parts equals the
// whole map's brute scans bit for bit, that from names the part owning
// each winner, and that every index involved keeps a sound U. It
// returns how many points had a best value attained in two or more
// parts (a cross-part tie).
func requireAcross(t *testing.T, rng *simrand.Source, whole *Map, parts []*Map, global [][]int, tag string) int {
	t.Helper()
	requireUpperSound(t, whole, tag+" whole")
	partOf := make([]int, len(whole.keys))
	for pi, p := range parts {
		requireUpperSound(t, p, fmt.Sprintf("%s part %d", tag, pi))
		for _, gi := range global[pi] {
			partOf[gi] = pi
		}
	}
	pts := quickcheckPoints(rng, whole, 48)
	n := len(pts)
	ak, av, from := make([]string, n), make([]float64, n), make([]int, n)
	if err := StrongestAcrossInto(parts, global, ak, av, from, pts); err != nil {
		t.Fatal(err)
	}
	bk, bv := make([]string, n), make([]float64, n)
	if err := whole.StrongestBatchBruteInto(bk, bv, pts); err != nil {
		t.Fatal(err)
	}
	ties := 0
	for i, p := range pts {
		pk, pv := whole.StrongestBrute(p)
		if ak[i] != bk[i] || math.Float64bits(av[i]) != math.Float64bits(bv[i]) ||
			ak[i] != pk || math.Float64bits(av[i]) != math.Float64bits(pv) {
			t.Fatalf("%s: point %v across (%q, %x), batch brute (%q, %x), brute (%q, %x)", tag, p,
				ak[i], math.Float64bits(av[i]), bk[i], math.Float64bits(bv[i]), pk, math.Float64bits(pv))
		}
		if ak[i] == "" {
			if from[i] != -1 {
				t.Fatalf("%s: point %v has no winner but from = %d", tag, p, from[i])
			}
			continue
		}
		if from[i] < 0 || from[i] >= len(parts) || parts[from[i]].KeyIndex(ak[i]) < 0 {
			t.Fatalf("%s: point %v winner %q credited to part %d", tag, p, ak[i], from[i])
		}
		attained := map[int]bool{}
		for gi := range whole.keys {
			if whole.at(gi, p) == av[i] {
				attained[partOf[gi]] = true
			}
		}
		if len(attained) > 1 {
			ties++
		}
	}
	return ties
}

// TestCoverIndexAcrossParts is rules 8 and 9 for the cross-part
// best-server routine: gnarly maps split into 1, 2, 4 and 9 parts under
// random key partitions (a one-key part, an all-NaN part and an
// unindexed part among them; part-local key order shuffled) answer
// exactly like the whole map's brute scans, ties across parts going to
// the earliest global key — on fresh builds, after per-part RebuildKeys
// mends, after ApplyDelta and after Merge, with U sound at every stage.
func TestCoverIndexAcrossParts(t *testing.T) {
	rng := simrand.New(2718)
	ties := 0
	for _, nParts := range []int{1, 2, 4, 9} {
		for trial := 0; trial < 8; trial++ {
			tag := fmt.Sprintf("parts=%d trial %d", nParts, trial)
			nKeys := nParts + rng.Intn(8)
			nx, ny, nz := 1+rng.Intn(6), 1+rng.Intn(5), 1+rng.Intn(4)
			vol := geom.MustCuboid(geom.V(rng.Range(-3, 0), rng.Range(-3, 0), 0), rng.Range(1, 5), rng.Range(1, 5), rng.Range(1, 3))
			keys := make([]string, nKeys)
			for i := range keys {
				keys[i] = fmt.Sprintf("key%02d", i)
			}
			f := &acrossField{salt: uint64(nParts*100 + trial), gen: make([]uint64, nKeys), nan: make([]bool, nKeys)}
			// Every part gets one key of a random permutation, the rest
			// land at random — never in part 0, which stays a one-key part.
			perm := rng.Perm(nKeys)
			global := make([][]int, nParts)
			for pi := range global {
				global[pi] = []int{perm[pi]}
			}
			for _, gi := range perm[nParts:] {
				pi := 0
				if nParts > 1 {
					pi = 1 + rng.Intn(nParts-1)
				}
				global[pi] = append(global[pi], gi)
			}
			if nParts >= 3 {
				for _, gi := range global[1] {
					f.nan[gi] = true
				}
			}
			unindexed := -1
			if nParts >= 2 {
				unindexed = nParts - 1
			}
			build := func(pi int) *Map {
				pk := make([]string, len(global[pi]))
				for k, gi := range global[pi] {
					pk[k] = keys[gi]
				}
				p, err := BuildMapBatch(vol, nx, ny, nz, pk, f.local(global[pi]), BuildOptions{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				if pi != unindexed {
					p.BuildCoverIndex()
				}
				return p
			}
			whole, err := BuildMapBatch(vol, nx, ny, nz, keys, f.predict, BuildOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			whole.BuildCoverIndex()
			parts := make([]*Map, nParts)
			for pi := range parts {
				parts[pi] = build(pi)
			}
			ties += requireAcross(t, rng, whole, parts, global, tag+" build")

			// bump advances a random key subset one generation and returns
			// the global dirty set plus each part's local dirty set.
			bump := func() ([]int, [][]int) {
				var dirty []int
				local := make([][]int, nParts)
				for pi, g := range global {
					for k, gi := range g {
						if rng.Intn(2) == 0 {
							f.gen[gi]++
							dirty = append(dirty, gi)
							local[pi] = append(local[pi], k)
						}
					}
				}
				return dirty, local
			}
			rebuild := func(dirty []int, local [][]int) []*Map {
				if whole, err = whole.RebuildKeys(dirty, f.predict, BuildOptions{Workers: 1}); err != nil {
					t.Fatal(err)
				}
				next := make([]*Map, nParts)
				for pi, p := range parts {
					if next[pi], err = p.RebuildKeys(local[pi], f.local(global[pi]), BuildOptions{Workers: 1}); err != nil {
						t.Fatal(err)
					}
				}
				return next
			}
			for gen := 1; gen <= 2; gen++ {
				parts = rebuild(bump())
				ties += requireAcross(t, rng, whole, parts, global, fmt.Sprintf("%s mend %d", tag, gen))
			}

			next := rebuild(bump())
			for pi, p := range parts {
				delta, err := AppendDelta(nil, p, next[pi])
				if err != nil {
					t.Fatal(err)
				}
				if parts[pi], err = ApplyDelta(p, delta); err != nil {
					t.Fatal(err)
				}
			}
			ties += requireAcross(t, rng, whole, parts, global, tag+" delta")

			// Merge the first half of the parts into one, its key order
			// shuffled; the rest stay as they are.
			half := (nParts + 1) / 2
			var mg []int
			for _, g := range global[:half] {
				mg = append(mg, g...)
			}
			rng.Shuffle(len(mg), func(i, j int) { mg[i], mg[j] = mg[j], mg[i] })
			order := make([]string, len(mg))
			for k, gi := range mg {
				order[k] = keys[gi]
			}
			merged, err := Merge(order, parts[:half])
			if err != nil {
				t.Fatal(err)
			}
			parts = append([]*Map{merged}, parts[half:]...)
			global = append([][]int{mg}, global[half:]...)
			ties += requireAcross(t, rng, whole, parts, global, tag+" merge")
		}
	}
	if ties == 0 {
		t.Fatal("no point tied across parts: the generator no longer exercises the tie rule")
	}
	t.Logf("%d cross-part ties checked", ties)
}
