package rem

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/simrand"
)

// Tests for the one change description every derivation mends from
// (changedCells → mendCoverFrom): a follower replaying a delta chain
// mends exactly the cubes the leader mended, and a mended index keeps
// the structural invariants a from-scratch build has.

// sameCoverIndex reports whether two coverage indexes hold the same
// bytes: every bound bit for bit, every argmax and every mask word.
func sameCoverIndex(a, b *coverIndex) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.words != b.words || len(a.tiles) != len(b.tiles) {
		return false
	}
	for t, at := range a.tiles {
		bt := b.tiles[t]
		if !sameTile(at.lower, bt.lower) || !sameTile(at.amp, bt.amp) || !sameTile(at.upper, bt.upper) ||
			!slices.Equal(at.argmax, bt.argmax) || !slices.Equal(at.mask, bt.mask) {
			return false
		}
	}
	return true
}

// replicaOf returns a follower's starting point: m through the snapshot
// codec, with a freshly built index.
func replicaOf(t testing.TB, m *Map) *Map {
	t.Helper()
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r.BuildCoverIndex()
	return r
}

// shipDelta applies the delta base→next to the follower's map.
func shipDelta(t testing.TB, follower, base, next *Map) *Map {
	t.Helper()
	delta, err := AppendDelta(nil, base, next)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ApplyDelta(follower, delta)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCoverIndexFollowerMatchesLeader: along an unbroken delta chain from
// one fresh build, mixing WithCells and RebuildKeys derivations, the
// follower's coverage index equals the leader's byte for byte after every
// step, and both mended the same number of cubes.
func TestCoverIndexFollowerMatchesLeader(t *testing.T) {
	rng := simrand.New(4711)
	for trial := 0; trial < 20; trial++ {
		leader := gnarlyMap(t, rng, uint64(trial))
		leader.BuildCoverIndex()
		follower := replicaOf(t, leader)
		for gen := 1; gen <= 40; gen++ {
			palette := gnarlyPredict(uint64(trial)*1000 + uint64(gen))
			var next *Map
			var err error
			if rng.Intn(2) == 0 {
				ki := rng.Intn(len(leader.keys))
				var cells []int
				for idx := 0; idx < leader.stride; idx++ {
					if rng.Intn(4) == 0 {
						cells = append(cells, idx)
					}
				}
				centres := make([]geom.Vec3, len(cells))
				for i, idx := range cells {
					centres[i] = leader.CellCenter(idx)
				}
				vals, _ := palette(centres, ki)
				next, err = leader.WithCells(ki, cells, vals)
			} else {
				var dirty []int
				for k := range leader.keys {
					if rng.Intn(3) == 0 {
						dirty = append(dirty, k)
					}
				}
				next, err = leader.RebuildKeys(dirty, palette, BuildOptions{Workers: 1})
			}
			if err != nil {
				t.Fatal(err)
			}
			follower = shipDelta(t, follower, leader, next)
			leader = next
			tag := fmt.Sprintf("trial %d gen %d", trial, gen)
			lm, _ := leader.CoverMendStats()
			fm, _ := follower.CoverMendStats()
			if lm != fm {
				t.Fatalf("%s: leader mended %d cubes, follower %d", tag, lm, fm)
			}
			if !sameCoverIndex(leader.cover.Load(), follower.cover.Load()) {
				t.Fatalf("%s: follower index differs from the leader's", tag)
			}
		}
		requireRule9(t, rng, follower, fmt.Sprintf("trial %d follower", trial))
	}
}

// requireCoverExact checks every cube of m's index against the bounds
// recomputed from m's cells: L and the argmax equal a from-scratch
// fill's (the mend keeps both exact), A and U are at least the exact
// amplitude and upper bound (a mend may leave them stale-high), and the
// mask is exactly {k : ub_k >= L - A*coverMarginFrac} under the stored L
// and A (no stale exclusion, no stale candidate).
func requireCoverExact(t *testing.T, m *Map, tag string) {
	t.Helper()
	ci := m.cover.Load()
	if ci == nil {
		t.Fatalf("%s: map lost its coverage index", tag)
	}
	ubs := make([]float64, len(m.keys))
	for cube := 0; cube < m.stride; cube++ {
		ct, slot := ci.tiles[cube>>tileShift], cube&tileMask
		cx, cy, cz := cube%m.nx, (cube/m.nx)%m.ny, cube/(m.nx*m.ny)
		L, A, U, amax := math.Inf(-1), 0.0, math.Inf(-1), 0
		for ki := range m.keys {
			lb, ub, a := m.cubeBounds(ki, cx, cy, cz)
			ubs[ki] = ub
			A, U = math.Max(A, a), math.Max(U, ub)
			if lb > L {
				L, amax = lb, ki
			}
		}
		gotL, gotA, gotU := ct.lower[slot], ct.amp[slot], ct.upper[slot]
		if math.Float64bits(gotL) != math.Float64bits(L) || int(ct.argmax[slot]) != amax {
			t.Fatalf("%s: cube %d holds L=%v amax=%d, cells give L=%v amax=%d", tag, cube, gotL, ct.argmax[slot], L, amax)
		}
		if !(gotA >= A) || !(gotU >= U) {
			t.Fatalf("%s: cube %d holds A=%v U=%v below the cells' A=%v U=%v", tag, cube, gotA, gotU, A, U)
		}
		T := gotL - gotA*coverMarginFrac
		mask := ct.mask[slot*ci.words : (slot+1)*ci.words]
		for ki, ub := range ubs {
			if in := mask[ki>>6]&(1<<(ki&63)) != 0; in != (ub >= T) {
				t.Fatalf("%s: cube %d key %d candidate=%v but ub=%v against T=%v", tag, cube, ki, in, ub, T)
			}
		}
	}
}

// requireRule9EveryCube asserts indexed ≡ brute for Strongest and
// CoverageAt at every cube's low corner and centre, and for DarkRegions
// at thresholds that hit the palette's ties and extremes.
func requireRule9EveryCube(t *testing.T, m *Map, tag string) {
	t.Helper()
	for cube := 0; cube < m.stride; cube++ {
		cx, cy, cz := cube%m.nx, (cube/m.nx)%m.ny, cube/(m.nx*m.ny)
		lo := m.cellCenter(cx, cy, cz)
		hi := m.cellCenter(min(cx+1, m.nx-1), min(cy+1, m.ny-1), min(cz+1, m.nz-1))
		for _, p := range []geom.Vec3{lo, geom.V((lo.X+hi.X)/2, (lo.Y+hi.Y)/2, (lo.Z+hi.Z)/2)} {
			ik, iv := m.Strongest(p)
			bk, bv := m.StrongestBrute(p)
			if ik != bk || math.Float64bits(iv) != math.Float64bits(bv) {
				t.Fatalf("%s: Strongest(%v) indexed (%q, %x) != brute (%q, %x)", tag, p, ik, math.Float64bits(iv), bk, math.Float64bits(bv))
			}
			if cv := m.CoverageAt(p); math.Float64bits(cv) != math.Float64bits(bv) {
				t.Fatalf("%s: CoverageAt(%v) %x != brute %x", tag, p, math.Float64bits(cv), math.Float64bits(bv))
			}
		}
	}
	requireDarkRule9(t, m, tag, math.Inf(-1), -100, -70, -40, 0, 1e300, math.Inf(1))
}

// coverMendExtremes are the cell values FuzzCoverMend mixes into ordinary
// quantised dBm levels: signed zeros, non-finite values, and amplitudes
// large enough to widen a cube's margin past every ordinary bound.
var coverMendExtremes = [16]float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	1e300, -1e300, math.MaxFloat64, -math.MaxFloat64, 1e-300,
	1e15, -1e15, 4e12, -70, -70, -40,
}

// coverMendValue maps one byte to a cell value: the high bit picks an
// ordinary quantised level (exact ties are common), otherwise an extreme.
func coverMendValue(b byte) float64 {
	if b&0x80 != 0 {
		return -100 + float64(b%14)*4.5
	}
	return coverMendExtremes[b&15]
}

// coverMendPredict is a pure (position, key) → value field drawn through
// coverMendValue, so a RebuildKeys step writes ties and extremes too.
func coverMendPredict(salt byte) BatchPredictFunc {
	return func(centers []geom.Vec3, k int) ([]float64, error) {
		out := make([]float64, len(centers))
		for i, p := range centers {
			h := math.Float64bits(p.X*3.1+p.Y*1.7+p.Z) ^ uint64(k)*0x9E3779B97F4A7C15 ^ uint64(salt)<<40
			h ^= h >> 33
			h *= 0xff51afd7ed558ccd
			h ^= h >> 33
			b := byte(h)
			if h>>8%4 != 0 {
				b |= 0x80 // three in four cells ordinary
			}
			out[i] = coverMendValue(b)
		}
		return out, nil
	}
}

// coverMendGeoms all span two index tiles (256 < cells <= 512).
var coverMendGeoms = [4][3]int{{9, 8, 4}, {8, 8, 5}, {7, 7, 8}, {16, 4, 8}}

// FuzzCoverMend decodes the fuzzed bytes into a map of one to four keys
// over two index tiles and a chain of up to 24 edits, each a WithCells
// write or a RebuildKeys re-rasterisation, shipped to a follower through
// AppendDelta/ApplyDelta. After every step the leader's index answers
// Strongest, CoverageAt and DarkRegions like the brute scan on every
// cube, keeps the structural invariants requireCoverExact checks, and
// equals the follower's index byte for byte.
//
// Layout: keys byte | geometry byte | salt byte | steps, each an op byte
// then, for WithCells (op even): key byte, count byte, count × (2 cell
// bytes, value byte); for RebuildKeys (op odd): dirty-mask byte, salt
// byte. Missing bytes read as zero.
func FuzzCoverMend(f *testing.F) {
	f.Add([]byte{3, 0, 7, 0, 1, 3, 0, 5, 0x85, 1, 8, 0x90, 2, 0, 0x07, 1, 0x0f, 3})
	f.Add([]byte{4, 3, 1, 1, 0x0f, 9, 0, 2, 2, 0, 1, 0xff, 0x82, 1, 0x05, 4, 0, 0, 1, 0, 10, 6})
	f.Add([]byte{2, 1, 200, 2, 1, 4, 1, 44, 5, 1, 45, 7, 0, 46, 1, 0, 47, 0x8a, 3, 0x03, 77})
	f.Add([]byte{1, 2, 9, 0, 0, 2, 0, 0, 3, 0, 1, 4, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		nKeys := 1 + int(next()%4)
		g := coverMendGeoms[next()%4]
		keys := make([]string, nKeys)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%d", i)
		}
		vol := geom.MustCuboid(geom.V(0, 0, 0), 4, 3, 2.5)
		leader, err := BuildMapBatch(vol, g[0], g[1], g[2], keys, coverMendPredict(next()), BuildOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		leader.BuildCoverIndex()
		follower := replicaOf(t, leader)
		for step := 0; step < 24 && len(data) > 0; step++ {
			var child *Map
			if op := next(); op&1 == 0 {
				ki := int(next()) % nKeys
				n := 1 + int(next()%8)
				cells, vals := make([]int, n), make([]float64, n)
				for i := range cells {
					cells[i] = (int(next())<<8 | int(next())) % leader.stride
					vals[i] = coverMendValue(next())
				}
				child, err = leader.WithCells(ki, cells, vals)
			} else {
				var dirty []int
				for k, mask := 0, next(); k < nKeys; k++ {
					if mask&(1<<k) != 0 {
						dirty = append(dirty, k)
					}
				}
				child, err = leader.RebuildKeys(dirty, coverMendPredict(next()), BuildOptions{Workers: 1})
			}
			if err != nil {
				t.Fatal(err)
			}
			follower = shipDelta(t, follower, leader, child)
			leader = child
			tag := fmt.Sprintf("step %d", step)
			requireRule9EveryCube(t, leader, tag)
			requireCoverExact(t, leader, tag)
			if !sameCoverIndex(leader.cover.Load(), follower.cover.Load()) {
				t.Fatalf("%s: follower index differs from the leader's", tag)
			}
		}
	})
}
