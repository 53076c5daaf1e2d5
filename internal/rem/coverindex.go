package rem

import (
	"math"
	"math/bits"
	"time"

	"repro/internal/parallel"
)

// This file materialises the coverage index behind Strongest/CoverageAt/
// DarkRegions: a per-interpolation-cube candidate set that prunes the
// O(K) key scan down to the few keys that can actually win inside the
// cube.
//
// Every query point resolves (via locate) to one cube of the trilinear
// lattice — the cell (ix0, iy0, iz0) plus its +1 neighbours, clamped at
// the grid edge. A key's interpolated value anywhere inside that cube is
// a convex combination of its 8 corner cells, so it is bracketed by the
// corner min and max up to floating-point rounding. The index stores,
// per cube:
//
//	L    = max over keys of the corner minimum (keys with a non-finite
//	       corner contribute -Inf: their interpolant is NaN or -Inf
//	       somewhere in the cube, so they guarantee nothing),
//	A    = max |finite corner| over every key (the amplitude the
//	       rounding-error margin scales with),
//	U    = max over keys of ub_k, the corner max ignoring NaN corners
//	       (-Inf when every corner of every key is NaN),
//	amax = a key index attaining L,
//	mask = the candidate set {k : ub_k >= L - A*coverMarginFrac}.
//
// Soundness: the computed trilinear sum deviates from the exact convex
// combination by at most a few tens of ulps of A (the 8 weights are
// products of two roundings each and sum to 1 within 4 ulps), far below
// the margin A*1e-12. The amax key's value is therefore > ub_k + margin/2
// everywhere in the cube for every excluded key k, so an excluded key can
// never win nor tie. Scanning the candidates in ascending key order with
// the same strict > as the brute loop then reproduces the brute scan
// bit-for-bit, ties included — determinism rule 9 (indexed ≡ scan),
// quickchecked in coverindex_test.go.
//
// U lifts the same argument across maps that partition one vocabulary
// (StrongestAcrossInto, the sharded best-server path): with the global
// threshold T = max_s L_s - max_s A_s*coverMarginFrac, every key of a
// part whose U_s < T is below the winner everywhere in the cube, so the
// whole part is skipped without reading its mask.
//
// Non-finite corners: a NaN corner makes the interpolant NaN over the
// whole cube (a zero weight times NaN is still NaN), and NaN never beats
// anything under strict >, so such keys are harmless candidates at worst.
// ub_k keeps ±Inf corners (a +Inf corner really can dominate), and skips
// only NaN ones; DarkRegions additionally reads exact corner cells, which
// ub_k bounds by construction.
//
// The index is tiled like cell storage (TileCells cubes per tile, cube
// index == flat cell index of the cube's low corner) and shared
// copy-on-write across generations. Every derivation — WithCells,
// RebuildKeys and a follower's ApplyDelta — mends it the same way:
// changedCells finds the cells whose bits changed, and mendCover
// re-derives bounds only for their keys and re-filters only the cubes
// whose corner set holds such a cell, aliasing every other index tile
// with the parent.

// coverMarginFrac scales the pruning margin: a key is kept as a candidate
// unless its upper bound is below L - A*coverMarginFrac. The trilinear
// rounding error is a few tens of ulps of A (~1e-14·A), so 1e-12·A keeps
// two orders of magnitude of slack while excluding nothing that matters.
const coverMarginFrac = 1e-12

// coverTile holds the index entries for one run of TileCells cubes
// (index tile t covers cubes [t*TileCells, t*TileCells+len), mirroring
// cell-tile geometry so copy-on-write sharing lines up with cell tiles).
type coverTile struct {
	// lower[c] is L: the best guaranteed interpolant in cube c.
	lower []float64
	// amp[c] is A: the largest |finite corner| any key has in cube c.
	amp []float64
	// upper[c] is U: an upper bound on every key's corner maximum in cube
	// c — exact after fillCube, possibly stale-high after a mend.
	upper []float64
	// argmax[c] is a key index attaining lower[c]; mends use it to decide
	// whether the cheap update path is exact (the attainer is clean) or a
	// full recompute is needed (the attainer's cells changed).
	argmax []uint32
	// mask[c*words : (c+1)*words] is cube c's candidate bitmask, one bit
	// per key in vocabulary order.
	mask []uint64
}

// coverIndex is an immutable per-cube candidate index for one Map
// generation. Tiles may be shared by pointer with other generations.
type coverIndex struct {
	// words is the per-cube mask length: ceil(len(keys)/64).
	words int
	tiles []*coverTile
}

func newCoverTile(n, words int) *coverTile {
	return &coverTile{
		lower:  make([]float64, n),
		amp:    make([]float64, n),
		upper:  make([]float64, n),
		argmax: make([]uint32, n),
		mask:   make([]uint64, n*words),
	}
}

func cloneCoverTile(src *coverTile) *coverTile {
	return &coverTile{
		lower:  append([]float64(nil), src.lower...),
		amp:    append([]float64(nil), src.amp...),
		upper:  append([]float64(nil), src.upper...),
		argmax: append([]uint32(nil), src.argmax...),
		mask:   append([]uint64(nil), src.mask...),
	}
}

// BuildCoverIndex materialises the coverage index for this map if it does
// not already carry one. Safe for concurrent use; queries running during
// the build keep using the brute scan and pick the index up on their next
// atomic load. The index changes no query result (rule 9), only its cost.
func (m *Map) BuildCoverIndex() {
	if m.cover.Load() != nil {
		return
	}
	m.cover.CompareAndSwap(nil, m.buildCoverIndex(0))
}

// HasCoverIndex reports whether the map currently carries a coverage
// index.
func (m *Map) HasCoverIndex() bool { return m.cover.Load() != nil }

// DropCoverIndex detaches the coverage index — the opt-out switch.
// Subsequent Strongest/StrongestBatch/CoverageAt/DarkRegions calls fall
// back to the brute O(K) scan (and return identical results).
func (m *Map) DropCoverIndex() { m.cover.Store(nil) }

// CoverStats describes a built coverage index, for capacity planning and
// honest overhead reporting.
type CoverStats struct {
	// Cubes is the number of interpolation cubes indexed (== cell count).
	Cubes int
	// Candidates is the total candidate-set population over all cubes;
	// Candidates/Cubes is the expected number of interpolations per
	// Strongest query (the brute scan pays len(Keys)).
	Candidates int
	// Bytes is the index's storage footprint, counting shared tiles once.
	Bytes int
}

// CoverIndexStats returns the current index's stats; ok is false when the
// map carries no index.
func (m *Map) CoverIndexStats() (stats CoverStats, ok bool) {
	ci := m.cover.Load()
	if ci == nil {
		return CoverStats{}, false
	}
	stats.Cubes = m.stride
	for _, ct := range ci.tiles {
		for _, w := range ct.mask {
			stats.Candidates += bits.OnesCount64(w)
		}
		stats.Bytes += len(ct.lower)*8 + len(ct.amp)*8 + len(ct.upper)*8 + len(ct.argmax)*4 + len(ct.mask)*8
	}
	return stats, true
}

// cubeBounds computes key ki's interpolation bounds over the cube whose
// low corner is cell (cx, cy, cz): lb is the guaranteed minimum (-Inf if
// any corner is non-finite), ub the corner maximum ignoring NaN corners
// (-Inf if all 8 are NaN), and amp the largest finite |corner|.
func (m *Map) cubeBounds(ki, cx, cy, cz int) (lb, ub, amp float64) {
	x1, y1, z1 := cx+1, cy+1, cz+1
	if x1 >= m.nx {
		x1 = m.nx - 1
	}
	if y1 >= m.ny {
		y1 = m.ny - 1
	}
	if z1 >= m.nz {
		z1 = m.nz - 1
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	finite := true
	for c := 0; c < 8; c++ {
		ix, iy, iz := cx, cy, cz
		if c&1 != 0 {
			ix = x1
		}
		if c&2 != 0 {
			iy = y1
		}
		if c&4 != 0 {
			iz = z1
		}
		v := m.val(ki, ix+m.nx*(iy+m.ny*iz))
		if math.IsNaN(v) {
			finite = false
			continue
		}
		if v > hi {
			hi = v
		}
		if math.IsInf(v, 0) {
			finite = false
			continue
		}
		if v < lo {
			lo = v
		}
		if a := math.Abs(v); a > amp {
			amp = a
		}
	}
	if !finite {
		return math.Inf(-1), hi, amp
	}
	return lo, hi, amp
}

// fillCube recomputes cube's index entry from scratch over every key,
// writing slot of ct. ubs is caller scratch of len(keys).
func (m *Map) fillCube(ct *coverTile, words, slot, cube int, ubs []float64) {
	cx := cube % m.nx
	cy := (cube / m.nx) % m.ny
	cz := cube / (m.nx * m.ny)
	L, A, U := math.Inf(-1), 0.0, math.Inf(-1)
	amax := 0
	for ki := range m.keys {
		lb, ub, a := m.cubeBounds(ki, cx, cy, cz)
		ubs[ki] = ub
		if a > A {
			A = a
		}
		if ub > U {
			U = ub
		}
		// Strict >, so amax lands on the first key attaining L — the same
		// key the brute scan's tie rule favours.
		if lb > L {
			L, amax = lb, ki
		}
	}
	T := L - A*coverMarginFrac
	mask := ct.mask[slot*words : (slot+1)*words]
	for w := range mask {
		mask[w] = 0
	}
	for ki, ub := range ubs {
		if ub >= T {
			mask[ki>>6] |= 1 << (ki & 63)
		}
	}
	ct.lower[slot] = L
	ct.amp[slot] = A
	ct.upper[slot] = U
	ct.argmax[slot] = uint32(amax)
}

// buildCoverIndex computes a fresh index over every cube, one worker per
// index tile (workers <= 0 means GOMAXPROCS). Deterministic at any worker
// count: every cube depends only on its own corners.
func (m *Map) buildCoverIndex(workers int) *coverIndex {
	ci := &coverIndex{
		words: (len(m.keys) + 63) / 64,
		tiles: make([]*coverTile, m.tilesPerKey),
	}
	parallel.ForEach(m.tilesPerKey, workers, func(t int) error {
		n := m.tileLen(t)
		ct := newCoverTile(n, ci.words)
		ubs := make([]float64, len(m.keys))
		for slot := 0; slot < n; slot++ {
			m.fillCube(ct, ci.words, slot, t*TileCells+slot, ubs)
		}
		ci.tiles[t] = ct
		return nil
	})
	return ci
}

// strongestIndexed answers Strongest at an already-resolved location by
// scanning only the cube's candidates, in ascending key order with the
// same strict > as the brute loop — bit-identical by construction.
func (m *Map) strongestIndexed(ci *coverIndex, l cubeLoc) (string, float64) {
	cube := l.ix0 + m.nx*(l.iy0+m.ny*l.iz0)
	ct := ci.tiles[cube>>tileShift]
	off := (cube & tileMask) * ci.words
	best, bestVal := "", math.Inf(-1)
	for w := 0; w < ci.words; w++ {
		bw := ct.mask[off+w]
		for bw != 0 {
			ki := w<<6 + bits.TrailingZeros64(bw)
			bw &= bw - 1
			if v := m.interpolate(ki, l); v > bestVal {
				best, bestVal = m.keys[ki], v
			}
		}
	}
	return best, bestVal
}

// cellMaxIndexed folds the cube's candidate cell values at flat index idx
// into best (cube index == cell index: the cell is its cube's low corner,
// so the cube's candidate set soundly covers the cell maximum).
func (m *Map) cellMaxIndexed(ci *coverIndex, idx int, best float64) float64 {
	ct := ci.tiles[idx>>tileShift]
	off := (idx & tileMask) * ci.words
	for w := 0; w < ci.words; w++ {
		bw := ct.mask[off+w]
		for bw != 0 {
			ki := w<<6 + bits.TrailingZeros64(bw)
			bw &= bw - 1
			if v := m.val(ki, idx); v > best {
				best = v
			}
		}
	}
	return best
}

// changedCells describes how the derived map child differs from its
// parent: every tile of child not aliased to parent's is compared cell by
// cell on the raw bits, and the keys holding a changed cell (ascending)
// come back with a bitset over cell indices marking every changed cell.
// cells is nil when nothing changed. This is the one change description
// every derivation mends from, so two replicas deriving the same cells
// from the same parent index mend the same cubes.
func changedCells(parent, child *Map) (dirty []int, cells []uint64) {
	for t, ct := range child.tiles {
		pt := parent.tiles[t]
		if &ct[0] == &pt[0] {
			continue
		}
		ki, lo := t/child.tilesPerKey, (t%child.tilesPerKey)*TileCells
		for i, v := range ct {
			if math.Float64bits(v) == math.Float64bits(pt[i]) {
				continue
			}
			if cells == nil {
				cells = make([]uint64, (child.stride+63)/64)
			}
			idx := lo + i
			cells[idx>>6] |= 1 << (idx & 63)
			if len(dirty) == 0 || dirty[len(dirty)-1] != ki {
				dirty = append(dirty, ki)
			}
		}
	}
	return dirty, cells
}

// mendCoverFrom carries parent's coverage index over to the derived map m
// (same geometry and vocabulary, every tile either aliased to parent's or
// m's own), mending around the cells changedCells reports. No-op when the
// parent has no index; shares it outright when no cell changed. Cost
// scales with the changed cells, not the vocabulary: per affected cube
// the dirty keys' bounds are re-derived (8 reads each) and the candidate
// mask re-filtered; untouched index tiles are shared by pointer with the
// parent. The mended entries can be conservatively looser than a
// from-scratch build (the amplitude A only grows on the cheap path),
// which costs candidates, never correctness — rule 9 pins query results.
// The mend is a pure function of the parent index and the two maps'
// cells, so along an unbroken delta chain from one fresh build a
// follower's index equals the leader's byte for byte.
func (m *Map) mendCoverFrom(parent *Map) {
	ci := parent.cover.Load()
	if ci == nil {
		return
	}
	start := time.Now()
	dirty, cells := changedCells(parent, m)
	if len(dirty) == 0 {
		m.cover.Store(ci)
		return
	}
	m.cover.Store(m.mendCover(ci, dirty, cells))
	m.coverMendNs = time.Since(start).Nanoseconds()
}

func (m *Map) mendCover(ci *coverIndex, dirty []int, cells []uint64) *coverIndex {
	// Mark affected cubes: cell (ix, iy, iz) is a corner of the cubes with
	// low-corner coords in {ix-1, ix} × {iy-1, iy} × {iz-1, iz}, clamped
	// at zero (edge cubes re-read their boundary cells via clamping, which
	// the {i-1, i} window already covers).
	affected := make([]uint64, (m.stride+63)/64)
	isDirty := make([]bool, len(m.keys))
	for _, ki := range dirty {
		isDirty[ki] = true
	}
	for w, bw := range cells {
		for bw != 0 {
			idx := w<<6 + bits.TrailingZeros64(bw)
			bw &= bw - 1
			ix := idx % m.nx
			iy := (idx / m.nx) % m.ny
			iz := idx / (m.nx * m.ny)
			x0, y0, z0 := ix-1, iy-1, iz-1
			if x0 < 0 {
				x0 = 0
			}
			if y0 < 0 {
				y0 = 0
			}
			if z0 < 0 {
				z0 = 0
			}
			for az := z0; az <= iz; az++ {
				for ay := y0; ay <= iy; ay++ {
					for ax := x0; ax <= ix; ax++ {
						c := ax + m.nx*(ay+m.ny*az)
						affected[c>>6] |= 1 << (c & 63)
					}
				}
			}
		}
	}
	out := &coverIndex{words: ci.words, tiles: make([]*coverTile, m.tilesPerKey)}
	ubs := make([]float64, len(m.keys))
	for t := range out.tiles {
		lo := t * TileCells
		n := m.tileLen(t)
		touched := false
		for slot := 0; slot < n; slot++ {
			c := lo + slot
			if affected[c>>6]&(1<<(c&63)) != 0 {
				touched = true
				break
			}
		}
		if !touched {
			out.tiles[t] = ci.tiles[t]
			continue
		}
		ct := cloneCoverTile(ci.tiles[t])
		for slot := 0; slot < n; slot++ {
			c := lo + slot
			if affected[c>>6]&(1<<(c&63)) != 0 {
				m.mendCube(ct, ci.words, slot, c, dirty, isDirty, ubs)
				m.coverMended++
			}
		}
		out.tiles[t] = ct
	}
	return out
}

// mendCube updates one cube's entry after the dirty keys' cells changed.
// The cheap path is exact for L (the clean attainer still witnesses the
// old maximum) and conservative for A and U (they only grow: A widening
// the margin, U staying above every clean key's unchanged bound); it
// falls back to fillCube when the old attainer is dirty or
// the threshold would loosen, both of which would otherwise let a stale
// exclusion turn unsound.
func (m *Map) mendCube(ct *coverTile, words, slot, cube int, dirty []int, isDirty []bool, ubs []float64) {
	oldAmax := int(ct.argmax[slot])
	if isDirty[oldAmax] {
		m.fillCube(ct, words, slot, cube, ubs)
		return
	}
	cx := cube % m.nx
	cy := (cube / m.nx) % m.ny
	cz := cube / (m.nx * m.ny)
	oldL, oldA := ct.lower[slot], ct.amp[slot]
	oldT := oldL - oldA*coverMarginFrac
	L, A, U, amax := oldL, oldA, ct.upper[slot], oldAmax
	for _, ki := range dirty {
		lb, ub, a := m.cubeBounds(ki, cx, cy, cz)
		ubs[ki] = ub
		if a > A {
			A = a
		}
		if ub > U {
			U = ub
		}
		if lb > L {
			L, amax = lb, ki
		} else if lb == L && ki < amax {
			// Keep amax on the first attaining key, matching fillCube.
			amax = ki
		}
	}
	T := L - A*coverMarginFrac
	if T < oldT {
		// The margin grew faster than the bound: exclusions made against
		// the old, tighter threshold may no longer be justified and the
		// per-key upper bounds needed to re-admit keys aren't stored.
		m.fillCube(ct, words, slot, cube, ubs)
		return
	}
	mask := ct.mask[slot*words : (slot+1)*words]
	for _, ki := range dirty {
		if ubs[ki] >= T {
			mask[ki>>6] |= 1 << (ki & 63)
		} else {
			mask[ki>>6] &^= 1 << (ki & 63)
		}
	}
	if T > oldT {
		// The threshold tightened: re-test surviving clean candidates so
		// looseness doesn't accumulate across a long mend chain. Clean
		// non-candidates stay excluded (their bound is below the old,
		// looser threshold already).
		for w := 0; w < words; w++ {
			bw := mask[w]
			for bw != 0 {
				ki := w<<6 + bits.TrailingZeros64(bw)
				bw &= bw - 1
				if isDirty[ki] {
					continue
				}
				if _, ub, _ := m.cubeBounds(ki, cx, cy, cz); ub < T {
					mask[ki>>6] &^= 1 << (ki & 63)
				}
			}
		}
	}
	ct.lower[slot] = L
	ct.amp[slot] = A
	ct.upper[slot] = U
	ct.argmax[slot] = uint32(amax)
}

// mergeCover reassembles a coverage index for a merged map from its
// parts' indexes without touching any cell twice: per cube the merged
// bound is the max of the part bounds, and each part's candidates are
// re-tested against the merged threshold. partOf[gi] and localOf[gi]
// give global key gi's owning part and its index there. Returns nil
// (no index) when any part lacks one.
func mergeCover(m *Map, parts []*Map, partOf, localOf []int) *coverIndex {
	cis := make([]*coverIndex, len(parts))
	for pi, p := range parts {
		if cis[pi] = p.cover.Load(); cis[pi] == nil {
			return nil
		}
	}
	l2g := make([][]int, len(parts))
	for pi, p := range parts {
		l2g[pi] = make([]int, len(p.keys))
	}
	for gi := range m.keys {
		l2g[partOf[gi]][localOf[gi]] = gi
	}
	words := (len(m.keys) + 63) / 64
	ci := &coverIndex{words: words, tiles: make([]*coverTile, m.tilesPerKey)}
	for t := 0; t < m.tilesPerKey; t++ {
		n := m.tileLen(t)
		ct := newCoverTile(n, words)
		for slot := 0; slot < n; slot++ {
			cube := t*TileCells + slot
			cx := cube % m.nx
			cy := (cube / m.nx) % m.ny
			cz := cube / (m.nx * m.ny)
			L, A, U := math.Inf(-1), 0.0, math.Inf(-1)
			amax := 0
			for pi := range parts {
				pt := cis[pi].tiles[t]
				if pl := pt.lower[slot]; pl > L {
					L = pl
					amax = l2g[pi][int(pt.argmax[slot])]
				}
				if pa := pt.amp[slot]; pa > A {
					A = pa
				}
				if pu := pt.upper[slot]; pu > U {
					U = pu
				}
			}
			T := L - A*coverMarginFrac
			mask := ct.mask[slot*words : (slot+1)*words]
			for pi, p := range parts {
				pt := cis[pi].tiles[t]
				pw := cis[pi].words
				pT := pt.lower[slot] - pt.amp[slot]*coverMarginFrac
				if T >= pT {
					// The merged threshold is at least as tight as the
					// part's, so the part's exclusions stand; its
					// candidates are a superset of the merged ones over
					// its keys — re-test each against T.
					pmask := pt.mask[slot*pw : (slot+1)*pw]
					for w := 0; w < pw; w++ {
						bw := pmask[w]
						for bw != 0 {
							lk := w<<6 + bits.TrailingZeros64(bw)
							bw &= bw - 1
							gi := l2g[pi][lk]
							if _, ub, _ := m.cubeBounds(gi, cx, cy, cz); ub >= T {
								mask[gi>>6] |= 1 << (gi & 63)
							}
						}
					}
				} else {
					// A merged amplitude from another part widened the
					// margin below this part's threshold: its exclusions
					// can't be trusted, so re-test every key it owns.
					for lk := range p.keys {
						gi := l2g[pi][lk]
						if _, ub, _ := m.cubeBounds(gi, cx, cy, cz); ub >= T {
							mask[gi>>6] |= 1 << (gi & 63)
						}
					}
				}
			}
			ct.lower[slot] = L
			ct.amp[slot] = A
			ct.upper[slot] = U
			ct.argmax[slot] = uint32(amax)
		}
		ci.tiles[t] = ct
	}
	return ci
}
