package rem

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/geom"
)

// This file is the batched query side of the Map: AtBatch/AtBatchInto
// resolve the key lookup once and stream cells for a whole run of points,
// and StrongestBatch walks the tiles key-outer so every key's cells are
// visited with cache locality. Both are bit-identical to their point-wise
// counterparts (At / Strongest per point) — the batch paths change only
// where the per-query overhead is paid, never a single output bit, which
// is what lets callers (the store fronts, examples, benchmarks) switch
// freely between them.

// AtBatch returns the trilinearly interpolated prediction for the key at
// every point, clamping each point into the volume. Element i of the
// result corresponds to pts[i] and is bit-identical to At(key, pts[i]);
// the key is resolved once for the whole batch.
func (m *Map) AtBatch(key string, pts []geom.Vec3) ([]float64, error) {
	out := make([]float64, len(pts))
	if err := m.AtBatchInto(out, key, pts); err != nil {
		return nil, err
	}
	return out, nil
}

// AtBatchInto is AtBatch into a caller-owned buffer (no allocation):
// dst[i] receives the prediction at pts[i]. len(dst) must equal
// len(pts).
func (m *Map) AtBatchInto(dst []float64, key string, pts []geom.Vec3) error {
	if len(dst) != len(pts) {
		return fmt.Errorf("rem: batch destination holds %d values for %d points", len(dst), len(pts))
	}
	ki := m.KeyIndex(key)
	if ki < 0 {
		return fmt.Errorf("%w %q", ErrUnknownKey, key)
	}
	for i, p := range pts {
		dst[i] = m.at(ki, p)
	}
	return nil
}

// StrongestBatch returns, for every point, the key with the highest
// predicted RSS there and that value — element i is exactly what
// Strongest(pts[i]) returns (same strict-> comparison in vocabulary
// order, so ties resolve to the earliest key either way). The iteration
// is key-outer: each key's tiles are streamed once across the whole
// batch instead of once per point.
func (m *Map) StrongestBatch(pts []geom.Vec3) ([]string, []float64) {
	keys := make([]string, len(pts))
	vals := make([]float64, len(pts))
	m.strongestBatchInto(keys, vals, pts)
	return keys, vals
}

// StrongestBatchInto is StrongestBatch into caller-owned buffers.
func (m *Map) StrongestBatchInto(keys []string, vals []float64, pts []geom.Vec3) error {
	if len(keys) != len(pts) || len(vals) != len(pts) {
		return fmt.Errorf("rem: batch destinations hold %d keys / %d values for %d points", len(keys), len(vals), len(pts))
	}
	m.strongestBatchInto(keys, vals, pts)
	return nil
}

func (m *Map) strongestBatchInto(keys []string, vals []float64, pts []geom.Vec3) {
	ci := m.cover.Load()
	if ci == nil {
		m.strongestBatchBruteInto(keys, vals, pts)
		return
	}
	// Point-outer with the index: each point resolves its cube once and
	// interpolates only that cube's candidates, in vocabulary order with
	// the same strict > — so the winners match the brute path bit for bit
	// (rule 9) while the work per point drops from keys to candidates.
	for i, p := range pts {
		keys[i], vals[i] = m.strongestIndexed(ci, m.locate(p))
	}
}

// StrongestBatchBruteInto is the unindexed key-outer scan behind
// StrongestBatchInto — the pre-index code path, kept callable as the
// opt-out and as the oracle the coverage index is quickchecked against.
func (m *Map) StrongestBatchBruteInto(keys []string, vals []float64, pts []geom.Vec3) error {
	if len(keys) != len(pts) || len(vals) != len(pts) {
		return fmt.Errorf("rem: batch destinations hold %d keys / %d values for %d points", len(keys), len(vals), len(pts))
	}
	m.strongestBatchBruteInto(keys, vals, pts)
	return nil
}

func (m *Map) strongestBatchBruteInto(keys []string, vals []float64, pts []geom.Vec3) {
	for i := range vals {
		keys[i] = ""
		vals[i] = math.Inf(-1)
	}
	// Key-outer, point-inner: the per-point winner update uses the same
	// strict > that Strongest's key loop uses, and keys are visited in
	// the same vocabulary order, so the selected (key, value) pairs are
	// identical to the point-wise path.
	for ki, key := range m.keys {
		for i, p := range pts {
			if v := m.at(ki, p); v > vals[i] {
				keys[i], vals[i] = key, v
			}
		}
	}
}

// acrossScratch is StrongestAcrossInto's pooled working set: each part's
// coverage index, loaded once per call. Pooling keeps the sharded
// serving path allocation-free for any part count.
type acrossScratch struct{ cis []*coverIndex }

var acrossPool = sync.Pool{New: func() any { return new(acrossScratch) }}

// StrongestAcrossInto answers Strongest for every point over maps that
// partition one vocabulary — the sharded best-server path. parts must
// share one geometry, and global[pi][k] is the vocabulary index of
// parts[pi].Keys()[k]. keys[i] and vals[i] receive exactly what the
// merged map's Strongest(pts[i]) returns (ties go to the lowest
// vocabulary index), and from[i] the winning part's index, or -1 when no
// key beats -Inf (keys[i] is then "" and vals[i] -Inf).
//
// Each point is located once. The indexed parts' bounds give the global
// threshold T = max L - max A*coverMarginFrac; an indexed part whose U
// is below T cannot win or tie anywhere in the cube and is skipped
// outright, and the others scan only their cube candidates. Once a
// winner v is known, v - max A*coverMarginFrac tightens T by the same
// argument. Unindexed parts are scanned in full and never skipped. Results are bit-identical to the
// brute scan of the merged map (rules 8 and 9), whatever the partition.
func StrongestAcrossInto(parts []*Map, global [][]int, keys []string, vals []float64, from []int, pts []geom.Vec3) error {
	if len(keys) != len(pts) || len(vals) != len(pts) || len(from) != len(pts) {
		return fmt.Errorf("rem: batch destinations hold %d keys / %d values / %d winning parts for %d points", len(keys), len(vals), len(from), len(pts))
	}
	if len(parts) == 0 {
		return fmt.Errorf("rem: strongest needs at least one part")
	}
	if len(global) != len(parts) {
		return fmt.Errorf("rem: %d global index tables for %d parts", len(global), len(parts))
	}
	if err := checkParts("strongest", parts); err != nil {
		return err
	}
	for pi, p := range parts {
		if len(global[pi]) != len(p.keys) {
			return fmt.Errorf("rem: strongest part %d holds %d keys, global table lists %d", pi, len(p.keys), len(global[pi]))
		}
	}
	sc := acrossPool.Get().(*acrossScratch)
	defer acrossPool.Put(sc)
	cis := sc.cis[:0]
	for _, p := range parts {
		cis = append(cis, p.cover.Load())
	}
	sc.cis = cis
	ref := parts[0]
	for i, pt := range pts {
		l := ref.locate(pt)
		cube := l.ix0 + ref.nx*(l.iy0+ref.ny*l.iz0)
		t, slot := cube>>tileShift, cube&tileMask
		L, A := math.Inf(-1), 0.0
		first := 0
		for pi, ci := range cis {
			if ci == nil {
				continue
			}
			ct := ci.tiles[t]
			if ct.lower[slot] > L {
				L = ct.lower[slot]
				first = pi
			}
			if ct.amp[slot] > A {
				A = ct.amp[slot]
			}
		}
		margin := A * coverMarginFrac
		T := L - margin
		w := winner{val: math.Inf(-1), gi: -1, part: -1}
		// Start at the part holding the largest L: its winner usually
		// lifts the skip threshold above T for the parts after it.
		for n := range parts {
			pi := first + n
			if pi >= len(parts) {
				pi -= len(parts)
			}
			if cut := w.val - margin; cut > T {
				T = cut
			}
			m, g, ci := parts[pi], global[pi], cis[pi]
			if ci == nil {
				for ki := range m.keys {
					w.offer(m.interpolate(ki, l), g[ki], pi, ki)
				}
				continue
			}
			ct := ci.tiles[t]
			if ct.upper[slot] < T {
				continue
			}
			off := slot * ci.words
			for wd := 0; wd < ci.words; wd++ {
				bw := ct.mask[off+wd]
				for bw != 0 {
					ki := wd<<6 + bits.TrailingZeros64(bw)
					bw &= bw - 1
					w.offer(m.interpolate(ki, l), g[ki], pi, ki)
				}
			}
		}
		keys[i], vals[i], from[i] = "", w.val, w.part
		if w.part >= 0 {
			keys[i] = parts[w.part].keys[w.ki]
		}
	}
	clear(cis) // drop the index references while pooled
	return nil
}

// winner is StrongestAcrossInto's running best: value, vocabulary index,
// owning part and the part-local key index.
type winner struct {
	val          float64
	gi, part, ki int
}

// offer admits a candidate under the brute scan's order: a strictly
// higher value wins, an equal one only with a lower vocabulary index, so
// NaN and -Inf never win and scan order across parts does not matter.
func (w *winner) offer(v float64, gi, part, ki int) {
	if v > w.val || (v == w.val && gi < w.gi) {
		w.val, w.gi, w.part, w.ki = v, gi, part, ki
	}
}
