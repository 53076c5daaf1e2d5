package rem

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/ml"
	"repro/internal/parallel"
)

// This file implements the incremental-snapshot side of the tiled Map:
// RebuildKeys derives a new immutable generation that re-rasterises only a
// dirty key set and shares every other tile with its parent, plus the
// comparison helpers (Equal, SharedTiles) the determinism contract's rule 7
// tests are written against.

// Version returns the rebuild generation: 1 for a fresh build, parent+1
// for every RebuildKeys derivation.
func (m *Map) Version() uint64 { return m.version }

// NumTiles returns the total tile count (keys × tiles per key).
func (m *Map) NumTiles() int { return len(m.tiles) }

// TilesPerKey returns how many tiles hold one key's cells.
func (m *Map) TilesPerKey() int { return m.tilesPerKey }

// RebuildKeys derives a new Map in which every key listed in dirty is
// re-rasterised through predict while every other key's tiles are shared
// with m (copy-on-write): memory cost and predictor work are proportional
// to the dirty set, not the map. Duplicate dirty entries are collapsed;
// an empty dirty set yields a snapshot that shares every tile; a set
// containing ml.DirtyAll — what global estimators return from Observe —
// rebuilds every key, so Observe results wire straight through. The
// receiver is not modified. The derived map's version is m.Version()+1.
//
// Determinism contract rule 7: if predict answers from a model fitted on
// the cumulative dataset and dirty covers every key whose predictions can
// have changed, the result is byte-identical to a from-scratch
// BuildMapBatch against that model, for any worker count.
func (m *Map) RebuildKeys(dirty []int, predict BatchPredictFunc, opts BuildOptions) (*Map, error) {
	if predict == nil {
		return nil, fmt.Errorf("rem: rebuild needs a predictor")
	}
	return m.RebuildKeysRange(dirty, predict.ranged(), opts)
}

// RebuildKeysRange is RebuildKeys over the ranged predictor contract.
func (m *Map) RebuildKeysRange(dirty []int, predict RangePredictFunc, opts BuildOptions) (*Map, error) {
	if predict == nil {
		return nil, fmt.Errorf("rem: rebuild needs a predictor")
	}
	seen := make(map[int]bool, len(dirty))
	ks := make([]int, 0, len(dirty))
	for _, k := range dirty {
		if k == ml.DirtyAll {
			ks = ks[:0]
			for i := range m.keys {
				ks = append(ks, i)
			}
			break
		}
		if k < 0 || k >= len(m.keys) {
			return nil, fmt.Errorf("rem: dirty key %d outside [0, %d)", k, len(m.keys))
		}
		if !seen[k] {
			seen[k] = true
			ks = append(ks, k)
		}
	}
	sort.Ints(ks)

	child := m.derive()
	for _, k := range ks {
		child.allocKey(k)
	}
	// Same chunking discipline as buildMap, over the dirty keys only:
	// chunks never span keys, and each chunk writes a disjoint cell range.
	fill := batchFill(predict)
	stride := m.stride
	err := parallel.ForEachChunk(len(ks)*stride, opts.Workers, func(lo, hi int) error {
		for lo < hi {
			j := lo / stride
			end := (j + 1) * stride
			if end > hi {
				end = hi
			}
			if err := fill(child, ks[j], lo-j*stride, end-j*stride); err != nil {
				return err
			}
			lo = end
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Carry the coverage index forward around the cells whose bits changed
	// (a re-predicted key often reproduces most of its cells bit for bit).
	child.mendCoverFrom(m)
	return child, nil
}

// derive returns the next generation's shell: m's geometry and
// vocabulary, every tile shared with m, version m.Version()+1.
func (m *Map) derive() *Map {
	return &Map{
		volume: m.volume,
		nx:     m.nx, ny: m.ny, nz: m.nz,
		stride:      m.stride,
		tilesPerKey: m.tilesPerKey,
		keys:        m.keys, // immutable after build; shared across generations
		tiles:       append([][]float64(nil), m.tiles...),
		version:     m.version + 1,
	}
}

// WithCells derives a new Map in which key ki's cell cells[i] holds
// vals[i] and everything else is shared with m: the cell-masked
// counterpart of RebuildKeys, for callers that know which cells a change
// can reach. Only tiles in which some cell's bits change are cloned, so
// a write that reproduces every value shares every tile, and the
// coverage index is mended around the changed cells alone. The receiver
// is not modified; the derived map's version is m.Version()+1.
func (m *Map) WithCells(ki int, cells []int, vals []float64) (*Map, error) {
	if ki < 0 || ki >= len(m.keys) {
		return nil, fmt.Errorf("rem: key %d outside [0, %d)", ki, len(m.keys))
	}
	if len(vals) != len(cells) {
		return nil, fmt.Errorf("rem: %d cells but %d values", len(cells), len(vals))
	}
	child := m.derive()
	for i, idx := range cells {
		if idx < 0 || idx >= m.stride {
			return nil, fmt.Errorf("rem: cell %d outside [0, %d)", idx, m.stride)
		}
		t := ki*m.tilesPerKey + idx>>tileShift
		if math.Float64bits(child.tiles[t][idx&tileMask]) == math.Float64bits(vals[i]) {
			continue
		}
		if &child.tiles[t][0] == &m.tiles[t][0] {
			child.tiles[t] = append([]float64(nil), m.tiles[t]...)
		}
		child.tiles[t][idx&tileMask] = vals[i]
	}
	child.mendCoverFrom(m)
	return child, nil
}

// Equal reports whether the two maps have identical geometry, keys and
// bit-identical cell values (NaNs compare by payload, not IEEE equality —
// this is the byte-identity the determinism contract promises).
func (m *Map) Equal(o *Map) bool {
	if o == nil {
		return false
	}
	if m.nx != o.nx || m.ny != o.ny || m.nz != o.nz {
		return false
	}
	mv := [6]float64{m.volume.Min.X, m.volume.Min.Y, m.volume.Min.Z, m.volume.Max.X, m.volume.Max.Y, m.volume.Max.Z}
	ov := [6]float64{o.volume.Min.X, o.volume.Min.Y, o.volume.Min.Z, o.volume.Max.X, o.volume.Max.Y, o.volume.Max.Z}
	for i := range mv {
		if math.Float64bits(mv[i]) != math.Float64bits(ov[i]) {
			return false
		}
	}
	if len(m.keys) != len(o.keys) {
		return false
	}
	for i, k := range m.keys {
		if o.keys[i] != k {
			return false
		}
	}
	for i, t := range m.tiles {
		ot := o.tiles[i]
		if len(t) != len(ot) {
			return false
		}
		for j, v := range t {
			if math.Float64bits(v) != math.Float64bits(ot[j]) {
				return false
			}
		}
	}
	return true
}

// SharedTiles counts the tiles whose backing storage is aliased between
// the two maps — the copy-on-write sharing a RebuildKeys chain produces.
func (m *Map) SharedTiles(o *Map) int {
	if o == nil || len(m.tiles) != len(o.tiles) {
		return 0
	}
	n := 0
	for i, t := range m.tiles {
		ot := o.tiles[i]
		if len(t) > 0 && len(ot) > 0 && &t[0] == &ot[0] {
			n++
		}
	}
	return n
}
