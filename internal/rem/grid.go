package rem

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/parallel"
)

// ErrUnknownKey is the sentinel wrapped by every key-addressed query
// against a key outside the map's vocabulary. Callers that route errors
// by kind (the HTTP front maps it to 404, everything else to 5xx) match
// it with errors.Is; the wrapping message still names the offending key.
var ErrUnknownKey = errors.New("rem: unknown key")

// PredictFunc evaluates a trained model at a position for a given key
// (MAC). The core pipeline adapts its estimators to this signature. It
// must be safe for concurrent use: BuildMap fans cells out across a
// worker pool.
type PredictFunc func(pos geom.Vec3, keyIndex int) (float64, error)

// BatchPredictFunc evaluates a trained model at a run of positions for a
// given key, letting estimators amortise per-call overhead (buffer reuse,
// feature-vector assembly) over the whole batch. Element i of the result
// corresponds to centers[i]. Like PredictFunc it must be safe for
// concurrent use.
type BatchPredictFunc func(centers []geom.Vec3, keyIndex int) ([]float64, error)

// RangePredictFunc is BatchPredictFunc told where its run lies:
// centers[i] is the centre of flat cell lo+i of key keyIndex (CellCenter
// of that index). Callers that keep per-cell state beside the map — the
// ingest loop's neighbour bounds — address it through lo.
type RangePredictFunc func(keyIndex, lo int, centers []geom.Vec3) ([]float64, error)

// ranged lifts a BatchPredictFunc to the ranged contract.
func (predict BatchPredictFunc) ranged() RangePredictFunc {
	return func(keyIndex, _ int, centers []geom.Vec3) ([]float64, error) {
		return predict(centers, keyIndex)
	}
}

// BuildOptions tunes map construction.
type BuildOptions struct {
	// Workers bounds concurrent cell evaluation; ≤ 0 means GOMAXPROCS.
	// Any worker count yields byte-identical maps: every cell's value
	// depends only on its own centre and key.
	Workers int
}

// TileCells is the fixed tile capacity in cells. Each key's cell run is
// cut into tiles of this size (the last tile of a key may be shorter).
// Tiles are the unit of copy-on-write sharing between snapshot
// generations and the unit of the binary codec's tile table. Power of
// two, so the query path resolves a cell with a shift and a mask.
const TileCells = 256

const (
	tileShift = 8
	tileMask  = TileCells - 1
)

// Map is a fine-grained 3-D REM: a regular grid of predicted signal
// strengths per beacon source over a volume. A built Map is immutable and
// safe for concurrent queries.
//
// Storage is tiled: each key's nx·ny·nz cell run is split into fixed-size
// tiles (TileCells), laid out per key in cell order. RebuildKeys derives a
// new Map that shares every tile of untouched keys with its parent, so an
// incremental snapshot costs memory proportional to the dirty key set.
type Map struct {
	volume     geom.Cuboid
	nx, ny, nz int
	// stride is the per-key cell count (nx·ny·nz), hoisted at build time
	// so the per-query index math never recomputes it.
	stride int
	// tilesPerKey is ⌈stride / TileCells⌉, hoisted for the same reason.
	tilesPerKey int
	keys        []string
	// tiles[k*tilesPerKey + t][c] is the prediction for key k at flat cell
	// index t·TileCells + c.
	tiles [][]float64
	// version counts rebuild generations: 1 for a fresh build, parent+1
	// for every RebuildKeys derivation.
	version uint64
	// cover is the optional materialised coverage index (coverindex.go)
	// behind Strongest/CoverageAt/DarkRegions. nil means those queries
	// brute-scan every key. Loaded atomically so an index can be attached
	// (or dropped) while queries are in flight; it never changes a query
	// result, only its cost, and is ignored by the codec and by Equal.
	cover atomic.Pointer[coverIndex]
	// coverMended / coverMendNs record the last index mend applied while
	// deriving this map (WithCells, RebuildKeys, ApplyDelta): how many
	// cubes were re-filtered and how long the mend took. Build provenance
	// for the observability layer — written before the map becomes
	// visible, zero for from-scratch builds, ignored by the codec and by
	// Equal.
	coverMended int
	coverMendNs int64
}

// CoverMendStats returns the coverage-index mend provenance of this
// map's derivation: the number of cubes the mend re-filtered and the
// mend duration. Both are zero for maps whose index was built from
// scratch (or never built).
func (m *Map) CoverMendStats() (mendedCubes int, d time.Duration) {
	return m.coverMended, time.Duration(m.coverMendNs)
}

// cells returns the per-key cell count (the hoisted stride).
func (m *Map) cells() int { return m.stride }

// val returns the stored prediction for key ki at flat cell index idx.
func (m *Map) val(ki, idx int) float64 {
	return m.tiles[ki*m.tilesPerKey+idx>>tileShift][idx&tileMask]
}

// setCell stores the prediction for key ki at flat cell index idx.
func (m *Map) setCell(ki, idx int, v float64) {
	m.tiles[ki*m.tilesPerKey+idx>>tileShift][idx&tileMask] = v
}

// copyRange scatters vals into the tiles of key ki starting at flat cell
// index lo, crossing tile boundaries as needed.
func (m *Map) copyRange(ki, lo int, vals []float64) {
	for len(vals) > 0 {
		tile := m.tiles[ki*m.tilesPerKey+lo>>tileShift]
		n := copy(tile[lo&tileMask:], vals)
		vals = vals[n:]
		lo += n
	}
}

// tileLen returns the cell count of per-key tile t (the trailing tile of
// a key may be shorter than TileCells).
func (m *Map) tileLen(t int) int {
	if n := m.stride - t*TileCells; n < TileCells {
		return n
	}
	return TileCells
}

// allocKey gives key ki fresh tile storage, detaching it from any parent
// snapshot the tile headers were copied from.
func (m *Map) allocKey(ki int) {
	for t := 0; t < m.tilesPerKey; t++ {
		m.tiles[ki*m.tilesPerKey+t] = make([]float64, m.tileLen(t))
	}
}

// newShell validates the grid and returns a Map with dimensions, keys and
// tile geometry set but no tile storage allocated.
func newShell(volume geom.Cuboid, nx, ny, nz int, keys []string) (*Map, error) {
	if nx < 1 || ny < 1 || nz < 1 {
		return nil, fmt.Errorf("rem: grid resolution %dx%dx%d invalid", nx, ny, nz)
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("rem: map needs at least one key")
	}
	stride := nx * ny * nz
	m := &Map{
		volume: volume,
		nx:     nx, ny: ny, nz: nz,
		stride:      stride,
		tilesPerKey: (stride + TileCells - 1) / TileCells,
		keys:        append([]string(nil), keys...),
		version:     1,
	}
	m.tiles = make([][]float64, len(keys)*m.tilesPerKey)
	return m, nil
}

// BuildMap evaluates the model over an nx × ny × nz grid of cell centres
// with default options (one worker per CPU).
func BuildMap(volume geom.Cuboid, nx, ny, nz int, keys []string, predict PredictFunc) (*Map, error) {
	return BuildMapOpts(volume, nx, ny, nz, keys, predict, BuildOptions{})
}

// BuildMapOpts evaluates the model over the grid on a bounded worker
// pool. The first predictor error cancels outstanding work.
func BuildMapOpts(volume geom.Cuboid, nx, ny, nz int, keys []string, predict PredictFunc, opts BuildOptions) (*Map, error) {
	if predict == nil {
		return nil, fmt.Errorf("rem: map needs a predictor")
	}
	return buildMap(volume, nx, ny, nz, keys, opts, func(m *Map, ki, lo, hi int) error {
		for idx := lo; idx < hi; idx++ {
			p := m.CellCenter(idx)
			v, err := predict(p, ki)
			if err != nil {
				return fmt.Errorf("rem: predicting %s at %v: %w", m.keys[ki], p, err)
			}
			m.setCell(ki, idx, v)
		}
		return nil
	})
}

// BuildMapBatch is BuildMapOpts over the batched predictor contract: each
// worker hands its whole contiguous run of cell centres to the model in
// one call.
func BuildMapBatch(volume geom.Cuboid, nx, ny, nz int, keys []string, predict BatchPredictFunc, opts BuildOptions) (*Map, error) {
	if predict == nil {
		return nil, fmt.Errorf("rem: map needs a predictor")
	}
	return BuildMapRange(volume, nx, ny, nz, keys, predict.ranged(), opts)
}

// BuildMapRange is BuildMapBatch over the ranged predictor contract: the
// same runs, the same map, with each run's first cell index passed along.
func BuildMapRange(volume geom.Cuboid, nx, ny, nz int, keys []string, predict RangePredictFunc, opts BuildOptions) (*Map, error) {
	if predict == nil {
		return nil, fmt.Errorf("rem: map needs a predictor")
	}
	return buildMap(volume, nx, ny, nz, keys, opts, batchFill(predict))
}

// batchFill adapts a ranged predictor to the tile-at-a-time fill
// contract shared by from-scratch builds and incremental rebuilds.
func batchFill(predict RangePredictFunc) func(m *Map, ki, lo, hi int) error {
	return func(m *Map, ki, lo, hi int) error {
		centers := make([]geom.Vec3, hi-lo)
		for idx := lo; idx < hi; idx++ {
			centers[idx-lo] = m.CellCenter(idx)
		}
		vals, err := predict(ki, lo, centers)
		if err != nil {
			return fmt.Errorf("rem: predicting %s over %d cells: %w", m.keys[ki], len(centers), err)
		}
		if len(vals) != len(centers) {
			return fmt.Errorf("rem: batch predictor returned %d values for %d cells", len(vals), len(centers))
		}
		m.copyRange(ki, lo, vals)
		return nil
	}
}

// buildMap validates the grid, allocates every key's tiles, then fans
// per-key contiguous cell chunks out across the pool; fill writes values
// for cells [lo, hi) of key ki.
func buildMap(volume geom.Cuboid, nx, ny, nz int, keys []string, opts BuildOptions, fill func(m *Map, ki, lo, hi int) error) (*Map, error) {
	m, err := newShell(volume, nx, ny, nz, keys)
	if err != nil {
		return nil, err
	}
	for ki := range m.keys {
		m.allocKey(ki)
	}
	// Chunks never span keys, so batch predictors see a single key per
	// call; the flat (key, cell) space is chunked for load balance.
	cells := m.stride
	err = parallel.ForEachChunk(len(keys)*cells, opts.Workers, func(lo, hi int) error {
		for lo < hi {
			ki := lo / cells
			end := (ki + 1) * cells
			if end > hi {
				end = hi
			}
			if err := fill(m, ki, lo-ki*cells, end-ki*cells); err != nil {
				return err
			}
			lo = end
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Volume returns the mapped volume.
func (m *Map) Volume() geom.Cuboid { return m.volume }

// Keys returns the mapped beacon sources.
func (m *Map) Keys() []string { return m.keys }

// Resolution returns the grid dimensions.
func (m *Map) Resolution() (nx, ny, nz int) { return m.nx, m.ny, m.nz }

// CellCenter returns the centre of the cell at flat index idx (x fastest,
// then y, then z) — the position every rasteriser predicts that cell at.
func (m *Map) CellCenter(idx int) geom.Vec3 {
	return m.cellCenter(idx%m.nx, (idx/m.nx)%m.ny, idx/(m.nx*m.ny))
}

// cellCenter returns the centre of cell (ix, iy, iz).
func (m *Map) cellCenter(ix, iy, iz int) geom.Vec3 {
	s := m.volume.Size()
	return geom.V(
		m.volume.Min.X+(float64(ix)+0.5)*s.X/float64(m.nx),
		m.volume.Min.Y+(float64(iy)+0.5)*s.Y/float64(m.ny),
		m.volume.Min.Z+(float64(iz)+0.5)*s.Z/float64(m.nz),
	)
}

// KeyIndex returns the index of a key, or -1.
func (m *Map) KeyIndex(key string) int {
	for i, k := range m.keys {
		if k == key {
			return i
		}
	}
	return -1
}

// At returns the trilinearly interpolated prediction for the key at p,
// clamping p into the volume.
func (m *Map) At(key string, p geom.Vec3) (float64, error) {
	ki := m.KeyIndex(key)
	if ki < 0 {
		return 0, fmt.Errorf("%w %q", ErrUnknownKey, key)
	}
	return m.at(ki, p), nil
}

func (m *Map) at(ki int, p geom.Vec3) float64 {
	return m.interpolate(ki, m.locate(p))
}

// cubeLoc is a resolved query position: the interpolation cube's low
// corner (cell indices) plus the fractional offsets along each axis.
// locate depends only on the point, so one resolution can be shared by
// any number of per-key interpolate calls at the same point.
type cubeLoc struct {
	ix0, iy0, iz0 int
	tx, ty, tz    float64
}

// locate clamps p into the volume and resolves its interpolation cube.
func (m *Map) locate(p geom.Vec3) cubeLoc {
	p = m.volume.Clamp(p)
	s := m.volume.Size()
	// Continuous cell coordinates of the query relative to cell centres.
	fx := (p.X-m.volume.Min.X)/s.X*float64(m.nx) - 0.5
	fy := (p.Y-m.volume.Min.Y)/s.Y*float64(m.ny) - 0.5
	fz := (p.Z-m.volume.Min.Z)/s.Z*float64(m.nz) - 0.5
	var l cubeLoc
	l.ix0, l.tx = splitIndex(fx, m.nx)
	l.iy0, l.ty = splitIndex(fy, m.ny)
	l.iz0, l.tz = splitIndex(fz, m.nz)
	return l
}

// interpolate evaluates key ki at a resolved location: the 8-corner
// trilinear sum over the cube, clamped at the grid edge.
func (m *Map) interpolate(ki int, l cubeLoc) float64 {
	val := 0.0
	for dz := 0; dz <= 1; dz++ {
		for dy := 0; dy <= 1; dy++ {
			for dx := 0; dx <= 1; dx++ {
				w := lerpW(l.tx, dx) * lerpW(l.ty, dy) * lerpW(l.tz, dz)
				ix := clampIdx(l.ix0+dx, m.nx)
				iy := clampIdx(l.iy0+dy, m.ny)
				iz := clampIdx(l.iz0+dz, m.nz)
				val += w * m.val(ki, ix+m.nx*(iy+m.ny*iz))
			}
		}
	}
	return val
}

func splitIndex(f float64, n int) (int, float64) {
	i := int(math.Floor(f))
	t := f - float64(i)
	if i < 0 {
		return 0, 0
	}
	if i >= n-1 {
		return n - 1, 0
	}
	return i, t
}

func lerpW(t float64, d int) float64 {
	if d == 0 {
		return 1 - t
	}
	return t
}

func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// Strongest returns the key with the highest predicted RSS at p and that
// value. With a coverage index attached (BuildCoverIndex) only the
// point's cube candidates are interpolated; the result is bit-identical
// to the brute scan either way (rule 9).
func (m *Map) Strongest(p geom.Vec3) (string, float64) {
	if ci := m.cover.Load(); ci != nil {
		return m.strongestIndexed(ci, m.locate(p))
	}
	return m.StrongestBrute(p)
}

// StrongestBrute is the unindexed O(keys) scan behind Strongest — the
// pre-index code path, kept callable as the opt-out and as the test
// oracle the coverage index is quickchecked against.
func (m *Map) StrongestBrute(p geom.Vec3) (string, float64) {
	best, bestVal := "", math.Inf(-1)
	for ki, key := range m.keys {
		if v := m.at(ki, p); v > bestVal {
			best, bestVal = key, v
		}
	}
	return best, bestVal
}

// CoverageAt returns the best available RSS at p across all keys.
func (m *Map) CoverageAt(p geom.Vec3) float64 {
	_, v := m.Strongest(p)
	return v
}

// DarkCell is one grid cell whose best coverage falls below a threshold —
// the "dark connectivity regions" the paper's intro proposes REMs to find.
type DarkCell struct {
	// Center is the cell centre.
	Center geom.Vec3
	// BestRSS is the strongest predicted signal there.
	BestRSS float64
}

// DarkRegions lists all cells whose best coverage is below thresholdDBm,
// worst first. With a coverage index attached, each cell's max scans only
// its cube's candidates: the cell is the cube's own low corner, so the
// cube candidate set soundly covers the cell maximum (a NaN cell value
// never wins the strict > either way).
func (m *Map) DarkRegions(thresholdDBm float64) []DarkCell {
	ci := m.cover.Load()
	if ci == nil {
		return m.DarkRegionsBrute(thresholdDBm)
	}
	var out []DarkCell
	for iz := 0; iz < m.nz; iz++ {
		for iy := 0; iy < m.ny; iy++ {
			for ix := 0; ix < m.nx; ix++ {
				best := math.Inf(-1)
				idx := ix + m.nx*(iy+m.ny*iz)
				best = m.cellMaxIndexed(ci, idx, best)
				if best < thresholdDBm {
					out = append(out, DarkCell{Center: m.cellCenter(ix, iy, iz), BestRSS: best})
				}
			}
		}
	}
	sortDarkWorstFirst(out)
	return out
}

// DarkRegionsBrute is the unindexed O(keys)-per-cell scan behind
// DarkRegions — the opt-out path and the oracle the index is checked
// against.
func (m *Map) DarkRegionsBrute(thresholdDBm float64) []DarkCell {
	var out []DarkCell
	for iz := 0; iz < m.nz; iz++ {
		for iy := 0; iy < m.ny; iy++ {
			for ix := 0; ix < m.nx; ix++ {
				p := m.cellCenter(ix, iy, iz)
				best := math.Inf(-1)
				idx := ix + m.nx*(iy+m.ny*iz)
				for ki := range m.keys {
					if v := m.val(ki, idx); v > best {
						best = v
					}
				}
				if best < thresholdDBm {
					out = append(out, DarkCell{Center: p, BestRSS: best})
				}
			}
		}
	}
	sortDarkWorstFirst(out)
	return out
}

// sortDarkWorstFirst orders dark cells worst (lowest best-RSS) first,
// with the stable insertion sort both scan paths share.
func sortDarkWorstFirst(out []DarkCell) {
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].BestRSS < out[j-1].BestRSS; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
}

// CoverageFraction returns the fraction of cells whose best coverage meets
// thresholdDBm.
func (m *Map) CoverageFraction(thresholdDBm float64) float64 {
	total := m.stride
	dark := len(m.DarkRegions(thresholdDBm))
	return float64(total-dark) / float64(total)
}

// DarkRegionsFor lists the cells where one specific network's predicted RSS
// falls below thresholdDBm, worst first — the per-network view used when
// planning the extension of a particular infrastructure rather than
// any-network coverage.
func (m *Map) DarkRegionsFor(key string, thresholdDBm float64) ([]DarkCell, error) {
	ki := m.KeyIndex(key)
	if ki < 0 {
		return nil, fmt.Errorf("%w %q", ErrUnknownKey, key)
	}
	var out []DarkCell
	for iz := 0; iz < m.nz; iz++ {
		for iy := 0; iy < m.ny; iy++ {
			for ix := 0; ix < m.nx; ix++ {
				v := m.val(ki, ix+m.nx*(iy+m.ny*iz))
				if v < thresholdDBm {
					out = append(out, DarkCell{Center: m.cellCenter(ix, iy, iz), BestRSS: v})
				}
			}
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].BestRSS < out[j-1].BestRSS; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out, nil
}

// CoverageFractionFor returns the fraction of cells where the given
// network's predicted RSS meets thresholdDBm.
func (m *Map) CoverageFractionFor(key string, thresholdDBm float64) (float64, error) {
	dark, err := m.DarkRegionsFor(key, thresholdDBm)
	if err != nil {
		return 0, err
	}
	total := m.stride
	return float64(total-len(dark)) / float64(total), nil
}

// WriteCSV exports the map as one row per (cell, key):
// x,y,z,key,rssi.
func (m *Map) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"x", "y", "z", "key", "rss_dbm"}); err != nil {
		return fmt.Errorf("rem: writing header: %w", err)
	}
	for ki, key := range m.keys {
		for iz := 0; iz < m.nz; iz++ {
			for iy := 0; iy < m.ny; iy++ {
				for ix := 0; ix < m.nx; ix++ {
					p := m.cellCenter(ix, iy, iz)
					v := m.val(ki, ix+m.nx*(iy+m.ny*iz))
					rec := []string{
						strconv.FormatFloat(p.X, 'f', 3, 64),
						strconv.FormatFloat(p.Y, 'f', 3, 64),
						strconv.FormatFloat(p.Z, 'f', 3, 64),
						key,
						strconv.FormatFloat(v, 'f', 2, 64),
					}
					if err := cw.Write(rec); err != nil {
						return fmt.Errorf("rem: writing row: %w", err)
					}
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
