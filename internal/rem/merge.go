package rem

import (
	"fmt"
	"math"
)

// Merge assembles a single Map over the given key order from per-part
// maps covering disjoint key subsets — the reassembly step a sharded
// store uses to materialise one monolithic view of its shards. Every
// part must share the merged map's exact geometry (volume bit-for-bit,
// grid resolution), and each key in order must appear in exactly one
// part; parts may hold their keys in any order. Tile storage is shared,
// not copied: the merged map aliases every part's tiles, so it is
// immutable exactly as its parts are and costs only the tile-header
// table. Its version is the maximum part version (provenance only —
// merged maps are not part of any rebuild chain).
//
// Determinism contract rule 8 rests on this being a pure reindexing:
// Merge(keys, shards-of(m)) is byte-identical (Map.Equal) to m itself
// for any partitioning of m's keys.
func Merge(order []string, parts []*Map) (*Map, error) {
	if len(order) == 0 {
		return nil, fmt.Errorf("rem: merge needs at least one key")
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("rem: merge needs at least one part")
	}
	if err := checkParts("merge", parts); err != nil {
		return nil, err
	}
	ref := parts[0]
	// Locate every key: (part, local index), rejecting duplicates across
	// parts and keys missing from all of them.
	type loc struct{ part, ki int }
	where := make(map[string]loc, len(order))
	total := 0
	for pi, p := range parts {
		total += len(p.keys)
		for ki, k := range p.keys {
			if prev, dup := where[k]; dup {
				return nil, fmt.Errorf("rem: key %q appears in merge parts %d and %d", k, prev.part, pi)
			}
			where[k] = loc{pi, ki}
		}
	}
	if total != len(order) {
		return nil, fmt.Errorf("rem: merge parts hold %d keys, order lists %d", total, len(order))
	}
	m := &Map{
		volume: ref.volume,
		nx:     ref.nx, ny: ref.ny, nz: ref.nz,
		stride:      ref.stride,
		tilesPerKey: ref.tilesPerKey,
		keys:        append([]string(nil), order...),
		version:     0,
	}
	seen := make(map[string]bool, len(order))
	m.tiles = make([][]float64, len(order)*m.tilesPerKey)
	partOf := make([]int, len(order))
	localOf := make([]int, len(order))
	for gi, k := range order {
		if seen[k] {
			return nil, fmt.Errorf("rem: merge order lists %q twice", k)
		}
		seen[k] = true
		l, ok := where[k]
		if !ok {
			return nil, fmt.Errorf("rem: merge key %q not held by any part", k)
		}
		p := parts[l.part]
		copy(m.tiles[gi*m.tilesPerKey:(gi+1)*m.tilesPerKey], p.tiles[l.ki*p.tilesPerKey:(l.ki+1)*p.tilesPerKey])
		partOf[gi], localOf[gi] = l.part, l.ki
		if p.version > m.version {
			m.version = p.version
		}
	}
	// Reassemble the coverage index from the parts' indexes (cheap: per
	// cube it folds the part bounds and re-tests only part candidates).
	// If any part is unindexed the merged map simply stays unindexed too.
	if ci := mergeCover(m, parts, partOf, localOf); ci != nil {
		m.cover.Store(ci)
	}
	return m, nil
}

// checkParts rejects nil parts and parts whose geometry (grid resolution,
// volume bit-for-bit) differs from parts[0]; op names the caller in the
// error. parts must be non-empty.
func checkParts(op string, parts []*Map) error {
	ref := parts[0]
	for i, p := range parts {
		if p == nil {
			return fmt.Errorf("rem: %s part %d is nil", op, i)
		}
		if p.nx != ref.nx || p.ny != ref.ny || p.nz != ref.nz {
			return fmt.Errorf("rem: %s part %d resolution %dx%dx%d does not match %dx%dx%d",
				op, i, p.nx, p.ny, p.nz, ref.nx, ref.ny, ref.nz)
		}
		if !sameVolume(p, ref) {
			return fmt.Errorf("rem: %s part %d volume %v–%v does not match %v–%v",
				op, i, p.volume.Min, p.volume.Max, ref.volume.Min, ref.volume.Max)
		}
	}
	return nil
}

// sameVolume compares two maps' volumes bit-for-bit (the identity Equal
// uses), so NaN coordinates cannot slip through the geometry check.
func sameVolume(a, b *Map) bool {
	av := [6]float64{a.volume.Min.X, a.volume.Min.Y, a.volume.Min.Z, a.volume.Max.X, a.volume.Max.Y, a.volume.Max.Z}
	bv := [6]float64{b.volume.Min.X, b.volume.Min.Y, b.volume.Min.Z, b.volume.Max.X, b.volume.Max.Y, b.volume.Max.Z}
	for i := range av {
		if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
			return false
		}
	}
	return true
}
