package rem

import (
	"fmt"
	"hash/crc32"
	"math"
)

// Tile-delta codec: the replication wire format that ships only the
// tiles that changed between two snapshot generations, so a follower
// tracking a leader pays bytes proportional to the dirty set — the
// copy-on-write sharing RebuildKeys already maintains, serialised. The
// dialect is the snapshot codec's (little-endian, magic + u32 version
// first, f64 as raw IEEE-754 bits), and every message ends in a CRC-32
// trailer: a delta travels over flaky networks by design, and applying
// a corrupt delta would silently poison every later generation derived
// from it.
//
// Layout (all integers little-endian):
//
//	magic "REMD" | u32 format version (1)
//	u64 base map version | u64 next map version
//	u32 nx | u32 ny | u32 nz | u32 tile cells | u32 nKeys
//	u32 nChanged | nChanged × u32 tile index   (strictly ascending)
//	tile data: f64 bits, changed tiles in index order
//	u32 CRC-32 (IEEE) of every preceding byte
//
// Tile lengths are not transmitted: they are derived from the geometry
// echo, which ApplyDelta checks against the base map before touching
// any tile. The key vocabulary is not transmitted either — a delta is
// only meaningful against a base the receiver already holds, and
// ApplyDelta requires the base's version to match; geometry or
// vocabulary drift between leader and follower therefore surfaces as a
// version/geometry mismatch, and the follower falls back to a full
// snapshot.

const (
	deltaMagic   = "REMD"
	deltaVersion = 1

	// deltaHeaderLen is the fixed prefix: magic, version, base/next map
	// versions, geometry echo (nx ny nz tileCells nKeys), change count.
	deltaHeaderLen = 4 + 4 + 8 + 8 + 5*4 + 4

	// deltaTrailerLen is the CRC-32 trailer.
	deltaTrailerLen = 4
)

// DiffTiles returns the indices of tiles whose contents differ between
// base and next, ascending. The two maps must share geometry and
// vocabulary (the relation RebuildKeys chains and merged sharded views
// maintain); anything else is an error. Tiles aliased to the same
// backing storage — the copy-on-write common case — are skipped without
// comparing cells, so the scan costs O(changed cells + shared tiles).
func DiffTiles(base, next *Map) ([]int, error) {
	if err := diffCompatible(base, next); err != nil {
		return nil, err
	}
	var changed []int
	for i, nt := range next.tiles {
		bt := base.tiles[i]
		if len(bt) > 0 && len(nt) > 0 && &bt[0] == &nt[0] {
			continue
		}
		if !sameTile(bt, nt) {
			changed = append(changed, i)
		}
	}
	return changed, nil
}

// diffCompatible requires the geometry/vocabulary identity a delta
// relation rests on.
func diffCompatible(base, next *Map) error {
	if base == nil || next == nil {
		return fmt.Errorf("rem: delta needs two maps")
	}
	if base.nx != next.nx || base.ny != next.ny || base.nz != next.nz {
		return fmt.Errorf("rem: delta resolution %dx%dx%d does not match base %dx%dx%d",
			next.nx, next.ny, next.nz, base.nx, base.ny, base.nz)
	}
	if !sameVolume(base, next) {
		return fmt.Errorf("rem: delta volume %v–%v does not match base %v–%v",
			next.volume.Min, next.volume.Max, base.volume.Min, base.volume.Max)
	}
	if len(base.keys) != len(next.keys) {
		return fmt.Errorf("rem: delta has %d keys, base %d", len(next.keys), len(base.keys))
	}
	for i, k := range next.keys {
		if base.keys[i] != k {
			return fmt.Errorf("rem: delta key %d is %q, base has %q", i, k, base.keys[i])
		}
	}
	return nil
}

// sameTile compares two tiles bit-for-bit (NaN payloads included — the
// identity Equal uses).
func sameTile(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// AppendDelta appends the delta message that turns base into next — the
// encoder side of the replication wire. The encoding is deterministic:
// the same (base, next) pair always appends the same bytes.
func AppendDelta(dst []byte, base, next *Map) ([]byte, error) {
	changed, err := DiffTiles(base, next)
	if err != nil {
		return nil, err
	}
	start := len(dst)
	dst = append(dst, deltaMagic...)
	dst = AppendU32(dst, deltaVersion)
	dst = AppendU64(dst, base.version)
	dst = AppendU64(dst, next.version)
	dst = AppendU32(dst, uint32(next.nx))
	dst = AppendU32(dst, uint32(next.ny))
	dst = AppendU32(dst, uint32(next.nz))
	dst = AppendU32(dst, TileCells)
	dst = AppendU32(dst, uint32(len(next.keys)))
	dst = AppendU32(dst, uint32(len(changed)))
	for _, t := range changed {
		dst = AppendU32(dst, uint32(t))
	}
	for _, t := range changed {
		for _, v := range next.tiles[t] {
			dst = AppendF64(dst, v)
		}
	}
	return AppendU32(dst, crc32.ChecksumIEEE(dst[start:])), nil
}

// DeltaVersions peeks a delta message's base and next map versions
// without validating or applying it — enough for a replication layer to
// route or log a delta before deciding what to do with it.
func DeltaVersions(data []byte) (base, next uint64, err error) {
	if len(data) < deltaHeaderLen {
		return 0, 0, fmt.Errorf("rem: delta header truncated: %d bytes, need %d", len(data), deltaHeaderLen)
	}
	if string(data[:4]) != deltaMagic {
		return 0, 0, fmt.Errorf("rem: bad delta magic %q", data[:4])
	}
	return U64(data[8:]), U64(data[16:]), nil
}

// ApplyDelta derives the next generation from base and a delta message:
// changed tiles take the transmitted cells, every other tile is shared
// with base (copy-on-write, exactly like RebuildKeys), and the result's
// version is the delta's next version. The message is validated in full
// before any tile is touched — magic, format version, CRC-32 trailer,
// base version match, geometry echo, index bounds and ordering, exact
// length — so a truncated, bit-flipped or mismatched delta is always an
// error and never a silently wrong map. If AppendDelta(base, next)
// produced the message, the result is Equal to next, bit for bit.
func ApplyDelta(base *Map, data []byte) (*Map, error) {
	if base == nil {
		return nil, fmt.Errorf("rem: delta needs a base map")
	}
	if len(data) < deltaHeaderLen+deltaTrailerLen {
		return nil, fmt.Errorf("rem: delta truncated: %d bytes, need at least %d", len(data), deltaHeaderLen+deltaTrailerLen)
	}
	if string(data[:4]) != deltaMagic {
		return nil, fmt.Errorf("rem: bad delta magic %q", data[:4])
	}
	if v := U32(data[4:]); v != deltaVersion {
		return nil, fmt.Errorf("rem: unsupported delta format version %d (want %d)", v, deltaVersion)
	}
	// Integrity first: past this point every declared field is known to
	// be exactly what the encoder wrote, so later checks diagnose real
	// mismatches (wrong base, drifted geometry), not line noise.
	body, trailer := data[:len(data)-deltaTrailerLen], U32(data[len(data)-deltaTrailerLen:])
	if sum := crc32.ChecksumIEEE(body); sum != trailer {
		return nil, fmt.Errorf("rem: delta checksum mismatch: trailer %08x, content %08x", trailer, sum)
	}
	baseVer, nextVer := U64(data[8:]), U64(data[16:])
	if baseVer != base.version {
		return nil, fmt.Errorf("rem: delta base version %d does not match map version %d", baseVer, base.version)
	}
	nx, ny, nz := U32(data[24:]), U32(data[28:]), U32(data[32:])
	if int(nx) != base.nx || int(ny) != base.ny || int(nz) != base.nz {
		return nil, fmt.Errorf("rem: delta resolution %dx%dx%d does not match base %dx%dx%d",
			nx, ny, nz, base.nx, base.ny, base.nz)
	}
	if tc := U32(data[36:]); tc != TileCells {
		return nil, fmt.Errorf("rem: delta tile size %d unsupported (want %d)", tc, TileCells)
	}
	if nk := U32(data[40:]); int(nk) != len(base.keys) {
		return nil, fmt.Errorf("rem: delta has %d keys, base %d", nk, len(base.keys))
	}
	nChanged := U32(data[44:])
	if uint64(nChanged) > uint64(len(base.tiles)) {
		return nil, fmt.Errorf("rem: delta changes %d tiles, base has %d", nChanged, len(base.tiles))
	}
	// Walk the index table once to validate ordering/bounds and total the
	// cell payload, in uint64 so a hostile table cannot wrap a native int.
	idxOff := deltaHeaderLen
	cells := uint64(0)
	if uint64(len(body)) < uint64(idxOff)+4*uint64(nChanged) {
		return nil, fmt.Errorf("rem: delta index table truncated")
	}
	prev := -1
	for i := 0; i < int(nChanged); i++ {
		t := int(U32(body[idxOff+4*i:]))
		if t >= len(base.tiles) {
			return nil, fmt.Errorf("rem: delta tile index %d outside [0, %d)", t, len(base.tiles))
		}
		if t <= prev {
			return nil, fmt.Errorf("rem: delta tile indices not strictly ascending at entry %d", i)
		}
		prev = t
		cells += uint64(base.tileLen(t % base.tilesPerKey))
	}
	dataOff := idxOff + 4*int(nChanged)
	if want := uint64(dataOff) + 8*cells; want != uint64(len(body)) {
		return nil, fmt.Errorf("rem: delta declares %d bytes, body has %d", want+deltaTrailerLen, len(data))
	}
	child := &Map{
		volume: base.volume,
		nx:     base.nx, ny: base.ny, nz: base.nz,
		stride:      base.stride,
		tilesPerKey: base.tilesPerKey,
		keys:        base.keys,
		tiles:       append([][]float64(nil), base.tiles...),
		version:     nextVer,
	}
	off := dataOff
	for i := 0; i < int(nChanged); i++ {
		t := int(U32(body[idxOff+4*i:]))
		tile := make([]float64, base.tileLen(t%base.tilesPerKey))
		for c := range tile {
			tile[c] = F64(body[off:])
			off += 8
		}
		child.tiles[t] = tile
	}
	// The delta ships whole tiles, but comparing each against the base's
	// recovers exactly the cells whose bits the leader's derivation changed,
	// so the follower mends the same cubes the leader mended.
	child.mendCoverFrom(base)
	return child, nil
}
