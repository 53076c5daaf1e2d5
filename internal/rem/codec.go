package rem

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/geom"
)

// Binary snapshot codec: a versioned header, the key vocabulary, a tile
// table, then raw tile data — so a remstore can persist its current
// snapshot across restarts and reload it without re-flying or refitting
// anything. The encoding is deterministic (little-endian, fixed field
// order): the same Map always serialises to the same bytes, and a
// round-trip reproduces every cell bit-for-bit (including NaN payloads).
//
// Layout (all integers little-endian):
//
//	magic "REMT" | u32 format version (2)
//	6 × f64 volume (Min.X Min.Y Min.Z Max.X Max.Y Max.Z)
//	u32 nx | u32 ny | u32 nz | u32 tile cells | u64 map version
//	u32 nKeys | nKeys × (u32 byte length, key bytes)
//	u32 nTiles | nTiles × u32 tile length   (the tile table)
//	tile data: f64 bits in tile order
//	u32 CRC-32 (IEEE) of every preceding byte
//
// The CRC-32 trailer means a reload — a follower resyncing over a flaky
// network, a remgen restart from a snapshot file — detects corrupt
// bytes instead of loading garbage that happens to parse. Version 1,
// the pre-trailer format, is refused: accepting it would let any
// stream skip the integrity check by declaring itself version 1.

const (
	codecMagic   = "REMT"
	codecVersion = 2

	// Codec sanity bounds: a header that declares more than these is
	// rejected before any large allocation happens, so a corrupt or
	// hostile stream cannot make ReadFrom balloon.
	codecMaxAxis  = 1 << 12 // cells per axis
	codecMaxKeys  = 1 << 16
	codecMaxKey   = 1 << 12 // bytes per key string
	codecMaxCells = 1 << 26 // total cells across all keys
)

type codecWriter struct {
	w   *bufio.Writer
	n   int64
	crc uint32
	err error
	buf [8]byte
}

func (cw *codecWriter) bytes(p []byte) {
	if cw.err != nil {
		return
	}
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p)
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	cw.err = err
}

func (cw *codecWriter) u32(v uint32) {
	PutU32(cw.buf[:4], v)
	cw.bytes(cw.buf[:4])
}

func (cw *codecWriter) u64(v uint64) {
	PutU64(cw.buf[:8], v)
	cw.bytes(cw.buf[:8])
}

func (cw *codecWriter) f64(v float64) { cw.u64(math.Float64bits(v)) }

// WriteTo implements io.WriterTo: it serialises the map in the codec
// format above and returns the byte count written. Maps outside the
// codec's sanity bounds are rejected here, at write time — persisting a
// snapshot that ReadFrom would refuse on reload is a silent data-loss
// trap.
func (m *Map) WriteTo(w io.Writer) (int64, error) {
	if err := m.codecBounds(); err != nil {
		return 0, err
	}
	cw := &codecWriter{w: bufio.NewWriter(w)}
	cw.bytes([]byte(codecMagic))
	cw.u32(codecVersion)
	for _, v := range [6]float64{m.volume.Min.X, m.volume.Min.Y, m.volume.Min.Z, m.volume.Max.X, m.volume.Max.Y, m.volume.Max.Z} {
		cw.f64(v)
	}
	cw.u32(uint32(m.nx))
	cw.u32(uint32(m.ny))
	cw.u32(uint32(m.nz))
	cw.u32(TileCells)
	cw.u64(m.version)
	cw.u32(uint32(len(m.keys)))
	for _, k := range m.keys {
		cw.u32(uint32(len(k)))
		cw.bytes([]byte(k))
	}
	cw.u32(uint32(len(m.tiles)))
	for _, t := range m.tiles {
		cw.u32(uint32(len(t)))
	}
	for _, t := range m.tiles {
		for _, v := range t {
			cw.f64(v)
		}
	}
	// The trailer covers every byte before it; capture the sum first —
	// writing the trailer itself must not fold into it.
	cw.u32(cw.crc)
	if cw.err == nil {
		cw.err = cw.w.Flush()
	}
	return cw.n, cw.err
}

// validVolume requires finite bounds with positive extent on every axis
// — anything else turns every query's clamp/interpolation arithmetic
// into NaN or garbage.
func validVolume(min, max [3]float64) error {
	for i := range min {
		if math.IsNaN(min[i]) || math.IsInf(min[i], 0) || math.IsNaN(max[i]) || math.IsInf(max[i], 0) {
			return fmt.Errorf("rem: volume axis %d bounds [%v, %v] not finite", i, min[i], max[i])
		}
		if max[i] <= min[i] {
			return fmt.Errorf("rem: volume axis %d bounds [%v, %v] not increasing", i, min[i], max[i])
		}
	}
	return nil
}

// codecBounds checks the map against the same sanity limits ReadFrom
// enforces, so every encoding WriteTo produces is reloadable.
func (m *Map) codecBounds() error {
	if err := validVolume(
		[3]float64{m.volume.Min.X, m.volume.Min.Y, m.volume.Min.Z},
		[3]float64{m.volume.Max.X, m.volume.Max.Y, m.volume.Max.Z},
	); err != nil {
		return err
	}
	for i, n := range [3]int{m.nx, m.ny, m.nz} {
		if n > codecMaxAxis {
			return fmt.Errorf("rem: axis %d resolution %d exceeds the codec bound %d", i, n, codecMaxAxis)
		}
	}
	if len(m.keys) > codecMaxKeys {
		return fmt.Errorf("rem: %d keys exceed the codec bound %d", len(m.keys), codecMaxKeys)
	}
	for i, k := range m.keys {
		if len(k) > codecMaxKey {
			return fmt.Errorf("rem: key %d length %d exceeds the codec bound %d", i, len(k), codecMaxKey)
		}
	}
	if total := uint64(m.stride) * uint64(len(m.keys)); total > codecMaxCells {
		return fmt.Errorf("rem: %d keys × %d cells exceeds the %d-cell codec bound", len(m.keys), m.stride, codecMaxCells)
	}
	return nil
}

type codecReader struct {
	r   io.Reader
	crc uint32
	buf [8]byte
}

func (cr *codecReader) bytes(p []byte) error {
	_, err := io.ReadFull(cr.r, p)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err == nil {
		cr.crc = crc32.Update(cr.crc, crc32.IEEETable, p)
	}
	return err
}

func (cr *codecReader) u32() (uint32, error) {
	if err := cr.bytes(cr.buf[:4]); err != nil {
		return 0, err
	}
	return U32(cr.buf[:4]), nil
}

func (cr *codecReader) u64() (uint64, error) {
	if err := cr.bytes(cr.buf[:8]); err != nil {
		return 0, err
	}
	return U64(cr.buf[:8]), nil
}

func (cr *codecReader) f64() (float64, error) {
	v, err := cr.u64()
	return math.Float64frombits(v), err
}

// ReadFrom deserialises a map written by WriteTo, validating the header,
// dimensions and tile table before allocating cell storage. It never
// panics on corrupt input: every malformed stream yields an error.
func ReadFrom(r io.Reader) (*Map, error) {
	cr := &codecReader{r: bufio.NewReader(r)}
	magic := make([]byte, len(codecMagic))
	if err := cr.bytes(magic); err != nil {
		return nil, fmt.Errorf("rem: reading magic: %w", err)
	}
	if string(magic) != codecMagic {
		return nil, fmt.Errorf("rem: bad magic %q", magic)
	}
	ver, err := cr.u32()
	if err != nil {
		return nil, fmt.Errorf("rem: reading format version: %w", err)
	}
	if ver != codecVersion {
		return nil, fmt.Errorf("rem: unsupported format version %d (want %d)", ver, codecVersion)
	}
	var vol [6]float64
	for i := range vol {
		if vol[i], err = cr.f64(); err != nil {
			return nil, fmt.Errorf("rem: reading volume: %w", err)
		}
	}
	if err := validVolume([3]float64{vol[0], vol[1], vol[2]}, [3]float64{vol[3], vol[4], vol[5]}); err != nil {
		return nil, err
	}
	var dims [3]uint32
	for i := range dims {
		if dims[i], err = cr.u32(); err != nil {
			return nil, fmt.Errorf("rem: reading grid dimensions: %w", err)
		}
		if dims[i] < 1 || dims[i] > codecMaxAxis {
			return nil, fmt.Errorf("rem: axis %d resolution %d outside [1, %d]", i, dims[i], codecMaxAxis)
		}
	}
	tileCells, err := cr.u32()
	if err != nil {
		return nil, fmt.Errorf("rem: reading tile size: %w", err)
	}
	if tileCells != TileCells {
		return nil, fmt.Errorf("rem: tile size %d unsupported (want %d)", tileCells, TileCells)
	}
	mapVersion, err := cr.u64()
	if err != nil {
		return nil, fmt.Errorf("rem: reading map version: %w", err)
	}
	nKeys, err := cr.u32()
	if err != nil {
		return nil, fmt.Errorf("rem: reading key count: %w", err)
	}
	if nKeys < 1 || nKeys > codecMaxKeys {
		return nil, fmt.Errorf("rem: key count %d outside [1, %d]", nKeys, codecMaxKeys)
	}
	// Bound the total in uint64 before any conversion to int: on 32-bit
	// platforms nx·ny·nz can wrap a native int even with each axis in
	// bounds, and a wrapped stride would slip past this check as a
	// malformed zero-tile map.
	stride64 := uint64(dims[0]) * uint64(dims[1]) * uint64(dims[2])
	if stride64*uint64(nKeys) > codecMaxCells {
		return nil, fmt.Errorf("rem: %d keys × %d cells exceeds the %d-cell codec bound", nKeys, stride64, codecMaxCells)
	}
	nx, ny, nz := int(dims[0]), int(dims[1]), int(dims[2])
	keys := make([]string, nKeys)
	for i := range keys {
		kl, err := cr.u32()
		if err != nil {
			return nil, fmt.Errorf("rem: reading key %d length: %w", i, err)
		}
		if kl > codecMaxKey {
			return nil, fmt.Errorf("rem: key %d length %d exceeds %d", i, kl, codecMaxKey)
		}
		kb := make([]byte, kl)
		if err := cr.bytes(kb); err != nil {
			return nil, fmt.Errorf("rem: reading key %d: %w", i, err)
		}
		keys[i] = string(kb)
	}
	volume := geom.Cuboid{Min: geom.V(vol[0], vol[1], vol[2]), Max: geom.V(vol[3], vol[4], vol[5])}
	m, err := newShell(volume, nx, ny, nz, keys)
	if err != nil {
		return nil, err
	}
	m.version = mapVersion
	nTiles, err := cr.u32()
	if err != nil {
		return nil, fmt.Errorf("rem: reading tile count: %w", err)
	}
	if int(nTiles) != len(m.tiles) {
		return nil, fmt.Errorf("rem: tile table has %d tiles, geometry needs %d", nTiles, len(m.tiles))
	}
	for t := range m.tiles {
		tl, err := cr.u32()
		if err != nil {
			return nil, fmt.Errorf("rem: reading tile %d length: %w", t, err)
		}
		if want := m.tileLen(t % m.tilesPerKey); int(tl) != want {
			return nil, fmt.Errorf("rem: tile %d length %d, geometry needs %d", t, tl, want)
		}
	}
	for t := range m.tiles {
		tile := make([]float64, m.tileLen(t%m.tilesPerKey))
		for c := range tile {
			if tile[c], err = cr.f64(); err != nil {
				return nil, fmt.Errorf("rem: reading tile %d data: %w", t, err)
			}
		}
		m.tiles[t] = tile
	}
	sum := cr.crc // capture before the trailer read folds itself in
	trailer, err := cr.u32()
	if err != nil {
		return nil, fmt.Errorf("rem: reading checksum trailer: %w", err)
	}
	if trailer != sum {
		return nil, fmt.Errorf("rem: snapshot checksum mismatch: trailer %08x, content %08x", trailer, sum)
	}
	return m, nil
}
