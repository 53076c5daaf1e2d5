package rem

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/simrand"
)

// randomMap builds a map with rng-chosen geometry and values (including
// non-finite cells) for codec exercising.
func randomMap(t *testing.T, rng *simrand.Source) *Map {
	t.Helper()
	nx, ny, nz := 1+rng.Intn(9), 1+rng.Intn(8), 1+rng.Intn(7)
	nKeys := 1 + rng.Intn(5)
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("0a:%02x:%02x", i, rng.Intn(256))
	}
	vol := geom.MustCuboid(geom.V(rng.Range(-5, 0), rng.Range(-5, 0), 0), rng.Range(1, 6), rng.Range(1, 6), rng.Range(1, 4))
	predict := func(centers []geom.Vec3, k int) ([]float64, error) {
		out := make([]float64, len(centers))
		for i, p := range centers {
			switch (i + k) % 17 {
			case 0:
				out[i] = math.NaN()
			case 1:
				out[i] = math.Inf(-1)
			default:
				out[i] = -40 - 7*p.X - 3*p.Y - p.Z - float64(k)
			}
		}
		return out, nil
	}
	m, err := BuildMapBatch(vol, nx, ny, nz, keys, predict, BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCodecRoundTrip: WriteTo → ReadFrom reproduces geometry, keys,
// version and every cell bit-for-bit, across many random maps.
func TestCodecRoundTrip(t *testing.T) {
	rng := simrand.New(42)
	for trial := 0; trial < 25; trial++ {
		m := randomMap(t, rng)
		// Give some trials a rebuilt generation so version survives too.
		if trial%3 == 0 {
			next, err := m.RebuildKeys([]int{0}, func(centers []geom.Vec3, k int) ([]float64, error) {
				return make([]float64, len(centers)), nil
			}, BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			m = next
		}
		var buf bytes.Buffer
		n, err := m.WriteTo(&buf)
		if err != nil {
			t.Fatalf("trial %d: WriteTo: %v", trial, err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("trial %d: WriteTo reported %d bytes, wrote %d", trial, n, buf.Len())
		}
		got, err := ReadFrom(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: ReadFrom: %v", trial, err)
		}
		if !got.Equal(m) {
			t.Fatalf("trial %d: decoded map differs", trial)
		}
		if got.Version() != m.Version() {
			t.Fatalf("trial %d: version %d, want %d", trial, got.Version(), m.Version())
		}
		// Determinism: re-encoding yields the same bytes.
		var buf2 bytes.Buffer
		if _, err := got.WriteTo(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("trial %d: re-encoding differs", trial)
		}
	}
}

// TestCodecRejectsTruncation: every strict prefix of a valid encoding
// errors cleanly.
func TestCodecRejectsTruncation(t *testing.T) {
	m := randomMap(t, simrand.New(7))
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	for cut := 0; cut < len(enc); cut += 1 + cut/16 {
		if _, err := ReadFrom(bytes.NewReader(enc[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", cut, len(enc))
		}
	}
}

// TestCodecRejectsCorruptHeaders: bad magic, bad format version, and
// oversized dimensions are all refused before any large allocation.
func TestCodecRejectsCorruptHeaders(t *testing.T) {
	m := randomMap(t, simrand.New(9))
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(b []byte)) error {
		b := append([]byte(nil), buf.Bytes()...)
		mutate(b)
		_, err := ReadFrom(bytes.NewReader(b))
		return err
	}
	if err := corrupt(func(b []byte) { b[0] = 'X' }); err == nil {
		t.Error("bad magic accepted")
	}
	if err := corrupt(func(b []byte) { b[4] = 99 }); err == nil {
		t.Error("bad format version accepted")
	}
	if err := corrupt(func(b []byte) { // nx field, after magic+ver+6 float64s
		off := 4 + 4 + 6*8
		for i := 0; i < 4; i++ {
			b[off+i] = 0xff
		}
	}); err == nil {
		t.Error("oversized nx accepted")
	}
	if err := corrupt(func(b []byte) { // Min.X → NaN
		off := 4 + 4
		for i := 0; i < 8; i++ {
			b[off+i] = 0xff
		}
	}); err == nil {
		t.Error("NaN volume bound accepted")
	}
}

// TestCodecChecksumCatchesBitFlips: any single flipped bit in a
// version-2 stream is rejected — either by a structural check or,
// for flips that still parse (cell values, the map version, the
// trailer itself), by the CRC-32 trailer. Loading garbage that happens
// to parse is exactly the failure mode the trailer exists to close.
func TestCodecChecksumCatchesBitFlips(t *testing.T) {
	m := randomMap(t, simrand.New(13))
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	for off := 0; off < len(enc); off += 1 + off/9 {
		b := append([]byte(nil), enc...)
		b[off] ^= 0x08
		if _, err := ReadFrom(bytes.NewReader(b)); err == nil {
			t.Fatalf("flipped bit at byte %d/%d accepted", off, len(enc))
		}
	}
}

// TestCodecRejectsVersion1: a pre-trailer stream (format version 1, no
// CRC) is refused, with or without a trailer — a version field cannot
// opt a stream out of the integrity check.
func TestCodecRejectsVersion1(t *testing.T) {
	m := randomMap(t, simrand.New(17))
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Rewrite the version field to 1 and strip the trailer — exactly the
	// bytes the old encoder produced.
	v1 := append([]byte(nil), buf.Bytes()[:buf.Len()-4]...)
	PutU32(v1[4:], 1)
	withTrailer := append([]byte(nil), buf.Bytes()...)
	PutU32(withTrailer[4:], 1)
	for name, b := range map[string][]byte{"no trailer": v1, "with trailer": withTrailer} {
		_, err := ReadFrom(bytes.NewReader(b))
		if err == nil || !strings.Contains(err.Error(), "unsupported format version 1") {
			t.Fatalf("version-1 stream (%s): error %v, want unsupported format version", name, err)
		}
	}
}

// TestCodecWriteToEnforcesBounds: a map ReadFrom would refuse must fail
// at write time, not surface as an unreadable file at reload.
func TestCodecWriteToEnforcesBounds(t *testing.T) {
	vol := geom.MustCuboid(geom.V(0, 0, 0), 4, 3, 2.6)
	m, err := BuildMapBatch(vol, 5000, 1, 1, []string{"a"}, func(centers []geom.Vec3, k int) ([]float64, error) {
		return make([]float64, len(centers)), nil
	}, BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteTo(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteTo accepted an axis ReadFrom would reject")
	}
}

// FuzzCodecReadFrom hammers ReadFrom with arbitrary bytes: it must never
// panic, and anything it accepts must re-encode to a decodable map
// (round-trip closure).
func FuzzCodecReadFrom(f *testing.F) {
	rng := simrand.New(11)
	vol := geom.MustCuboid(geom.V(0, 0, 0), 2, 2, 2)
	for i := 0; i < 4; i++ {
		nx, ny := 1+rng.Intn(4), 1+rng.Intn(4)
		m, err := BuildMapBatch(vol, nx, ny, 2, []string{"aa", "bb"}, func(centers []geom.Vec3, k int) ([]float64, error) {
			out := make([]float64, len(centers))
			for j := range out {
				out[j] = rng.Range(-90, -30)
			}
			return out, nil
		}, BuildOptions{Workers: 1})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("REMT"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			t.Fatalf("accepted map failed to encode: %v", err)
		}
		again, err := ReadFrom(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded map failed to decode: %v", err)
		}
		if !again.Equal(m) {
			t.Fatal("round-trip changed the map")
		}
	})
}
