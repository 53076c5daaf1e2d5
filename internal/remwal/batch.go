package remwal

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/rem"
)

// The observation batch message ("REMO") is both the POST /observe
// binary request body and the WAL record payload — a batch submitted
// over either wire is persisted as the same canonical bytes, which is
// what makes crash replay independent of how the observations arrived
// (rule 10). The dialect is the snapshot codec's:
//
//	magic "REMO" | u32 version (1) | u32 key length | u32 observation
//	count | key bytes | count × 4 × f64 (x y z value)
//
// One batch carries observations for one key (the POST /at idiom); a
// client with several sources posts several batches. Every field is
// validated before any allocation, mirroring the query wire decoder:
// bad magic, an unsupported version, a key outside the codec bound, a
// declared size disagreeing with the body, an empty batch, or a
// non-finite coordinate or value is rejected.

const (
	batchMagic   = "REMO"
	batchVersion = 1
	// batchHeaderLen is the fixed prefix: magic, version, key length,
	// observation count.
	batchHeaderLen = 4 + 4 + 4 + 4
	// obsLen is one observation: three coordinates and a value.
	obsLen = 4 * 8
)

// Batch is one key's observations: Points[i] was measured at Values[i]
// dBm. Points and Values are always the same length.
type Batch struct {
	Key    string
	Points []geom.Vec3
	Values []float64
}

// AppendBatch appends the canonical "REMO" encoding of b — the bytes
// POST /observe accepts and the WAL persists. len(b.Points) must equal
// len(b.Values).
func AppendBatch(dst []byte, b Batch) []byte {
	dst = append(dst, batchMagic...)
	dst = rem.AppendU32(dst, batchVersion)
	dst = rem.AppendU32(dst, uint32(len(b.Key)))
	dst = rem.AppendU32(dst, uint32(len(b.Points)))
	dst = append(dst, b.Key...)
	for i, p := range b.Points {
		dst = rem.AppendF64(dst, p.X)
		dst = rem.AppendF64(dst, p.Y)
		dst = rem.AppendF64(dst, p.Z)
		dst = rem.AppendF64(dst, b.Values[i])
	}
	return dst
}

// DecodeBatch parses a "REMO" message. The returned batch shares
// nothing with body — safe to retain past a pooled request buffer.
func DecodeBatch(body []byte) (Batch, error) {
	if len(body) < batchHeaderLen {
		return Batch{}, fmt.Errorf("remwal: observation batch header truncated: %d bytes, need %d", len(body), batchHeaderLen)
	}
	if string(body[:4]) != batchMagic {
		return Batch{}, fmt.Errorf("remwal: bad observation batch magic %q", body[:4])
	}
	if v := rem.U32(body[4:]); v != batchVersion {
		return Batch{}, fmt.Errorf("remwal: unsupported observation batch version %d (want %d)", v, batchVersion)
	}
	keyLen := rem.U32(body[8:])
	count := rem.U32(body[12:])
	if keyLen < 1 || keyLen > rem.WireMaxKeyLen {
		return Batch{}, fmt.Errorf("remwal: observation batch key length %d outside [1, %d]", keyLen, rem.WireMaxKeyLen)
	}
	// Declared sizes must agree with the body exactly; the arithmetic is
	// uint64 so a hostile count cannot wrap a native int and slip past.
	want := uint64(batchHeaderLen) + uint64(keyLen) + uint64(count)*obsLen
	if want != uint64(len(body)) {
		return Batch{}, fmt.Errorf("remwal: observation batch declares %d bytes, body has %d", want, len(body))
	}
	if count == 0 {
		return Batch{}, fmt.Errorf("remwal: empty observation batch")
	}
	b := Batch{
		Key:    string(body[batchHeaderLen : batchHeaderLen+keyLen]),
		Points: make([]geom.Vec3, count),
		Values: make([]float64, count),
	}
	off := batchHeaderLen + int(keyLen)
	for i := range b.Points {
		x, y, z := rem.F64(body[off:]), rem.F64(body[off+8:]), rem.F64(body[off+16:])
		b.Points[i] = geom.Vec3{X: x, Y: y, Z: z}
		b.Values[i] = rem.F64(body[off+24:])
		off += obsLen
	}
	if err := checkFinite(b); err != nil {
		return Batch{}, err
	}
	return b, nil
}

// Batches decodes replayed records back into observation batches,
// stopping at the first undecodable payload (which, past the CRC, can
// only mean a format-version skew): the intact prefix and how many
// records it covers.
func Batches(recs []Record) ([]Batch, int) {
	out := make([]Batch, 0, len(recs))
	for i, r := range recs {
		b, err := DecodeBatch(r.Payload)
		if err != nil {
			return out, i
		}
		out = append(out, b)
	}
	return out, len(recs)
}

// checkFinite is the finite-input contract of the durability boundary:
// every coordinate and value of a batch is finite. Submit applies it
// before the WAL append and DecodeBatch on every wire and replayed
// record, so no non-finite observation reaches the log or the model.
func checkFinite(b Batch) error {
	for i, p := range b.Points {
		if !finite(p.X) || !finite(p.Y) || !finite(p.Z) {
			return fmt.Errorf("remwal: observation %d's point is not finite", i)
		}
		if !finite(b.Values[i]) {
			return fmt.Errorf("remwal: observation %d's value is not finite", i)
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
