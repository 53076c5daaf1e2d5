package remserve

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/geom"
	"repro/internal/rem"
)

// Binary batch wire format: the compact alternative to the JSON bodies
// on the query hot path, negotiated per request — Content-Type selects
// the request codec on POST /at, Accept selects the response codec on
// POST /at, GET /at and GET /strongest. It exists because BENCH_rem.json
// showed ~7× of the HTTP batch cost was float text codec work
// (JSON-grammar validation + ParseFloat on ingest, shortest-round-trip
// AppendFloat on egress); here a coordinate is 8 bytes of IEEE-754 moved
// verbatim, so the wire cost collapses to header validation plus memory
// traffic and the handler decodes straight into the pooled buffer that
// feeds AtBatchInto.
//
// The dialect is the snapshot codec's (rem/codec.go, via the exported
// rem wire primitives): little-endian integers, float64 as raw IEEE-754
// bits (NaN payloads survive — binary responses carry exactly the bits
// the library computed, where JSON must degrade non-finite values to
// null), a 4-byte magic and a u32 format version first. Three message
// kinds, told apart by magic:
//
//	batch request ("REMQ"), the POST /at body:
//	  magic "REMQ" | u32 version (1) | u32 key length | u32 point count
//	  key bytes | count × 3 × f64 (x y z)
//
//	batch response ("REMA"), POST /at with Accept: application/x-rem-batch:
//	  magic "REMA" | u32 version (1) | u64 snapshot version
//	  u32 value count | count × f64
//
//	keyed response ("REMS"), GET /at and GET /strongest with the same
//	Accept — the key is echoed (for /at) or announced (for /strongest):
//	  magic "REMS" | u32 version (1) | u64 snapshot version
//	  u32 key length | key bytes | f64 value
//
//	strongest-batch response ("REMW"), POST /strongest with the same
//	Accept — one winning (key, value) pair per request point; the
//	request is a "REMQ" message whose key length is 0:
//	  magic "REMW" | u32 version (1) | u64 snapshot version
//	  u32 pair count | count × (u32 key length | key bytes | f64 value)
//
// Every field is validated before any allocation: bad magic, an
// unsupported version, a truncated header, a key over the snapshot
// codec's key bound, a non-finite coordinate, or a declared size that
// disagrees with the body length is a 400; point counts over
// MaxBatchPoints are a 413 like their JSON equivalents. Rule 8 extends
// to this wire: the value block of a binary response holds bit-for-bit
// the float64s AtBatchInto writes, which is also exactly what the JSON
// path renders (pinned by TestWireRule8AcrossFormats).

// WireContentType is the media type of every binary wire message, for
// both Content-Type (request codec) and Accept (response codec).
const WireContentType = "application/x-rem-batch"

// Wire magics (little-endian u32 of the 4 ASCII bytes, in the snapshot
// codec's magic-first convention).
const (
	wireMagicReq       = "REMQ"
	wireMagicBatch     = "REMA"
	wireMagicKeyed     = "REMS"
	wireMagicStrongest = "REMW"
)

// wireVersion is the binary wire format version.
const wireVersion = 1

// wireReqHeaderLen is the fixed prefix of a batch request: magic,
// version, key length, point count.
const wireReqHeaderLen = 4 + 4 + 4 + 4

// wirePointLen is one coordinate triple.
const wirePointLen = 3 * 8

// wireError carries the HTTP status a malformed binary body maps to.
type wireError struct {
	status int
	msg    string
}

func (e *wireError) Error() string { return e.msg }

func wireErrorf(status int, format string, args ...any) *wireError {
	return &wireError{status: status, msg: fmt.Sprintf(format, args...)}
}

// decodeWireBatch parses a "REMQ" batch request into the pooled request
// buffers and returns its key: the key is memoised on bb (steady-state
// requests for the same key allocate nothing) and the coordinates are
// decoded directly into bb.pts — no intermediate representation, no
// text. maxPoints mirrors the JSON path's batch cap. allowEmptyKey
// admits a zero-length key — the POST /strongest form, where the query
// spans the whole vocabulary and the key field is vestigial.
func decodeWireBatch(body []byte, bb *buffers, maxPoints int, allowEmptyKey bool) (string, *wireError) {
	if len(body) < wireReqHeaderLen {
		return "", wireErrorf(400, "remserve: binary batch header truncated: %d bytes, need %d", len(body), wireReqHeaderLen)
	}
	if string(body[:4]) != wireMagicReq {
		return "", wireErrorf(400, "remserve: bad binary batch magic %q", body[:4])
	}
	if v := rem.U32(body[4:]); v != wireVersion {
		return "", wireErrorf(400, "remserve: unsupported binary wire version %d (want %d)", v, wireVersion)
	}
	keyLen := rem.U32(body[8:])
	count := rem.U32(body[12:])
	minKey := uint32(1)
	if allowEmptyKey {
		minKey = 0
	}
	if keyLen < minKey || keyLen > rem.WireMaxKeyLen {
		return "", wireErrorf(400, "remserve: binary batch key length %d outside [%d, %d]", keyLen, minKey, rem.WireMaxKeyLen)
	}
	// Declared sizes must agree with the body exactly, checked before the
	// point cap so an overflowed count is reported as the malformed body
	// it is (400), not an over-budget batch (413). The arithmetic is
	// uint64 so a hostile count cannot wrap a native int and slip past.
	want := uint64(wireReqHeaderLen) + uint64(keyLen) + uint64(count)*wirePointLen
	if want != uint64(len(body)) {
		return "", wireErrorf(400, "remserve: binary batch declares %d bytes, body has %d", want, len(body))
	}
	if int(count) > maxPoints {
		return "", wireErrorf(413, "remserve: binary batch of %d points exceeds the %d-point cap", count, maxPoints)
	}
	kb := body[wireReqHeaderLen : wireReqHeaderLen+keyLen]
	if bb.wireKey != string(kb) {
		// The copy detaches the key from the pooled body buffer; the memo
		// makes it a once-per-key-change cost, not a per-request one.
		bb.wireKey = string(kb)
	}
	if cap(bb.pts) < int(count) {
		bb.pts = make([]geom.Vec3, 0, count)
	}
	bb.pts = bb.pts[:count]
	off := wireReqHeaderLen + int(keyLen)
	for i := range bb.pts {
		x := rem.F64(body[off:])
		y := rem.F64(body[off+8:])
		z := rem.F64(body[off+16:])
		if !finite(x) || !finite(y) || !finite(z) {
			return "", wireErrorf(400, "remserve: binary batch point %d is not finite", i)
		}
		bb.pts[i] = geom.Vec3{X: x, Y: y, Z: z}
		off += wirePointLen
	}
	return bb.wireKey, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// appendWireBatchResponse renders a "REMA" batch response: the snapshot
// version and the raw value bits, straight from the pooled workspace
// AtBatchInto filled.
func appendWireBatchResponse(b []byte, version uint64, vals []float64) []byte {
	b = append(b, wireMagicBatch...)
	b = rem.AppendU32(b, wireVersion)
	b = rem.AppendU64(b, version)
	b = rem.AppendU32(b, uint32(len(vals)))
	for _, v := range vals {
		b = rem.AppendF64(b, v)
	}
	return b
}

// appendWireKeyedResponse renders a "REMS" single-value response for
// the GET endpoints.
func appendWireKeyedResponse(b []byte, version uint64, key string, val float64) []byte {
	b = append(b, wireMagicKeyed...)
	b = rem.AppendU32(b, wireVersion)
	b = rem.AppendU64(b, version)
	b = rem.AppendU32(b, uint32(len(key)))
	b = append(b, key...)
	b = rem.AppendF64(b, val)
	return b
}

// appendWireStrongestResponse renders a "REMW" strongest-batch
// response: one (key, value) pair per request point, keys and raw value
// bits straight from the pooled workspace StrongestBatchInto filled.
func appendWireStrongestResponse(b []byte, version uint64, keys []string, vals []float64) []byte {
	b = append(b, wireMagicStrongest...)
	b = rem.AppendU32(b, wireVersion)
	b = rem.AppendU64(b, version)
	b = rem.AppendU32(b, uint32(len(keys)))
	for i, k := range keys {
		b = rem.AppendU32(b, uint32(len(k)))
		b = append(b, k...)
		b = rem.AppendF64(b, vals[i])
	}
	return b
}

// AppendStrongestRequest appends the binary wire encoding of a
// strongest batch query — a "REMQ" message with a zero-length key —
// the client-side counterpart of POST /strongest's binary decoder.
func AppendStrongestRequest(b []byte, pts []geom.Vec3) []byte {
	return AppendBatchRequest(b, "", pts)
}

// DecodeStrongestResponse parses a "REMW" binary strongest-batch
// response into per-point winning keys and values plus the serving
// snapshot version.
func DecodeStrongestResponse(body []byte) (keys []string, vals []float64, version uint64, err error) {
	const header = 4 + 4 + 8 + 4
	if len(body) < header {
		return nil, nil, 0, fmt.Errorf("remserve: binary strongest response truncated: %d bytes", len(body))
	}
	if string(body[:4]) != wireMagicStrongest {
		return nil, nil, 0, fmt.Errorf("remserve: bad binary strongest response magic %q", body[:4])
	}
	if v := rem.U32(body[4:]); v != wireVersion {
		return nil, nil, 0, fmt.Errorf("remserve: unsupported binary wire version %d", v)
	}
	version = rem.U64(body[8:])
	count := rem.U32(body[16:])
	keys = make([]string, 0, count)
	vals = make([]float64, 0, count)
	off := header
	for i := uint32(0); i < count; i++ {
		if uint64(off)+4 > uint64(len(body)) {
			return nil, nil, 0, fmt.Errorf("remserve: binary strongest response truncated at pair %d", i)
		}
		keyLen := rem.U32(body[off:])
		off += 4
		if uint64(off)+uint64(keyLen)+8 > uint64(len(body)) {
			return nil, nil, 0, fmt.Errorf("remserve: binary strongest response truncated at pair %d", i)
		}
		keys = append(keys, string(body[off:off+int(keyLen)]))
		off += int(keyLen)
		vals = append(vals, rem.F64(body[off:]))
		off += 8
	}
	if off != len(body) {
		return nil, nil, 0, fmt.Errorf("remserve: binary strongest response has %d trailing bytes", len(body)-off)
	}
	return keys, vals, version, nil
}

// AppendBatchRequest appends the binary wire encoding of a batch query
// for key over pts — the client-side counterpart of the server decoder,
// exported for remgen's client mode, the examples and the tests.
func AppendBatchRequest(b []byte, key string, pts []geom.Vec3) []byte {
	b = append(b, wireMagicReq...)
	b = rem.AppendU32(b, wireVersion)
	b = rem.AppendU32(b, uint32(len(key)))
	b = rem.AppendU32(b, uint32(len(pts)))
	b = append(b, key...)
	for _, p := range pts {
		b = rem.AppendF64(b, p.X)
		b = rem.AppendF64(b, p.Y)
		b = rem.AppendF64(b, p.Z)
	}
	return b
}

// DecodeBatchResponse parses a "REMA" binary batch response into the
// value block and the serving snapshot version.
func DecodeBatchResponse(body []byte) (vals []float64, version uint64, err error) {
	const header = 4 + 4 + 8 + 4
	if len(body) < header {
		return nil, 0, fmt.Errorf("remserve: binary batch response truncated: %d bytes", len(body))
	}
	if string(body[:4]) != wireMagicBatch {
		return nil, 0, fmt.Errorf("remserve: bad binary batch response magic %q", body[:4])
	}
	if v := rem.U32(body[4:]); v != wireVersion {
		return nil, 0, fmt.Errorf("remserve: unsupported binary wire version %d", v)
	}
	version = rem.U64(body[8:])
	count := rem.U32(body[16:])
	if uint64(header)+uint64(count)*8 != uint64(len(body)) {
		return nil, 0, fmt.Errorf("remserve: binary batch response declares %d values, body has %d bytes", count, len(body))
	}
	vals = make([]float64, count)
	for i := range vals {
		vals[i] = rem.F64(body[header+8*i:])
	}
	return vals, version, nil
}

// DecodeKeyedResponse parses a "REMS" binary single-value response.
func DecodeKeyedResponse(body []byte) (key string, val float64, version uint64, err error) {
	const header = 4 + 4 + 8 + 4
	if len(body) < header {
		return "", 0, 0, fmt.Errorf("remserve: binary keyed response truncated: %d bytes", len(body))
	}
	if string(body[:4]) != wireMagicKeyed {
		return "", 0, 0, fmt.Errorf("remserve: bad binary keyed response magic %q", body[:4])
	}
	if v := rem.U32(body[4:]); v != wireVersion {
		return "", 0, 0, fmt.Errorf("remserve: unsupported binary wire version %d", v)
	}
	version = rem.U64(body[8:])
	keyLen := rem.U32(body[16:])
	if uint64(header)+uint64(keyLen)+8 != uint64(len(body)) {
		return "", 0, 0, fmt.Errorf("remserve: binary keyed response declares a %d-byte key, body has %d bytes", keyLen, len(body))
	}
	key = string(body[header : header+int(keyLen)])
	val = rem.F64(body[header+int(keyLen):])
	return key, val, version, nil
}

// isWireContentType reports whether a Content-Type header names the
// binary wire media type (parameters ignored, per RFC 9110 media-type
// matching; allocation-free).
func isWireContentType(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct) == WireContentType
}

// acceptsWire reports whether an Accept header asks for the binary wire
// media type. JSON stays the default for everything else — absent
// headers, */*, application/json — so existing clients are untouched;
// only an explicit application/x-rem-batch member (with a non-zero q)
// switches the response codec. The scan is allocation-free.
func acceptsWire(accept string) bool {
	for accept != "" {
		var elem string
		if i := strings.IndexByte(accept, ','); i >= 0 {
			elem, accept = accept[:i], accept[i+1:]
		} else {
			elem, accept = accept, ""
		}
		media := elem
		if i := strings.IndexByte(elem, ';'); i >= 0 {
			media = elem[:i]
		}
		if strings.TrimSpace(media) != WireContentType {
			continue
		}
		return !refusedByQ(elem)
	}
	return false
}

// refusedByQ reports whether an Accept element carries q=0 (the RFC 9110
// "not acceptable" marker).
func refusedByQ(elem string) bool {
	rest := elem
	if i := strings.IndexByte(rest, ';'); i >= 0 {
		rest = rest[i+1:]
	} else {
		return false
	}
	for rest != "" {
		var param string
		if i := strings.IndexByte(rest, ';'); i >= 0 {
			param, rest = rest[:i], rest[i+1:]
		} else {
			param, rest = rest, ""
		}
		param = strings.TrimSpace(param)
		if v, ok := strings.CutPrefix(param, "q="); ok {
			return v == "0" || v == "0." || v == "0.0" || v == "0.00" || v == "0.000"
		}
	}
	return false
}
