package remserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/rem"
)

// postWith issues a POST /at with explicit Content-Type and Accept
// headers and returns status, headers and body.
func postWith(t testing.TB, url string, body []byte, contentType, accept string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/at", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return r.StatusCode, r.Header, b
}

// jsonBatchBody renders the canonical JSON batch request for key/pts.
func jsonBatchBody(t testing.TB, key string, pts []geom.Vec3) []byte {
	t.Helper()
	arr := make([][3]float64, len(pts))
	for i, p := range pts {
		arr[i] = [3]float64{p.X, p.Y, p.Z}
	}
	b, err := json.Marshal(map[string]any{"key": key, "points": arr})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWireRule8AcrossFormats is the binary extension of determinism
// rule 8 (the PR's acceptance identity): for shard counts 1, 2 and 4,
// every pairing of request codec (JSON / binary) and response codec
// (JSON / binary) on POST /at yields float64s bit-identical to a direct
// AtBatchInto on the same store, at the same snapshot version — and the
// JSON response bytes are identical across request codecs, so the JSON
// wire is provably untouched by the negotiation. The Accept-negotiated
// binary variants of GET /at and GET /strongest are pinned the same
// way.
func TestWireRule8AcrossFormats(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			ss, mono, keys := newServedShards(t, 9, shards)
			srv := httptest.NewServer(NewSharded(ss, Options{}))
			defer srv.Close()

			key := keys[2]
			pts := testPoints()
			want := make([]float64, len(pts))
			wantVer, err := ss.AtBatchInto(want, key, pts)
			if err != nil {
				t.Fatal(err)
			}
			monoWant := make([]float64, len(pts))
			if err := mono.AtBatchInto(monoWant, key, pts); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(monoWant[i]) {
					t.Fatalf("rule 8 broken in the library itself at point %d", i)
				}
			}

			jsonBody := jsonBatchBody(t, key, pts)
			binBody := AppendBatchRequest(nil, key, pts)

			// Reference JSON response: JSON in, JSON out.
			status, hdr, jsonResp := postWith(t, srv.URL, jsonBody, "application/json", "")
			if status != http.StatusOK {
				t.Fatalf("JSON/JSON: status %d: %s", status, jsonResp)
			}
			if ct := hdr.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("JSON/JSON Content-Type %q", ct)
			}

			// Binary request, JSON response: bytes must equal the pure-JSON
			// exchange exactly — the response codec is blind to the request
			// codec.
			status, _, crossResp := postWith(t, srv.URL, binBody, WireContentType, "application/json")
			if status != http.StatusOK {
				t.Fatalf("binary/JSON: status %d: %s", status, crossResp)
			}
			if !bytes.Equal(crossResp, jsonResp) {
				t.Fatalf("binary/JSON response differs from JSON/JSON:\n got %q\nwant %q", crossResp, jsonResp)
			}

			// Binary responses, from either request codec: decoded value
			// bits ≡ the direct library answer, version included.
			for _, req := range []struct {
				name string
				body []byte
				ct   string
			}{
				{"JSON/binary", jsonBody, "application/json"},
				{"binary/binary", binBody, WireContentType},
			} {
				status, hdr, resp := postWith(t, srv.URL, req.body, req.ct, WireContentType)
				if status != http.StatusOK {
					t.Fatalf("%s: status %d: %s", req.name, status, resp)
				}
				if ct := hdr.Get("Content-Type"); ct != WireContentType {
					t.Fatalf("%s: Content-Type %q, want %q", req.name, ct, WireContentType)
				}
				vals, ver, err := DecodeBatchResponse(resp)
				if err != nil {
					t.Fatalf("%s: %v", req.name, err)
				}
				if ver != wantVer {
					t.Fatalf("%s: version %d, want %d", req.name, ver, wantVer)
				}
				if len(vals) != len(want) {
					t.Fatalf("%s: %d values, want %d", req.name, len(vals), len(want))
				}
				for i := range vals {
					if math.Float64bits(vals[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: value %d bits %x, want %x", req.name, i, math.Float64bits(vals[i]), math.Float64bits(want[i]))
					}
				}
			}

			// GET /at with the binary Accept: the "REMS" keyed message.
			p := pts[0]
			pv, pver, err := ss.At(key, p)
			if err != nil {
				t.Fatal(err)
			}
			req, err := http.NewRequest(http.MethodGet,
				fmt.Sprintf("%s/at?key=%s&x=%g&y=%g&z=%g", srv.URL, key, p.X, p.Y, p.Z), nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Accept", WireContentType)
			r, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(r.Body)
			r.Body.Close()
			if r.StatusCode != http.StatusOK {
				t.Fatalf("GET /at binary: status %d: %s", r.StatusCode, body)
			}
			gk, gv, gver, err := DecodeKeyedResponse(body)
			if err != nil {
				t.Fatal(err)
			}
			if gk != key || gver != pver || math.Float64bits(gv) != math.Float64bits(pv) {
				t.Fatalf("GET /at binary: (%s, %x, v%d), want (%s, %x, v%d)",
					gk, math.Float64bits(gv), gver, key, math.Float64bits(pv), pver)
			}

			// GET /strongest with the binary Accept.
			sk, sv, sver, err := ss.Strongest(p)
			if err != nil {
				t.Fatal(err)
			}
			req, err = http.NewRequest(http.MethodGet,
				fmt.Sprintf("%s/strongest?x=%g&y=%g&z=%g", srv.URL, p.X, p.Y, p.Z), nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Accept", WireContentType)
			r, err = http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ = io.ReadAll(r.Body)
			r.Body.Close()
			if r.StatusCode != http.StatusOK {
				t.Fatalf("GET /strongest binary: status %d: %s", r.StatusCode, body)
			}
			gk, gv, gver, err = DecodeKeyedResponse(body)
			if err != nil {
				t.Fatal(err)
			}
			if gk != sk || gver != sver || math.Float64bits(gv) != math.Float64bits(sv) {
				t.Fatalf("GET /strongest binary: (%s, %x, v%d), want (%s, %x, v%d)",
					gk, math.Float64bits(gv), gver, sk, math.Float64bits(sv), sver)
			}
		})
	}
}

// TestWireNaNBitsSurvive pins the one capability JSON cannot offer: a
// non-finite cell value crosses the binary wire with its exact IEEE-754
// bits, where the JSON path must degrade it to null.
func TestWireNaNBitsSurvive(t *testing.T) {
	vals := []float64{math.NaN(), math.Inf(1), -12.5}
	b := appendWireBatchResponse(nil, 7, vals)
	got, ver, err := DecodeBatchResponse(b)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 7 || len(got) != len(vals) {
		t.Fatalf("decoded (v%d, %d values), want (v7, %d)", ver, len(got), len(vals))
	}
	for i := range vals {
		if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
			t.Fatalf("value %d bits %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(vals[i]))
		}
	}
}

// TestWireMalformed is the binary counterpart of the JSON malformed
// table: every way a binary batch body can be wrong, pinned to its
// status code. The server runs with tight caps so the 413 surface is
// reachable with small bodies.
func TestWireMalformed(t *testing.T) {
	ss, _, keys := newServedShards(t, 4, 2)
	srv := httptest.NewServer(NewSharded(ss, Options{MaxBatchBytes: 256, MaxBatchPoints: 4}))
	defer srv.Close()
	key := keys[0]

	valid := AppendBatchRequest(nil, key, testPoints()[:2])

	mutate := func(mut func([]byte) []byte) []byte {
		return mut(append([]byte(nil), valid...))
	}
	cases := []struct {
		name string
		body []byte
		want int
	}{
		{"valid", valid, 200},
		{"empty body", nil, 400},
		{"truncated header", valid[:wireReqHeaderLen-1], 400},
		{"bad magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b }), 400},
		{"bad version", mutate(func(b []byte) []byte { rem.PutU32(b[4:], 99); return b }), 400},
		{"zero key length", mutate(func(b []byte) []byte { rem.PutU32(b[8:], 0); return b }), 400},
		{"key length over codec bound", mutate(func(b []byte) []byte { rem.PutU32(b[8:], rem.WireMaxKeyLen+1); return b }), 400},
		// A count whose byte total wraps uint32 (and would wrap int on
		// 32-bit) must fail the size-consistency check — a 400 malformed
		// body, never an allocation.
		{"count overflow", mutate(func(b []byte) []byte { rem.PutU32(b[12:], 0xFFFFFFFF); return b }), 400},
		{"count disagrees with body", mutate(func(b []byte) []byte { rem.PutU32(b[12:], 3); return b }), 400},
		{"trailing bytes", append(append([]byte(nil), valid...), 0xAB), 400},
		{"truncated points", valid[:len(valid)-8], 400},
		{"NaN coordinate", mutate(func(b []byte) []byte {
			rem.PutF64(b[wireReqHeaderLen+len(key):], math.NaN())
			return b
		}), 400},
		{"Inf coordinate", mutate(func(b []byte) []byte {
			rem.PutF64(b[wireReqHeaderLen+len(key)+8:], math.Inf(-1))
			return b
		}), 400},
		{"unknown key", AppendBatchRequest(nil, "nope", testPoints()[:1]), 404},
		{"too many points", AppendBatchRequest(nil, key, testPoints()), 413},
		{"oversized body", AppendBatchRequest(nil, key+strings.Repeat("x", 300), nil), 413},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, body := postWith(t, srv.URL, tc.body, WireContentType, "")
			if status != tc.want {
				t.Fatalf("status %d, want %d (%s)", status, tc.want, body)
			}
		})
	}

}

// FuzzWireBatchDecode hammers the binary batch decoder with arbitrary
// bytes: it must never panic, and whenever it accepts a body,
// re-encoding the decoded batch must reproduce the input byte for byte
// (the format has no padding or redundancy, so acceptance implies
// canonical form).
func FuzzWireBatchDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("REMQ"))
	f.Add(AppendBatchRequest(nil, "AA:BB:CC:DD:EE:FF", nil))
	f.Add(AppendBatchRequest(nil, "k", []geom.Vec3{{X: 1, Y: 2, Z: 3}}))
	f.Add(AppendBatchRequest(nil, "AA:BB:00:00:00:01", testPoints()))
	trunc := AppendBatchRequest(nil, "key", testPoints())
	f.Add(trunc[:len(trunc)-5])
	f.Fuzz(func(t *testing.T, body []byte) {
		bb := &buffers{}
		key, err := decodeWireBatch(body, bb, DefaultMaxBatchPoints, false)
		if err != nil {
			if err.status != 400 && err.status != 413 {
				t.Fatalf("decode error status %d, want 400/413", err.status)
			}
			return
		}
		rt := AppendBatchRequest(nil, key, bb.pts)
		if !bytes.Equal(rt, body) {
			t.Fatalf("accepted non-canonical body:\n in  %x\n out %x", body, rt)
		}
	})
}

// TestWireBatchDecodeZeroAlloc pins the hot-path claim directly: once
// the key memo and the point buffer are warm, decoding a binary batch
// allocates nothing — and a key change still decodes correctly (at the
// cost of the one string copy the memo exists to amortise).
func TestWireBatchDecodeZeroAlloc(t *testing.T) {
	bb := &buffers{}
	body := AppendBatchRequest(nil, "AA:BB:00:00:00:01", testPoints())
	if _, err := decodeWireBatch(body, bb, 16, false); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := decodeWireBatch(body, bb, 16, false); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state binary decode allocates %v/op, want 0", allocs)
	}
	other := AppendBatchRequest(nil, "key-b", testPoints()[:1])
	key, err := decodeWireBatch(other, bb, 16, false)
	if err != nil {
		t.Fatal(err)
	}
	if key != "key-b" || len(bb.pts) != 1 {
		t.Fatalf("key change decoded (%q, %d pts), want (%q, 1)", key, len(bb.pts), "key-b")
	}
}

// TestContentNegotiation pins the header parsing: which Content-Type
// strings select the binary request codec, and which Accept headers
// switch the response codec.
func TestContentNegotiation(t *testing.T) {
	ctCases := []struct {
		ct   string
		want bool
	}{
		{WireContentType, true},
		{WireContentType + "; charset=binary", true},
		{"  " + WireContentType + " ; v=1", true},
		{"application/json", false},
		{"", false},
		{"application/x-rem-batch2", false},
	}
	for _, tc := range ctCases {
		if got := isWireContentType(tc.ct); got != tc.want {
			t.Errorf("isWireContentType(%q) = %v, want %v", tc.ct, got, tc.want)
		}
	}
	acceptCases := []struct {
		accept string
		want   bool
	}{
		{WireContentType, true},
		{"application/json, " + WireContentType, true},
		{WireContentType + ";q=0.5", true},
		{WireContentType + ";q=0", false},
		{WireContentType + "; q=0.0", false},
		{"*/*", false},
		{"application/json", false},
		{"", false},
	}
	for _, tc := range acceptCases {
		if got := acceptsWire(tc.accept); got != tc.want {
			t.Errorf("acceptsWire(%q) = %v, want %v", tc.accept, got, tc.want)
		}
	}
	gzipCases := []struct {
		header string
		want   bool
	}{
		{"gzip", true},
		{"GZIP", true},
		{"x-gzip", true},
		{"br, gzip;q=0.8", true},
		{"gzip;q=0", false},
		{"br", false},
		{"*", false},
		{"", false},
	}
	for _, tc := range gzipCases {
		if got := acceptsGzip(tc.header); got != tc.want {
			t.Errorf("acceptsGzip(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}
