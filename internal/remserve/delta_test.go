package remserve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/rem"
	"repro/internal/remstore"
)

// testPredict2 is a second deterministic field, so a rebuild against it
// produces a genuinely different generation.
func testPredict2(centers []geom.Vec3, keyIdx int) ([]float64, error) {
	out := make([]float64, len(centers))
	for i, p := range centers {
		out[i] = -45 - 2*p.X - p.Y - float64(keyIdx%3)
	}
	return out, nil
}

// snapshotBytes renders a map through the snapshot codec.
func snapshotBytes(t *testing.T, m *rem.Map) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeltaEndpointMonolithic walks the full /delta contract over a
// monolithic store: a retained base yields a REMD message that applies
// to exactly the serving map; a current client gets 304; a missing or
// malformed base tag degrades to a full snapshot; no tag is a 400.
func TestDeltaEndpointMonolithic(t *testing.T) {
	keys := testKeys(5)
	st := remstore.New(4)
	m1, err := rem.BuildMapBatch(testVolume(), 8, 6, 4, keys, testPredict, rem.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Publish(m1, len(keys)); err != nil {
		t.Fatal(err)
	}
	m2, err := m1.RebuildKeys([]int{1, 3}, testPredict2, rem.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Publish(m2, 2); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewStore(st, Options{}))
	defer srv.Close()

	status, hdr, body := get(t, srv.URL+"/delta?from=1")
	if status != 200 || hdr.Get("Content-Type") != DeltaContentType {
		t.Fatalf("delta from retained base: status %d type %q", status, hdr.Get("Content-Type"))
	}
	if hdr.Get("ETag") != `"2"` || hdr.Get("X-REM-Version") != "2" || hdr.Get("X-REM-Delta-Base") != "1" {
		t.Fatalf("delta headers = %v", hdr)
	}
	applied, err := rem.ApplyDelta(m1, body)
	if err != nil {
		t.Fatal(err)
	}
	if !applied.Equal(m2) || applied.Version() != m2.Version() {
		t.Fatal("applied delta is not the serving generation")
	}
	// The delta is a strict improvement over refetching: smaller than the
	// full codec for this 2-of-5-key change.
	if full := snapshotBytes(t, m2); len(body) >= len(full) {
		t.Fatalf("delta %d bytes, full snapshot %d", len(body), len(full))
	}

	// A client already at the serving generation: 304, by tag or by
	// If-None-Match.
	if status, _, _ := get(t, srv.URL+"/delta?from=2"); status != http.StatusNotModified {
		t.Fatalf("delta from current tag: status %d, want 304", status)
	}
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/delta?from=1", nil)
	req.Header.Set("If-None-Match", `"2"`)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match current: status %d, want 304", resp.StatusCode)
	}

	// An evicted or nonsense base degrades to the full snapshot codec.
	for _, from := range []string{"99", "not-a-tag", "1.2"} {
		status, hdr, body := get(t, srv.URL+"/delta?from="+from)
		if status != 200 || hdr.Get("Content-Type") != "application/octet-stream" {
			t.Fatalf("from=%q: status %d type %q, want full-snapshot fallback", from, status, hdr.Get("Content-Type"))
		}
		if !bytes.Equal(body, snapshotBytes(t, m2)) {
			t.Fatalf("from=%q: fallback body differs from /snapshot", from)
		}
		if hdr.Get("X-REM-Delta-Base") != "" {
			t.Fatalf("from=%q: fallback claims a delta base", from)
		}
	}

	// No from tag at all is a client error.
	if status, _, _ := get(t, srv.URL+"/delta"); status != http.StatusBadRequest {
		t.Fatalf("missing from: status %d, want 400", status)
	}
}

// TestDeltaEndpointSharded: the same contract against dotted version
// vectors, across shard counts — the delta applied to the old merged
// view reproduces the new merged view bit for bit (rule 8 over the
// delta wire).
func TestDeltaEndpointSharded(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			ss, _, _ := newServedShards(t, 9, shards)
			base, baseTag, err := ShardedBackend(ss).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ss.Rebuild(allDirty(9), testPredict2, rem.BuildOptions{}); err != nil {
				t.Fatal(err)
			}
			next, nextTag, err := ShardedBackend(ss).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(NewSharded(ss, Options{}))
			defer srv.Close()

			status, hdr, body := get(t, srv.URL+"/delta?from="+baseTag)
			if status != 200 || hdr.Get("Content-Type") != DeltaContentType {
				t.Fatalf("status %d type %q", status, hdr.Get("Content-Type"))
			}
			if hdr.Get("ETag") != `"`+nextTag+`"` {
				t.Fatalf("ETag %q, want %q", hdr.Get("ETag"), `"`+nextTag+`"`)
			}
			applied, err := rem.ApplyDelta(base, body)
			if err != nil {
				t.Fatal(err)
			}
			if !applied.Equal(next) {
				t.Fatal("applied delta differs from merged serving view")
			}
			if status, _, _ := get(t, srv.URL+"/delta?from="+nextTag); status != http.StatusNotModified {
				t.Fatalf("current tag: status %d, want 304", status)
			}
			// A wrong-arity vector can never resolve: full-snapshot fallback.
			status, hdr, body = get(t, srv.URL+"/delta?from="+nextTag+".7")
			if status != 200 || hdr.Get("Content-Type") != "application/octet-stream" {
				t.Fatalf("wrong-arity tag: status %d type %q", status, hdr.Get("Content-Type"))
			}
			if !bytes.Equal(body, snapshotBytes(t, next)) {
				t.Fatal("fallback body differs from serving snapshot")
			}
		})
	}
}

// TestDeltaEndpointEmpty: before anything publishes, /delta is 503 like
// every other query.
func TestDeltaEndpointEmpty(t *testing.T) {
	srv := httptest.NewServer(NewStore(remstore.New(0), Options{}))
	defer srv.Close()
	if status, _, _ := get(t, srv.URL+"/delta?from=1"); status != http.StatusServiceUnavailable {
		t.Fatalf("empty store delta: status %d, want 503", status)
	}
	if status, _, body := get(t, srv.URL+"/healthz"); status != http.StatusServiceUnavailable || !strings.Contains(string(body), `"empty"`) {
		t.Fatalf("empty store healthz: status %d body %q, want 503 empty", status, body)
	}
}

// TestServerTimeouts pins the http.Server wiring both fronts share: the
// listener runs with the hardened default bounds and tracks connection
// states.
func TestServerTimeouts(t *testing.T) {
	hs := new(Front).httpServer(NewStore(remstore.New(0), Options{}))
	if hs.ReadHeaderTimeout != DefaultReadHeaderTimeout || hs.ReadTimeout != DefaultReadTimeout || hs.IdleTimeout != DefaultIdleTimeout {
		t.Fatalf("default timeouts = %v/%v/%v", hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}
	if hs.ConnState == nil {
		t.Fatal("no connection-state tracking")
	}
}
