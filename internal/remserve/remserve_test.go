package remserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/rem"
	"repro/internal/remshard"
	"repro/internal/remstore"
)

// testVolume is a small volume with non-trivial bounds.
func testVolume() geom.Cuboid {
	return geom.Cuboid{Min: geom.V(0, 0, 0), Max: geom.V(4, 3, 2.6)}
}

// testPredict is a deterministic synthetic predictor: value depends on
// position and key only, so any build path produces identical maps.
func testPredict(centers []geom.Vec3, keyIdx int) ([]float64, error) {
	out := make([]float64, len(centers))
	for i, p := range centers {
		out[i] = -60 - p.X - 2*p.Y - 3*p.Z - float64(keyIdx)
	}
	return out, nil
}

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("AA:BB:00:00:00:%02X", i)
	}
	return keys
}

func allDirty(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// newServedShards builds a fully-published sharded store over nKeys
// keys and shards shards, plus the equivalent monolithic map.
func newServedShards(t testing.TB, nKeys, shards int) (*remshard.ShardedStore, *rem.Map, []string) {
	t.Helper()
	keys := testKeys(nKeys)
	ss, err := remshard.New(keys, remshard.Config{
		Shards: shards, Volume: testVolume(), Resolution: [3]int{8, 6, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Rebuild(allDirty(nKeys), testPredict, rem.BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	mono, err := rem.BuildMapBatch(testVolume(), 8, 6, 4, keys, testPredict, rem.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ss, mono, keys
}

func testPoints() []geom.Vec3 {
	return []geom.Vec3{
		geom.V(2, 1.5, 1.3),
		geom.V(0, 0, 0),
		geom.V(4, 3, 2.6),
		geom.V(-1, 10, 0.5), // clamped into the volume
		geom.V(3.3, 0.1, 2),
	}
}

// wireFloat renders a float the way the wire format does — an
// independent mirror of the handler's encoder, so an encoding bug
// cannot cancel itself out of the byte comparison.
func wireFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "null"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func get(t testing.TB, url string) (int, http.Header, []byte) {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return r.StatusCode, r.Header, body
}

// TestRule8OverTheWire pins the acceptance identity: for shard counts
// 1, 2 and 4, every byte served over HTTP equals what the direct
// library calls return — /at and /strongest render the exact value
// bits the sharded store (and, by rule 8, the monolithic map) answers,
// and /snapshot streams exactly MergedSnapshot().WriteTo.
func TestRule8OverTheWire(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			ss, mono, keys := newServedShards(t, 9, shards)
			srv := httptest.NewServer(NewSharded(ss, Options{}))
			defer srv.Close()

			for _, key := range keys {
				for _, p := range testPoints() {
					want, wantVer, err := ss.At(key, p)
					if err != nil {
						t.Fatal(err)
					}
					monoWant, err := mono.At(key, p)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(want) != math.Float64bits(monoWant) {
						t.Fatalf("rule 8 broken in the library itself: %v vs %v", want, monoWant)
					}
					status, _, body := get(t, fmt.Sprintf("%s/at?key=%s&x=%g&y=%g&z=%g", srv.URL, key, p.X, p.Y, p.Z))
					if status != http.StatusOK {
						t.Fatalf("GET /at: status %d: %s", status, body)
					}
					exp := fmt.Sprintf("{\"key\":%q,\"value\":%s,\"version\":%d}\n", key, wireFloat(want), wantVer)
					if string(body) != exp {
						t.Fatalf("GET /at bytes:\n got %q\nwant %q", body, exp)
					}
				}
			}

			// Batch POST ≡ the pointwise answers, one snapshot version.
			key := keys[3]
			pts := testPoints()
			reqBody := map[string]any{"key": key, "points": [][3]float64{}}
			ptsArr := make([][3]float64, len(pts))
			for i, p := range pts {
				ptsArr[i] = [3]float64{p.X, p.Y, p.Z}
			}
			reqBody["points"] = ptsArr
			enc, err := json.Marshal(reqBody)
			if err != nil {
				t.Fatal(err)
			}
			wantVals, wantVer, err := ss.AtBatch(key, pts)
			if err != nil {
				t.Fatal(err)
			}
			r, err := http.Post(srv.URL+"/at", "application/json", bytes.NewReader(enc))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(r.Body)
			r.Body.Close()
			if r.StatusCode != http.StatusOK {
				t.Fatalf("POST /at: status %d: %s", r.StatusCode, body)
			}
			var sb bytes.Buffer
			fmt.Fprintf(&sb, "{\"key\":%q,\"values\":[", key)
			for i, v := range wantVals {
				if i > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString(wireFloat(v))
			}
			fmt.Fprintf(&sb, "],\"version\":%d}\n", wantVer)
			if string(body) != sb.String() {
				t.Fatalf("POST /at bytes:\n got %q\nwant %q", body, sb.String())
			}

			// Strongest ≡ library merge (and the monolithic winner).
			for _, p := range testPoints() {
				wk, wv, wver, err := ss.Strongest(p)
				if err != nil {
					t.Fatal(err)
				}
				mk, mv := mono.Strongest(p)
				if wk != mk || math.Float64bits(wv) != math.Float64bits(mv) {
					t.Fatalf("rule 8 broken in the library itself: %s %v vs %s %v", wk, wv, mk, mv)
				}
				status, _, body := get(t, fmt.Sprintf("%s/strongest?x=%g&y=%g&z=%g", srv.URL, p.X, p.Y, p.Z))
				if status != http.StatusOK {
					t.Fatalf("GET /strongest: status %d: %s", status, body)
				}
				exp := fmt.Sprintf("{\"key\":%q,\"value\":%s,\"version\":%d}\n", wk, wireFloat(wv), wver)
				if string(body) != exp {
					t.Fatalf("GET /strongest bytes:\n got %q\nwant %q", body, exp)
				}
			}

			// Snapshot ≡ direct codec export of the same generation —
			// and Map.Equal to the monolithic build (rule 8).
			merged, versions, err := ss.MergedSnapshotVersions()
			if err != nil {
				t.Fatal(err)
			}
			if !merged.Equal(mono) {
				t.Fatal("rule 8 broken in the library itself: merged ≠ monolithic")
			}
			var direct bytes.Buffer
			if _, err := merged.WriteTo(&direct); err != nil {
				t.Fatal(err)
			}
			status, hdr, body := get(t, srv.URL+"/snapshot")
			if status != http.StatusOK {
				t.Fatalf("GET /snapshot: status %d", status)
			}
			if !bytes.Equal(body, direct.Bytes()) {
				t.Fatalf("GET /snapshot bytes differ from direct WriteTo (%d vs %d bytes)", len(body), direct.Len())
			}
			wantTag := versionTag(versions)
			if got := hdr.Get("ETag"); got != `"`+wantTag+`"` {
				t.Fatalf("ETag %q, want %q", got, `"`+wantTag+`"`)
			}
			restored, err := rem.ReadFrom(bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if !restored.Equal(merged) {
				t.Fatal("snapshot bytes do not restore the serving map")
			}
		})
	}
}

// TestMonolithicBackend drives the same wire shapes through a plain
// remstore.Store backend.
func TestMonolithicBackend(t *testing.T) {
	_, mono, keys := newServedShards(t, 5, 1)
	st := remstore.New(0)
	if _, err := st.Publish(mono, len(keys)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewStore(st, Options{}))
	defer srv.Close()

	p := geom.V(1.2, 0.7, 2.0)
	want, wantVer, err := st.At(keys[2], p)
	if err != nil {
		t.Fatal(err)
	}
	status, _, body := get(t, fmt.Sprintf("%s/at?key=%s&x=%g&y=%g&z=%g", srv.URL, keys[2], p.X, p.Y, p.Z))
	if status != http.StatusOK {
		t.Fatalf("GET /at: status %d: %s", status, body)
	}
	exp := fmt.Sprintf("{\"key\":%q,\"value\":%s,\"version\":%d}\n", keys[2], wireFloat(want), wantVer)
	if string(body) != exp {
		t.Fatalf("GET /at bytes:\n got %q\nwant %q", body, exp)
	}

	var direct bytes.Buffer
	if _, err := mono.WriteTo(&direct); err != nil {
		t.Fatal(err)
	}
	status, hdr, body := get(t, srv.URL+"/snapshot")
	if status != http.StatusOK || !bytes.Equal(body, direct.Bytes()) {
		t.Fatalf("GET /snapshot: status %d, byte match %v", status, bytes.Equal(body, direct.Bytes()))
	}
	if got := hdr.Get("ETag"); got != `"1"` {
		t.Fatalf("ETag %q, want %q", got, `"1"`)
	}

	status, _, body = get(t, srv.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("GET /healthz: status %d: %s", status, body)
	}
	exp = "{\"status\":\"serving\",\"shards\":1,\"version\":\"1\"}\n"
	if string(body) != exp {
		t.Fatalf("GET /healthz bytes:\n got %q\nwant %q", body, exp)
	}
	status, _, body = get(t, srv.URL+"/version")
	if status != http.StatusOK || string(body) != "{\"version\":\"1\",\"shards\":1}\n" {
		t.Fatalf("GET /version: status %d body %q", status, body)
	}
}

// TestETagTracksRebuilds pins the cache contract: If-None-Match on the
// serving tag answers 304 with no body; any shard republishing changes
// the tag and revalidation serves the new bytes.
func TestETagTracksRebuilds(t *testing.T) {
	ss, _, _ := newServedShards(t, 6, 2)
	srv := httptest.NewServer(NewSharded(ss, Options{}))
	defer srv.Close()

	_, hdr, first := get(t, srv.URL+"/snapshot")
	etag := hdr.Get("ETag")

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/snapshot", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", etag)
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("revalidation: status %d, %d body bytes (want 304, 0)", r.StatusCode, len(body))
	}
	if got := r.Header.Get("ETag"); got != etag {
		t.Fatalf("304 ETag %q, want %q", got, etag)
	}

	// Republishing one shard must change the tag: the same
	// If-None-Match now misses and the new generation is served.
	if _, err := ss.Rebuild([]int{0}, testPredict, rem.BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	r, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("post-rebuild revalidation: status %d, want 200", r.StatusCode)
	}
	if r.Header.Get("ETag") == etag {
		t.Fatal("ETag did not change across a rebuild")
	}
	// The predictor is pure, so the rebuilt generation holds identical
	// cells — only the map-version provenance moved. The served bytes
	// must restore to a map Equal to the first download's.
	restored, err := rem.ReadFrom(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post-rebuild snapshot not restorable: %v", err)
	}
	was, err := rem.ReadFrom(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Equal(was) {
		t.Fatal("pure-predictor rebuild changed served cells")
	}
}

// TestHammerUnderRebuilds is the acceptance hammer: HTTP readers on
// /at, /strongest, /snapshot, /version and /healthz race a writer that
// keeps republishing shards. Run under -race this proves the serving
// path shares no unsynchronised state with rebuilds; every response
// must be well-formed and every value must equal the library's answer
// bit for bit at some serving generation (values are
// generation-independent here by construction, so equality is exact).
func TestHammerUnderRebuilds(t *testing.T) {
	const nKeys = 8
	ss, mono, keys := newServedShards(t, nKeys, 4)
	srv := httptest.NewServer(NewSharded(ss, Options{}))
	defer srv.Close()

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			dirty := []int{i % nKeys, (i + 3) % nKeys}
			if _, err := ss.Rebuild(dirty, testPredict, rem.BuildOptions{Workers: 2}); err != nil {
				t.Errorf("rebuild: %v", err)
				return
			}
		}
	}()

	client := srv.Client()
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			pts := testPoints()
			for i := 0; i < 150; i++ {
				key := keys[(g+i)%len(keys)]
				p := pts[i%len(pts)]
				r, err := client.Get(fmt.Sprintf("%s/at?key=%s&x=%g&y=%g&z=%g", srv.URL, key, p.X, p.Y, p.Z))
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(r.Body)
				r.Body.Close()
				if r.StatusCode != http.StatusOK {
					t.Errorf("GET /at status %d: %s", r.StatusCode, body)
					return
				}
				var resp struct {
					Key     string   `json:"key"`
					Value   *float64 `json:"value"`
					Version uint64   `json:"version"`
				}
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Errorf("GET /at body %q: %v", body, err)
					return
				}
				want, err := mono.At(key, p)
				if err != nil {
					t.Error(err)
					return
				}
				if resp.Value == nil || math.Float64bits(*resp.Value) != math.Float64bits(want) {
					t.Errorf("GET /at %s: value %v, want %v", key, resp.Value, want)
					return
				}
				switch i % 10 {
				case 3:
					r, err := client.Get(srv.URL + "/strongest?x=1&y=1&z=1")
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, r.Body)
					r.Body.Close()
					if r.StatusCode != http.StatusOK {
						t.Errorf("GET /strongest status %d", r.StatusCode)
						return
					}
				case 5:
					r, err := client.Get(srv.URL + "/snapshot")
					if err != nil {
						t.Error(err)
						return
					}
					snap, _ := io.ReadAll(r.Body)
					r.Body.Close()
					if r.StatusCode != http.StatusOK {
						t.Errorf("GET /snapshot status %d", r.StatusCode)
						return
					}
					m, err := rem.ReadFrom(bytes.NewReader(snap))
					if err != nil {
						t.Errorf("snapshot under rebuild not restorable: %v", err)
						return
					}
					if !m.Equal(mono) {
						t.Error("snapshot under rebuild differs from the invariant map")
						return
					}
				case 7:
					r, err := client.Get(srv.URL + "/version")
					if err != nil {
						t.Error(err)
						return
					}
					var v struct{ Shards int }
					err = json.NewDecoder(r.Body).Decode(&v)
					r.Body.Close()
					if err != nil || v.Shards != 4 {
						t.Errorf("GET /version: %v (shards %d)", err, v.Shards)
						return
					}
				case 9:
					r, err := client.Get(srv.URL + "/healthz")
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, r.Body)
					r.Body.Close()
					if r.StatusCode != http.StatusOK {
						t.Errorf("GET /healthz status %d under rebuilds", r.StatusCode)
						return
					}
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}

// gatedBackend wraps a Backend so a test can hold an in-flight query
// open across a Shutdown call.
type gatedBackend struct {
	Backend
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gatedBackend) At(key string, p geom.Vec3) (float64, uint64, error) {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return g.Backend.At(key, p)
}

// TestShutdownDrains pins graceful shutdown: a query already past the
// accept point completes with its full response while Shutdown waits,
// and the listener stops accepting new work afterwards.
func TestShutdownDrains(t *testing.T) {
	ss, _, keys := newServedShards(t, 4, 2)
	gb := &gatedBackend{
		Backend: ShardedBackend(ss),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	srv := New(gb, Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	type result struct {
		status int
		body   []byte
		err    error
	}
	resCh := make(chan result, 1)
	go func() {
		r, err := http.Get(fmt.Sprintf("http://%s/at?key=%s&x=1&y=1", l.Addr(), keys[0]))
		if err != nil {
			resCh <- result{err: err}
			return
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		resCh <- result{status: r.StatusCode, body: body}
	}()
	select {
	case <-gb.entered:
	case res := <-resCh:
		t.Fatalf("request completed without entering the backend: status %d err %v", res.status, res.err)
	}

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutDone <- srv.Shutdown(ctx)
	}()
	// Shutdown must be waiting on the in-flight request, not killing it.
	select {
	case err := <-shutDone:
		t.Fatalf("Shutdown returned %v with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gb.release)
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	res := <-resCh
	if res.err != nil || res.status != http.StatusOK {
		t.Fatalf("in-flight request not drained: status %d err %v", res.status, res.err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after clean Shutdown", err)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", l.Addr())); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
}
