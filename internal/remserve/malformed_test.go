package remserve

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/rem"
	"repro/internal/remshard"
	"repro/internal/remstore"
	"repro/internal/remwal"
)

// TestMalformedRequests is the table of everything a client can get
// wrong: bad and non-finite floats, missing parameters, unknown keys,
// oversized and malformed batch bodies, JSON rows of the wrong width,
// wrong methods and unknown paths — each pinned to its status code. A
// rejected request leaves the ingest queue as it found it.
func TestMalformedRequests(t *testing.T) {
	ss, _, keys := newServedShards(t, 4, 2)
	// Ingest enabled with the serving vocabulary as validator, so
	// POST /observe shares the table (and the body/point caps) with
	// the read batches.
	vocab := make(map[string]bool, len(keys))
	for _, k := range keys {
		vocab[k] = true
	}
	q := remwal.NewQueue(remwal.QueueConfig{Capacity: 64})
	defer q.Close()
	q.SetValidator(func(b remwal.Batch) error {
		if !vocab[b.Key] {
			return fmt.Errorf("%w: %q", rem.ErrUnknownKey, b.Key)
		}
		return nil
	})
	srv := httptest.NewServer(NewSharded(ss, Options{
		MaxBatchBytes: 256, MaxBatchPoints: 4,
		Ingest: IngestOptions{Queue: q},
	}))
	defer srv.Close()
	key := keys[0]

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		ct     string // Content-Type; "" means none (JSON path)
		want   int
		allow  string // expected Allow header on 405s
	}{
		{name: "at ok", method: "GET", path: "/at?key=" + key + "&x=1&y=1&z=1", want: 200},
		{name: "at missing key", method: "GET", path: "/at?x=1&y=1", want: 400},
		{name: "at missing y", method: "GET", path: "/at?key=" + key + "&x=1", want: 400},
		{name: "at bad float", method: "GET", path: "/at?key=" + key + "&x=abc&y=1", want: 400},
		{name: "at empty float", method: "GET", path: "/at?key=" + key + "&x=&y=1", want: 400},
		{name: "at NaN", method: "GET", path: "/at?key=" + key + "&x=NaN&y=1", want: 400},
		{name: "at Inf", method: "GET", path: "/at?key=" + key + "&x=1&y=-Inf", want: 400},
		{name: "at escaped exponent sign", method: "GET", path: "/at?key=" + key + "&x=1e%2B0&y=1", want: 200},
		{name: "at literal plus is a space", method: "GET", path: "/at?key=" + key + "&x=1e+0&y=1", want: 400},
		{name: "at unknown key", method: "GET", path: "/at?key=nope&x=1&y=1", want: 404},
		{name: "at bad escape", method: "GET", path: "/at?key=%zz&x=1&y=1", want: 400},
		{name: "at wrong method", method: "DELETE", path: "/at?key=" + key + "&x=1&y=1", want: 405, allow: "GET, POST"},
		{name: "strongest ok", method: "GET", path: "/strongest?x=1&y=1", want: 200},
		{name: "strongest bad float", method: "GET", path: "/strongest?x=1&y=1e", want: 400},
		{name: "strongest wrong method", method: "DELETE", path: "/strongest?x=1&y=1", want: 405, allow: "GET, POST"},
		{name: "strongest batch ok", method: "POST", path: "/strongest", body: `{"points":[[1,1,1]]}`, want: 200},
		{name: "strongest batch empty points", method: "POST", path: "/strongest", body: `{"points":[]}`, want: 200},
		{name: "strongest batch key ignored", method: "POST", path: "/strongest", body: `{"key":"nope","points":[[1,1,1]]}`, want: 200},
		{name: "strongest batch bad json", method: "POST", path: "/strongest", body: `{"points":`, want: 400},
		{name: "strongest batch overflow point", method: "POST", path: "/strongest", body: `{"points":[[1,1e999,1]]}`, want: 400},
		{name: "strongest batch too many points", method: "POST", path: "/strongest",
			body: `{"points":[[1,1,1],[1,1,1],[1,1,1],[1,1,1],[1,1,1]]}`, want: 413},
		{name: "strongest batch 2-wide point", method: "POST", path: "/strongest", body: `{"points":[[1,1]]}`, want: 400},
		{name: "strongest batch 4-wide point", method: "POST", path: "/strongest", body: `{"points":[[1,1,1,1]]}`, want: 400},
		{name: "strongest batch null coordinate", method: "POST", path: "/strongest", body: `{"points":[[1,null,1]]}`, want: 400},
		{name: "batch ok", method: "POST", path: "/at", body: `{"key":"` + key + `","points":[[1,1,1]]}`, want: 200},
		{name: "batch empty points", method: "POST", path: "/at", body: `{"key":"` + key + `","points":[]}`, want: 200},
		{name: "batch bad json", method: "POST", path: "/at", body: `{"key":`, want: 400},
		{name: "batch missing key", method: "POST", path: "/at", body: `{"points":[[1,1,1]]}`, want: 400},
		{name: "batch unknown key", method: "POST", path: "/at", body: `{"key":"nope","points":[[1,1,1]]}`, want: 404},
		{name: "batch overflow point", method: "POST", path: "/at", body: `{"key":"` + key + `","points":[[1,1e999,1]]}`, want: 400},
		{name: "batch too many points", method: "POST", path: "/at",
			body: `{"key":"` + key + `","points":[[1,1,1],[1,1,1],[1,1,1],[1,1,1],[1,1,1]]}`, want: 413},
		{name: "batch 2-wide point", method: "POST", path: "/at", body: `{"key":"` + key + `","points":[[1,1]]}`, want: 400},
		{name: "batch 4-wide point", method: "POST", path: "/at", body: `{"key":"` + key + `","points":[[1,1,1,1]]}`, want: 400},
		{name: "batch null coordinate", method: "POST", path: "/at", body: `{"key":"` + key + `","points":[[1,null,1]]}`, want: 400},
		{name: "batch oversized body", method: "POST", path: "/at",
			body: `{"key":"` + key + `","points":[[1,1,1]],"pad":"` + strings.Repeat("x", 300) + `"}`, want: 413},
		{name: "batch wire truncated body", method: "POST", path: "/at", body: "REMQ\x01\x00", ct: WireContentType, want: 400},
		{name: "batch wire wrong magic", method: "POST", path: "/at",
			body: "XERT" + strings.Repeat("\x00", 12), ct: WireContentType, want: 400},
		{name: "strongest wire truncated body", method: "POST", path: "/strongest", body: "REMQ\x01\x00", ct: WireContentType, want: 400},
		{name: "strongest wire wrong magic", method: "POST", path: "/strongest",
			body: "XERT" + strings.Repeat("\x00", 12), ct: WireContentType, want: 400},
		{name: "observe ok", method: "POST", path: "/observe", body: `{"key":"` + key + `","observations":[[1,1,1,-50]]}`, want: 200},
		{name: "observe wrong method", method: "GET", path: "/observe", want: 405, allow: "POST"},
		{name: "observe truncated json", method: "POST", path: "/observe", body: `{"key":`, want: 400},
		{name: "observe missing key", method: "POST", path: "/observe", body: `{"observations":[[1,1,1,-50]]}`, want: 400},
		{name: "observe unknown key", method: "POST", path: "/observe", body: `{"key":"nope","observations":[[1,1,1,-50]]}`, want: 404},
		{name: "observe empty batch", method: "POST", path: "/observe", body: `{"key":"` + key + `","observations":[]}`, want: 400},
		{name: "observe non-finite value", method: "POST", path: "/observe",
			body: `{"key":"` + key + `","observations":[[1,1,1,1e999]]}`, want: 400},
		{name: "observe 0-wide row", method: "POST", path: "/observe", body: `{"key":"` + key + `","observations":[[]]}`, want: 400},
		{name: "observe 3-wide row", method: "POST", path: "/observe", body: `{"key":"` + key + `","observations":[[1,1,1]]}`, want: 400},
		{name: "observe 5-wide row", method: "POST", path: "/observe",
			body: `{"key":"` + key + `","observations":[[1,1,1,-50,99]]}`, want: 400},
		{name: "observe null value", method: "POST", path: "/observe", body: `{"key":"` + key + `","observations":[[1,1,1,null]]}`, want: 400},
		{name: "observe string value", method: "POST", path: "/observe", body: `{"key":"` + key + `","observations":[[1,1,1,"-50"]]}`, want: 400},
		{name: "observe too many points", method: "POST", path: "/observe",
			body: `{"key":"` + key + `","observations":[[1,1,1,-50],[1,1,1,-50],[1,1,1,-50],[1,1,1,-50],[1,1,1,-50]]}`, want: 413},
		{name: "observe oversized body", method: "POST", path: "/observe",
			body: `{"key":"` + key + `","observations":[[1,1,1,-50]],"pad":"` + strings.Repeat("x", 300) + `"}`, want: 413},
		{name: "observe wire truncated body", method: "POST", path: "/observe", body: "REMO\x01\x00", ct: WireContentType, want: 400},
		{name: "observe wire wrong magic", method: "POST", path: "/observe",
			body: "XERT" + strings.Repeat("\x00", 12), ct: WireContentType, want: 400},
		{name: "snapshot wrong method", method: "POST", path: "/snapshot", body: "{}", want: 405, allow: "GET"},
		{name: "stats gone", method: "GET", path: "/stats", want: 404},
		{name: "healthz wrong method", method: "POST", path: "/healthz", body: "{}", want: 405, allow: "GET"},
		{name: "version wrong method", method: "PATCH", path: "/version", body: "{}", want: 405, allow: "GET"},
		{name: "unknown path", method: "GET", path: "/nope", want: 404},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.ct != "" {
				req.Header.Set("Content-Type", tc.ct)
			}
			queued := q.Len()
			r, err := srv.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			if r.StatusCode != tc.want {
				t.Fatalf("%s %s: status %d, want %d", tc.method, tc.path, r.StatusCode, tc.want)
			}
			if tc.want != 200 && q.Len() != queued {
				t.Fatalf("rejected request changed the ingest queue length %d → %d", queued, q.Len())
			}
			if tc.allow != "" {
				if got := r.Header.Get("Allow"); got != tc.allow {
					t.Fatalf("Allow %q, want %q", got, tc.allow)
				}
			}
		})
	}
}

// TestEmptyAndPartialStores pins the 503 surface: an empty store
// (nothing published) refuses every query retryably, a sharded store
// mid-first-round serves the published shards' keys but refuses the
// merged snapshot with 503 until every shard has published.
func TestEmptyAndPartialStores(t *testing.T) {
	keys := testKeys(4)
	// Explicit split: keys 0,1 → shard 0; keys 2,3 → shard 1.
	part := remshard.Explicit{Assign: map[string]int{
		keys[0]: 0, keys[1]: 0, keys[2]: 1, keys[3]: 1,
	}}
	ss, err := remshard.New(keys, remshard.Config{
		Shards: 2, Partitioner: part, Volume: testVolume(), Resolution: [3]int{8, 6, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewSharded(ss, Options{}))
	defer srv.Close()

	for _, path := range []string{
		"/at?key=" + keys[0] + "&x=1&y=1",
		"/strongest?x=1&y=1",
		"/snapshot",
		"/healthz",
	} {
		status, _, body := get(t, srv.URL+path)
		if status != http.StatusServiceUnavailable {
			t.Fatalf("GET %s on empty store: status %d, want 503 (%s)", path, status, body)
		}
	}
	if _, _, body := get(t, srv.URL+"/healthz"); string(body) != `{"status":"empty","shards":2,"pending_shards":2,"version":"0.0"}`+"\n" {
		t.Fatalf("empty store healthz body %q", body)
	}
	// /version answers even when empty.
	if status, _, body := get(t, srv.URL+"/version"); status != 200 || string(body) != "{\"version\":\"0.0\",\"shards\":2}\n" {
		t.Fatalf("GET /version on empty store: status %d body %q", status, body)
	}

	// Publish shard 0 only: its keys serve, shard 1's still 503, and
	// the merged snapshot (and healthz) stay 503 — partial, retryable.
	if _, err := ss.Rebuild([]int{0, 1}, testPredict, rem.BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	if status, _, _ := get(t, srv.URL+"/at?key="+keys[0]+"&x=1&y=1"); status != 200 {
		t.Fatalf("published shard's key: status %d, want 200", status)
	}
	if status, _, _ := get(t, srv.URL+"/at?key="+keys[2]+"&x=1&y=1"); status != http.StatusServiceUnavailable {
		t.Fatalf("unpublished shard's key: status %d, want 503", status)
	}
	status, _, body := get(t, srv.URL+"/snapshot")
	if status != http.StatusServiceUnavailable || !strings.Contains(string(body), "pending") {
		t.Fatalf("partial store snapshot: status %d body %q, want 503 + pending", status, body)
	}
	// A partial store is "degraded", not "empty": the body names the
	// condition and counts the pending shards, so the probe distinguishes
	// a store mid-first-round from one that has never published.
	if status, _, body := get(t, srv.URL+"/healthz"); status != http.StatusServiceUnavailable ||
		string(body) != `{"status":"degraded","shards":2,"pending_shards":1,"version":"1.0"}`+"\n" {
		t.Fatalf("partial store healthz: status %d body %q, want 503 degraded with pending_shards", status, body)
	}

	// Complete the first round: everything serves.
	if _, err := ss.Rebuild([]int{2, 3}, testPredict, rem.BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	if status, _, body := get(t, srv.URL+"/healthz"); status != 200 || string(body) != `{"status":"serving","shards":2,"version":"1.1"}`+"\n" {
		t.Fatalf("complete store healthz: status %d body %q", status, body)
	}
	if status, _, _ := get(t, srv.URL+"/snapshot"); status != 200 {
		t.Fatalf("complete store snapshot: status %d", status)
	}
}

// TestUnknownKeySentinel pins the error-routing contract the 404
// mapping rests on, at both store layers.
func TestUnknownKeySentinel(t *testing.T) {
	ss, mono, _ := newServedShards(t, 3, 2)
	if _, _, err := ss.At("nope", testPoints()[0]); !errors.Is(err, rem.ErrUnknownKey) {
		t.Fatalf("sharded unknown key error %v does not wrap rem.ErrUnknownKey", err)
	}
	st := remstore.New(0)
	if _, err := st.Publish(mono, 3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.At("nope", testPoints()[0]); !errors.Is(err, rem.ErrUnknownKey) {
		t.Fatalf("store unknown key error %v does not wrap rem.ErrUnknownKey", err)
	}
}
