package remfollow

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/rem"
	"repro/internal/remserve"
	"repro/internal/remshard"
)

var testVol = geom.MustCuboid(geom.V(0, 0, 0), 4, 3, 2.6)

const (
	testNX = 8
	testNY = 6
	testNZ = 4
)

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

// leaderHarness is an in-process leader: a sharded store behind a real
// remserve HTTP server, with a generation-counting predictor so every
// round produces a genuinely new field, and a record of every merged
// generation's snapshot bytes — the ground truth the "never serves a
// non-leader generation" invariant checks against.
type leaderHarness struct {
	t     *testing.T
	keys  []string
	ss    *remshard.ShardedStore
	srv   *httptest.Server
	gen   int
	bytes [][]byte // codec bytes of every generation ever served
}

func newLeader(t *testing.T, nKeys, shards int) *leaderHarness {
	t.Helper()
	keys := testKeys(nKeys)
	ss, err := remshard.New(keys, remshard.Config{
		Shards: shards, Volume: testVol, Resolution: [3]int{testNX, testNY, testNZ},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := &leaderHarness{t: t, keys: keys, ss: ss}
	h.srv = httptest.NewServer(remserve.NewSharded(ss, remserve.Options{}))
	t.Cleanup(h.srv.Close)
	return h
}

func (h *leaderHarness) predict(centers []geom.Vec3, gi int) ([]float64, error) {
	out := make([]float64, len(centers))
	g := float64(h.gen)
	for i, p := range centers {
		out[i] = -55 - p.X*float64(1+gi%3) - 2*p.Y + p.Z - float64(gi) - 3*g
	}
	return out, nil
}

// round advances every key one generation (uniform version vectors, so
// the merged map version advances every round).
func (h *leaderHarness) round() {
	h.t.Helper()
	h.gen++
	if _, err := h.ss.Rebuild(allDirty(len(h.keys)), h.predict, rem.BuildOptions{}); err != nil {
		h.t.Fatal(err)
	}
	m, err := h.ss.MergedSnapshot()
	if err != nil {
		h.t.Fatal(err)
	}
	h.bytes = append(h.bytes, snapshotBytes(h.t, m))
}

func snapshotBytes(t *testing.T, m *rem.Map) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newFollower builds a follower of h with deterministic time/jitter and
// an optional fault transport.
func newFollower(t *testing.T, h *leaderHarness, ft *FaultTransport, mut func(*Config)) *Follower {
	t.Helper()
	cfg := Config{
		Leader: h.srv.URL,
		Rand:   func() float64 { return 0.5 },
	}
	if ft != nil {
		ft.Inner = h.srv.Client().Transport
		cfg.Client = &http.Client{Transport: ft}
	}
	if mut != nil {
		mut(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// followerBytes renders the follower's serving generation through the
// snapshot codec.
func followerBytes(t *testing.T, f *Follower) []byte {
	t.Helper()
	g := f.gen.Load()
	if g == nil {
		t.Fatal("follower serves nothing")
	}
	return snapshotBytes(t, g.m)
}

// assertServesLeaderGeneration pins the robustness invariant: whatever
// the follower serves is bit-identical to SOME generation the leader
// actually published — corrupt and truncated payloads must never leak
// into the serving path.
func assertServesLeaderGeneration(t *testing.T, h *leaderHarness, f *Follower) {
	t.Helper()
	got := followerBytes(t, f)
	for _, b := range h.bytes {
		if bytes.Equal(got, b) {
			return
		}
	}
	t.Fatal("follower serves bytes matching no leader generation")
}

// TestFollowerMirrorsLeader: first sync is a full snapshot, later syncs
// ride the delta wire, an unchanged leader costs a 304 — and after every
// sync the follower's bytes equal the leader's current bytes.
func TestFollowerMirrorsLeader(t *testing.T) {
	h := newLeader(t, 9, 2)
	h.round()
	f := newFollower(t, h, nil, nil)
	ctx := context.Background()

	if err := f.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(followerBytes(t, f), h.bytes[len(h.bytes)-1]) {
		t.Fatal("follower differs after full sync")
	}
	if s := f.SyncStats(); s.Fulls != 1 || s.Deltas != 0 {
		t.Fatalf("stats after first sync: %+v", s)
	}

	// Unchanged leader: a 304, no bytes.
	if err := f.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if s := f.SyncStats(); s.NotModified != 1 {
		t.Fatalf("stats after idle sync: %+v", s)
	}

	// Changed leader: the delta path, cheaper than the full codec.
	for i := 0; i < 3; i++ {
		h.round()
		if err := f.SyncOnce(ctx); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(followerBytes(t, f), h.bytes[len(h.bytes)-1]) {
			t.Fatalf("follower differs after delta sync %d", i)
		}
	}
	s := f.SyncStats()
	if s.Deltas != 3 || s.Fulls != 1 {
		t.Fatalf("stats after delta syncs: %+v", s)
	}
	if s.DeltaBytes == 0 || s.FullBytes == 0 {
		t.Fatalf("byte counters not tracked: %+v", s)
	}
}

// TestRule8Replica pins the acceptance identity: for shard counts 1, 2
// and 4, the follower's /at, /strongest and /snapshot responses are
// byte-identical to the leader's at the same version vector — version
// fields included.
func TestRule8Replica(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			h := newLeader(t, 9, shards)
			h.round()
			h.round()
			f := newFollower(t, h, nil, nil)
			if err := f.SyncOnce(context.Background()); err != nil {
				t.Fatal(err)
			}
			h.round()
			if err := f.SyncOnce(context.Background()); err != nil {
				t.Fatal(err)
			}
			fsrv := httptest.NewServer(f)
			defer fsrv.Close()

			paths := []string{
				"/snapshot",
				"/version",
				"/strongest?x=2&y=1.5&z=1.3",
				"/strongest?x=0.3&y=2.9&z=0.1",
			}
			for _, k := range h.keys {
				paths = append(paths, "/at?key="+k+"&x=1&y=1&z=1", "/at?key="+k+"&x=3.7&y=0.2&z=2.2")
			}
			for _, path := range paths {
				ls, lh, lb := get(t, h.srv.URL+path)
				fs, fh, fb := get(t, fsrv.URL+path)
				if ls != fs || !bytes.Equal(lb, fb) {
					t.Fatalf("%s: leader %d %q, follower %d %q", path, ls, lb, fs, fb)
				}
				if path == "/snapshot" && lh.Get("ETag") != fh.Get("ETag") {
					t.Fatalf("/snapshot ETag: leader %q, follower %q", lh.Get("ETag"), fh.Get("ETag"))
				}
			}
		})
	}
}

// TestFollowerCoverIndex: the replica's serving map carries a coverage
// index after both sync paths — the full-snapshot first sync (publish
// builds it) and delta syncs (ApplyDelta mends the previous index) —
// and the indexed answers match the brute scan bit for bit (rule 9 at
// the replica). POST /strongest on the replica front matches the
// leader's batch answers.
func TestFollowerCoverIndex(t *testing.T) {
	h := newLeader(t, 9, 2)
	h.round()
	f := newFollower(t, h, nil, nil)
	ctx := context.Background()
	if err := f.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	pts := []geom.Vec3{
		geom.V(2, 1.5, 1.3), geom.V(0, 0, 0), geom.V(4, 3, 2.6), geom.V(0.7, 2.1, 0.4),
	}
	checkIndexed := func(stage string) {
		t.Helper()
		g := f.gen.Load()
		if g == nil {
			t.Fatalf("%s: follower serves nothing", stage)
		}
		if !g.m.HasCoverIndex() {
			t.Fatalf("%s: serving map has no coverage index", stage)
		}
		for _, p := range pts {
			ik, iv := g.m.Strongest(p)
			bk, bv := g.m.StrongestBrute(p)
			if ik != bk || iv != bv {
				t.Fatalf("%s: indexed (%q, %v) != brute (%q, %v) at %v", stage, ik, iv, bk, bv, p)
			}
		}
	}
	checkIndexed("after full sync")
	for i := 0; i < 3; i++ {
		h.round()
		if err := f.SyncOnce(ctx); err != nil {
			t.Fatal(err)
		}
		checkIndexed(fmt.Sprintf("after delta sync %d", i))
	}
	if s := f.SyncStats(); s.Deltas == 0 {
		t.Fatalf("no delta syncs happened: %+v", s)
	}

	// The replica's batch endpoint answers byte-identically to the
	// leader's.
	fsrv := httptest.NewServer(f)
	defer fsrv.Close()
	body := `{"points":[[2,1.5,1.3],[0,0,0],[4,3,2.6],[0.7,2.1,0.4]]}`
	lreq, _ := http.NewRequest(http.MethodPost, h.srv.URL+"/strongest", strings.NewReader(body))
	lreq.Header.Set("Content-Type", "application/json")
	lr, err := http.DefaultClient.Do(lreq)
	if err != nil {
		t.Fatal(err)
	}
	lb, _ := io.ReadAll(lr.Body)
	lr.Body.Close()
	freq, _ := http.NewRequest(http.MethodPost, fsrv.URL+"/strongest", strings.NewReader(body))
	freq.Header.Set("Content-Type", "application/json")
	fr, err := http.DefaultClient.Do(freq)
	if err != nil {
		t.Fatal(err)
	}
	fb, _ := io.ReadAll(fr.Body)
	fr.Body.Close()
	if lr.StatusCode != 200 || fr.StatusCode != 200 {
		t.Fatalf("POST /strongest: leader %d, follower %d", lr.StatusCode, fr.StatusCode)
	}
	// The leader is sharded (version 0), the follower monolithic under
	// the leader's tag — strip the version field before comparing.
	trim := func(b []byte) string {
		s := string(b)
		if i := strings.LastIndex(s, `,"version":`); i >= 0 {
			return s[:i]
		}
		return s
	}
	if trim(lb) != trim(fb) {
		t.Fatalf("batch strongest: leader %s, follower %s", lb, fb)
	}
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

// TestFaultMatrix drives every fault class through a sync and checks
// the two robustness invariants: the fault never changes what the
// follower serves (still some real leader generation), and once the
// fault clears the follower converges to the leader's current bytes.
func TestFaultMatrix(t *testing.T) {
	cases := []struct {
		name string
		step FaultStep
		// wantErr: the faulted sync must surface an error (timeouts,
		// resets, 5xx). Corrupt-payload faults instead recover within the
		// sync via auto-resync.
		wantErr bool
	}{
		{"timeout", FaultStep{Kind: FaultTimeout}, true},
		{"http500", FaultStep{Kind: FaultStatus, Status: 500}, true},
		{"http503", FaultStep{Kind: FaultStatus, Status: 503}, true},
		{"reset", FaultStep{Kind: FaultReset}, true},
		{"truncate", FaultStep{Kind: FaultTruncate}, false},
		{"bitflip", FaultStep{Kind: FaultBitFlip}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newLeader(t, 6, 2)
			h.round()
			ft := &FaultTransport{}
			f := newFollower(t, h, ft, func(c *Config) {
				c.Timeout = 50 * time.Millisecond
			})
			ctx := context.Background()
			if err := f.SyncOnce(ctx); err != nil {
				t.Fatal(err)
			}
			before := followerBytes(t, f)

			// Fault the next leader round's delta fetch. Corrupt-payload
			// faults hit the delta and the auto-resync full fetch both —
			// the recovery path itself must reject damaged bytes.
			h.round()
			if tc.wantErr {
				ft.Extend(tc.step)
				if err := f.SyncOnce(ctx); err == nil {
					t.Fatal("faulted sync reported success")
				}
				if !bytes.Equal(followerBytes(t, f), before) {
					t.Fatal("failed sync changed the serving generation")
				}
			} else {
				ft.Extend(tc.step, tc.step)
				if err := f.SyncOnce(ctx); err == nil {
					t.Fatal("doubly-corrupt sync reported success")
				}
				assertServesLeaderGeneration(t, h, f)
				if s := f.SyncStats(); s.Corrupt == 0 {
					t.Fatalf("corruption not counted: %+v", s)
				}
			}
			assertServesLeaderGeneration(t, h, f)

			// Fault cleared: convergence to the leader's current bytes.
			if err := f.SyncOnce(ctx); err != nil {
				t.Fatalf("post-fault sync: %v", err)
			}
			if !bytes.Equal(followerBytes(t, f), h.bytes[len(h.bytes)-1]) {
				t.Fatal("follower did not converge after the fault cleared")
			}
		})
	}
}

// TestCorruptDeltaAutoResync: a single corrupt delta is healed inside
// one SyncOnce — the CRC rejects it, the follower refetches the full
// snapshot, and the sync still succeeds.
func TestCorruptDeltaAutoResync(t *testing.T) {
	h := newLeader(t, 6, 2)
	h.round()
	ft := &FaultTransport{}
	f := newFollower(t, h, ft, nil)
	ctx := context.Background()
	if err := f.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	h.round()
	ft.Extend(FaultStep{Kind: FaultBitFlip}) // delta corrupt, full fetch clean
	if err := f.SyncOnce(ctx); err != nil {
		t.Fatalf("auto-resync did not heal a corrupt delta: %v", err)
	}
	if !bytes.Equal(followerBytes(t, f), h.bytes[len(h.bytes)-1]) {
		t.Fatal("follower did not converge via resync")
	}
	s := f.SyncStats()
	if s.Corrupt != 1 || s.Resyncs < 1 {
		t.Fatalf("resync telemetry: %+v", s)
	}
}

// TestMaxFailuresForcesFullResync: after MaxFailures consecutive
// failures the next successful sync refetches the full snapshot rather
// than resuming the delta chain.
func TestMaxFailuresForcesFullResync(t *testing.T) {
	h := newLeader(t, 6, 2)
	h.round()
	ft := &FaultTransport{}
	f := newFollower(t, h, ft, func(c *Config) { c.MaxFailures = 2 })
	ctx := context.Background()
	if err := f.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	fulls := f.SyncStats().Fulls
	ft.Extend(FaultStep{Kind: FaultReset}, FaultStep{Kind: FaultReset})
	for i := 0; i < 2; i++ {
		if err := f.SyncOnce(ctx); err == nil {
			t.Fatal("faulted sync reported success")
		}
	}
	h.round()
	if err := f.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if s := f.SyncStats(); s.Fulls != fulls+1 {
		t.Fatalf("expected a forced full resync, stats %+v", s)
	}
	if !bytes.Equal(followerBytes(t, f), h.bytes[len(h.bytes)-1]) {
		t.Fatal("follower did not converge after forced resync")
	}
}

// TestRetryAfterHonoured: a 429 with Retry-After makes the Run loop
// sleep exactly the leader's figure — not the follower's own backoff —
// while ordinary failures use jittered backoff. The clock and sleep are
// injected, so the test is deterministic and instant.
func TestRetryAfterHonoured(t *testing.T) {
	h := newLeader(t, 6, 2)
	h.round()
	ft := &FaultTransport{}
	var sleeps []time.Duration
	done := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := newFollower(t, h, ft, func(c *Config) {
		c.BackoffBase = time.Second
		c.BackoffMax = 8 * time.Second
		c.Rand = func() float64 { return 1 } // jitter at the cap, deterministic
		c.Sleep = func(_ context.Context, d time.Duration) error {
			sleeps = append(sleeps, d)
			if len(sleeps) >= 4 {
				cancel()
				return context.Canceled
			}
			return nil
		}
	})
	// Sync 1 clean (poll sleep), sync 2 throttled (Retry-After sleep),
	// sync 3 reset (backoff sleep), sync 4 clean (poll sleep again).
	ft.Extend(
		FaultStep{Kind: FaultNone},
		FaultStep{Kind: FaultStatus, Status: 429, RetryAfter: 7},
		FaultStep{Kind: FaultReset},
	)
	go func() {
		f.Run(ctx)
		close(done)
	}()
	<-done
	want := []time.Duration{
		f.cfg.Poll,      // clean sync
		7 * time.Second, // the leader's Retry-After, verbatim
		2 * time.Second, // own backoff: the throttle was failure 1, so base × 2¹ × jitter(1)
		f.cfg.Poll,      // recovered
	}
	if len(sleeps) != len(want) {
		t.Fatalf("sleeps = %v", sleeps)
	}
	for i := range want {
		if sleeps[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v (all: %v)", i, sleeps[i], want[i], sleeps)
		}
	}
}

// TestBackoffGrowsAndCaps: repeated failures double the jittered bound
// up to BackoffMax.
func TestBackoffGrowsAndCaps(t *testing.T) {
	h := newLeader(t, 6, 1)
	h.round()
	f := newFollower(t, h, nil, func(c *Config) {
		c.BackoffBase = time.Second
		c.BackoffMax = 10 * time.Second
		c.Rand = func() float64 { return 1 }
	})
	want := []time.Duration{1 * time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second, 10 * time.Second, 10 * time.Second}
	for i, w := range want {
		f.stateMu.Lock()
		f.stats.ConsecutiveFailures = i + 1
		f.stateMu.Unlock()
		if got := f.backoff(); got != w {
			t.Fatalf("backoff after %d failures = %v, want %v", i+1, got, w)
		}
	}
}

// TestStaleHealthz: the replica serves stale reads forever but says so —
// /healthz flips to 503 "stale" once the last sync is older than
// MaxStaleness, and recovers to 200 after the next successful sync.
func TestStaleHealthz(t *testing.T) {
	h := newLeader(t, 6, 2)
	h.round()
	now := time.Unix(1000, 0)
	var nowMu atomic.Int64
	nowMu.Store(now.UnixNano())
	f := newFollower(t, h, nil, func(c *Config) {
		c.MaxStaleness = 10 * time.Second
		c.Now = func() time.Time { return time.Unix(0, nowMu.Load()) }
	})
	srv := httptest.NewServer(f)
	defer srv.Close()

	// Before the first sync: empty, 503.
	if status, _, body := get(t, srv.URL+"/healthz"); status != 503 || !strings.Contains(string(body), `"empty"`) {
		t.Fatalf("pre-sync healthz: %d %q", status, body)
	}
	// Queries 503 too — nothing to serve yet.
	if status, _, _ := get(t, srv.URL+"/at?key="+h.keys[0]+"&x=1&y=1"); status != 503 {
		t.Fatal("pre-sync query did not 503")
	}

	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if status, _, body := get(t, srv.URL+"/healthz"); status != 200 || !strings.Contains(string(body), `"serving"`) {
		t.Fatalf("fresh healthz: %d %q", status, body)
	}

	// Cross the staleness bound: 503 "stale", but reads still serve.
	nowMu.Store(now.Add(11 * time.Second).UnixNano())
	status, _, body := get(t, srv.URL+"/healthz")
	if status != 503 || !strings.Contains(string(body), `"stale"`) {
		t.Fatalf("stale healthz: %d %q", status, body)
	}
	if !strings.Contains(string(body), `"last_sync_age_ms":11000`) {
		t.Fatalf("stale healthz body lacks age: %q", body)
	}
	if status, _, _ := get(t, srv.URL+"/at?key="+h.keys[0]+"&x=1&y=1"); status != 200 {
		t.Fatal("stale replica stopped serving reads")
	}

	// A successful sync makes it fresh again.
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if status, _, _ := get(t, srv.URL+"/healthz"); status != 200 {
		t.Fatal("healthz did not recover after sync")
	}
	// No /stats: /healthz and /metrics carry the replica's telemetry.
	if status, _, _ := get(t, srv.URL+"/stats"); status != http.StatusNotFound {
		t.Fatalf("GET /stats on a follower: status %d, want 404", status)
	}
}

// TestLeaderRestartResync: a leader that comes back with fresh state
// (history gone, version numbering restarted) cannot serve the
// follower's delta base — the /delta fallback full snapshot resyncs the
// follower, and its local versions keep increasing.
func TestLeaderRestartResync(t *testing.T) {
	h := newLeader(t, 6, 2)
	h.round()
	h.round()
	h.round()
	f := newFollower(t, h, nil, nil)
	ctx := context.Background()
	if err := f.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	verBefore := f.Store().Current().Version()

	// "Restart" the leader: a fresh store at generation 1 behind the same
	// address (the harness swaps the handler in place).
	h2 := newLeader(t, 6, 2)
	h2.gen = 7 // different field than h's generation 1
	h2.round()
	h.srv.Config.Handler = remserve.NewSharded(h2.ss, remserve.Options{})

	if err := f.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(followerBytes(t, f), h2.bytes[len(h2.bytes)-1]) {
		t.Fatal("follower did not resync to the restarted leader")
	}
	if v := f.Store().Current().Version(); v <= verBefore {
		t.Fatalf("local version went backwards: %d after %d", v, verBefore)
	}
	if s := f.SyncStats(); s.Fulls < 2 {
		t.Fatalf("restart did not force a full sync: %+v", s)
	}
}

// TestFollowerServesDeltas: chained replication — a second-tier client
// can fetch a delta from the follower itself.
func TestFollowerServesDeltas(t *testing.T) {
	h := newLeader(t, 6, 2)
	h.round()
	f := newFollower(t, h, nil, nil)
	ctx := context.Background()
	if err := f.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	firstTag := f.gen.Load().tag
	firstMap := f.gen.Load().m
	h.round()
	if err := f.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f)
	defer srv.Close()
	status, hdr, body := get(t, srv.URL+"/delta?from="+firstTag)
	if status != 200 || hdr.Get("Content-Type") != remserve.DeltaContentType {
		t.Fatalf("follower delta: %d %q", status, hdr.Get("Content-Type"))
	}
	applied, err := rem.ApplyDelta(firstMap, body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotBytes(t, applied), h.bytes[len(h.bytes)-1]) {
		t.Fatal("delta served by the follower does not reproduce the leader generation")
	}
}

// TestConfigValidation: a leader URL is required; everything else
// defaults.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("config without a leader accepted")
	}
	f, err := New(Config{Leader: "http://localhost:1/"})
	if err != nil {
		t.Fatal(err)
	}
	if f.cfg.Poll != DefaultPoll || f.cfg.MaxFailures != DefaultMaxFailures || f.cfg.MaxStaleness != DefaultMaxStaleness {
		t.Fatalf("defaults not applied: %+v", f.cfg)
	}
	if f.cfg.Leader != "http://localhost:1" {
		t.Fatalf("trailing slash kept: %q", f.cfg.Leader)
	}
}

// TestConcurrentReadsDuringSync hammers the replica with readers while
// the sync loop keeps adopting new generations — the atomic generation
// swap and the store publish path must hold up under the race detector,
// and every response must be internally consistent (a /snapshot body
// that matches its own ETag's generation).
func TestConcurrentReadsDuringSync(t *testing.T) {
	h := newLeader(t, 6, 2)
	h.round()
	f := newFollower(t, h, nil, nil)
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f)
	defer srv.Close()

	// The harness appends to h.bytes on every round while the readers
	// scan it — serialise access so the test itself is race-free.
	var mu sync.Mutex
	leaderGens := func() [][]byte {
		mu.Lock()
		defer mu.Unlock()
		return h.bytes[:len(h.bytes):len(h.bytes)]
	}

	// fetch is get() without testing.T — t.Fatal must not be called from
	// a reader goroutine.
	fetch := func(url string) (int, string, []byte, error) {
		r, err := http.Get(url)
		if err != nil {
			return 0, "", nil, err
		}
		body, err := io.ReadAll(r.Body)
		r.Body.Close()
		return r.StatusCode, r.Header.Get("ETag"), body, err
	}

	stop := make(chan struct{})
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		go func() {
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				status, _, body, err := fetch(srv.URL + "/snapshot")
				if err != nil || status != 200 {
					errs <- fmt.Errorf("/snapshot status %d err %v", status, err)
					return
				}
				m, err := rem.ReadFrom(bytes.NewReader(body))
				if err != nil {
					errs <- fmt.Errorf("torn snapshot: %v", err)
					return
				}
				var buf bytes.Buffer
				if _, err := m.WriteTo(&buf); err != nil {
					errs <- err
					return
				}
				found := false
				for _, lb := range leaderGens() {
					if bytes.Equal(buf.Bytes(), lb) {
						found = true
						break
					}
				}
				if !found {
					errs <- fmt.Errorf("served bytes match no leader generation")
					return
				}
				if status, _, _, err := fetch(srv.URL + "/at?key=" + h.keys[0] + "&x=1&y=1"); err != nil || status != 200 {
					errs <- fmt.Errorf("/at status %d err %v", status, err)
					return
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		mu.Lock()
		h.round()
		mu.Unlock()
		if err := f.SyncOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	for w := 0; w < 4; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestStatsSurfacesFailureDetail pins the operator telemetry satellite:
// /healthz carries the consecutive-failure count and the last sync
// error's message while a follower is failing, and clears both on the
// next success.
func TestStatsSurfacesFailureDetail(t *testing.T) {
	h := newLeader(t, 6, 2)
	h.round()
	ft := &FaultTransport{}
	f := newFollower(t, h, ft, nil)
	fsrv := httptest.NewServer(f)
	defer fsrv.Close()
	ctx := context.Background()
	if err := f.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}

	fetchStats := func() (int, string) {
		t.Helper()
		resp, err := http.Get(fsrv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			ConsecutiveFailures int    `json:"consecutive_failures"`
			LastError           string `json:"last_error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body.ConsecutiveFailures, body.LastError
	}

	if fails, lastErr := fetchStats(); fails != 0 || lastErr != "" {
		t.Fatalf("healthy follower: consecutive_failures %d last_error %q", fails, lastErr)
	}

	ft.Extend(FaultStep{Kind: FaultStatus, Status: 500}, FaultStep{Kind: FaultReset})
	var want string
	for i := 1; i <= 2; i++ {
		err := f.SyncOnce(ctx)
		if err == nil {
			t.Fatal("faulted sync reported success")
		}
		want = err.Error()
		if fails, lastErr := fetchStats(); fails != i || lastErr != want {
			t.Fatalf("after %d failures: consecutive_failures %d last_error %q, want %d %q",
				i, fails, lastErr, i, want)
		}
	}

	h.round()
	if err := f.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if fails, lastErr := fetchStats(); fails != 0 || lastErr != "" {
		t.Fatalf("recovered follower: consecutive_failures %d last_error %q", fails, lastErr)
	}
}
