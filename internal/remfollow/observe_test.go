package remfollow

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/remobs"
)

// TestFollowerObserver drives full, delta, 304 and failing syncs
// through an instrumented follower and asserts the follower serves a
// valid /metrics of its own with the sync counters, staleness gauge and
// consecutive-failure gauge moving, and that the event ring names each
// outcome.
func TestFollowerObserver(t *testing.T) {
	h := newLeader(t, 4, 2)
	h.round()
	obs := remobs.New(0)
	f := newFollower(t, h, nil, func(c *Config) { c.Observer = obs })
	ctx := context.Background()

	if err := f.SyncOnce(ctx); err != nil { // full
		t.Fatal(err)
	}
	h.round()
	if err := f.SyncOnce(ctx); err != nil { // delta
		t.Fatal(err)
	}
	if err := f.SyncOnce(ctx); err != nil { // 304
		t.Fatal(err)
	}
	h.srv.Close() // leader away: transport failure
	if err := f.SyncOnce(ctx); err == nil {
		t.Fatal("sync against a closed leader succeeded")
	}

	// The follower serves its own /metrics through the inner server.
	fsrv := httptest.NewServer(f)
	defer fsrv.Close()
	status, hdr, body := getBody(t, fsrv.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("GET /metrics on follower: status %d", status)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("follower /metrics Content-Type %q", ct)
	}
	if err := remobs.CheckExposition(body); err != nil {
		t.Fatalf("follower exposition: %v\n%s", err, body)
	}
	text := string(body)
	for _, want := range []string{
		"rem_follow_syncs_total 3",
		"rem_follow_fulls_total 1",
		"rem_follow_deltas_total 1",
		"rem_follow_not_modified_total 1",
		"rem_follow_failures_total 1",
		"rem_follow_corrupt_total 0", // a transport failure, not a codec reject
		"rem_follow_consecutive_failures 1",
		"rem_follow_sync_seconds_count 4",
		// The replica's local store is on the same registry.
		"rem_store_publishes_total 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("follower scrape missing %q:\n%s", want, text)
		}
	}
	if v, ok := sampleFloat(text, "rem_follow_staleness_seconds"); !ok || v < 0 {
		t.Errorf("staleness gauge = %g ok=%v, want ≥ 0 after a sync", v, ok)
	}

	var kinds []string
	for _, e := range obs.Events.Snapshot() {
		if e.Kind == "sync" {
			kinds = append(kinds, firstField(e.Text))
		}
	}
	want := []string{"ok", "ok", "ok", "fail"}
	if len(kinds) != len(want) {
		t.Fatalf("sync events %v, want %d", kinds, len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("sync event %d = %q, want %q", i, kinds[i], want[i])
		}
	}
}

// TestFollowerStalenessGaugeAges pins that the staleness gauge tracks a
// fake clock: -1 before the first sync, then exactly the time since the
// last success.
func TestFollowerStalenessGaugeAges(t *testing.T) {
	h := newLeader(t, 3, 1)
	h.round()
	obs := remobs.New(0)
	now := time.Unix(1000, 0)
	f := newFollower(t, h, nil, func(c *Config) {
		c.Observer = obs
		c.Now = func() time.Time { return now }
	})
	if v, ok := sampleFloat(string(obs.Registry.AppendPrometheus(nil)), "rem_follow_staleness_seconds"); !ok || v != -1 {
		t.Fatalf("staleness before first sync = %g ok=%v, want -1", v, ok)
	}
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	now = now.Add(42 * time.Second)
	if v, _ := sampleFloat(string(obs.Registry.AppendPrometheus(nil)), "rem_follow_staleness_seconds"); v != 42 {
		t.Fatalf("staleness after 42s = %g, want 42", v)
	}
}

// getBody is a tiny GET helper (the main test file's helpers are
// byte-comparison oriented).
func getBody(t *testing.T, url string) (int, http.Header, []byte) {
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

// sampleFloat extracts one sample's value from exposition text.
func sampleFloat(text, series string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v, err == nil
		}
	}
	return 0, false
}

// firstField returns the first space-separated token of an event text.
func firstField(s string) string {
	if i := strings.IndexByte(s, ' '); i >= 0 {
		return s[:i]
	}
	return s
}
