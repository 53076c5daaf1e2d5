package remnode

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/remfollow"
	"repro/internal/remobs"
	"repro/internal/remserve"
	"repro/internal/remstore"
	"repro/internal/remwal"
	"repro/internal/simrand"
)

var macs = []string{"aa:00", "bb:11", "cc:22"}

// survey is a small deterministic bootstrap survey over three APs.
func survey() *dataset.Dataset {
	rng := simrand.New(7)
	d := &dataset.Dataset{}
	for i := 0; i < 90; i++ {
		mi := i % len(macs)
		x, y, z := rng.Range(0, 4), rng.Range(0, 3), rng.Range(0, 2.6)
		d.Add(dataset.Sample{
			UAV: "A", X: x, Y: y, Z: z, MAC: macs[mi], SSID: "net",
			RSSI: -40 - int(8*x) - int(3*y) - 2*mi - rng.Intn(4), Channel: 1 + mi,
		})
	}
	return d
}

func smallConfig() core.Config {
	c := core.DefaultConfig(7)
	c.REMResolution = [3]int{6, 5, 4}
	c.Workers = 1
	return c
}

func ingester(walDir string) Config {
	return Config{
		Addr:    "127.0.0.1:0",
		Ingest:  &core.IngestConfig{Config: smallConfig(), MaxHistory: 64},
		Dataset: survey(),
		WALDir:  walDir,
	}
}

// running is a started node whose Run executes in the background.
type running struct {
	*Node
	base   string
	cancel context.CancelFunc
	done   chan error
}

func start(t *testing.T, cfg Config) *running {
	t.Helper()
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return launch(n)
}

func launch(n *Node) *running {
	ctx, cancel := context.WithCancel(context.Background())
	r := &running{Node: n, base: "http://" + n.Addr(), cancel: cancel, done: make(chan error, 1)}
	go func() { r.done <- n.Run(ctx) }()
	return r
}

// stop cancels Run and returns its result.
func (r *running) stop(t *testing.T) error {
	t.Helper()
	r.cancel()
	select {
	case err := <-r.done:
		return err
	case <-time.After(20 * time.Second):
		t.Fatal("Run did not return after cancellation")
		return nil
	}
}

func batch(i int) remwal.Batch {
	return remwal.Batch{
		Key:    macs[i%len(macs)],
		Points: []geom.Vec3{geom.V(0.5+float64(i%7)*0.4, 1+float64(i%3)*0.5, 1)},
		Values: []float64{-45 - float64(i)/8},
	}
}

// observe POSTs b over the binary wire and returns the acknowledged
// seq, or 0 with the status (or transport error) when not acknowledged.
func observe(base string, b remwal.Batch) (uint64, error) {
	resp, err := http.Post(base+"/observe", remserve.WireContentType, bytes.NewReader(remwal.AppendBatch(nil, b)))
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("POST /observe: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var ack struct{ Seq uint64 }
	if err := json.Unmarshal(body, &ack); err != nil {
		return 0, err
	}
	return ack.Seq, nil
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// waitFor polls GET url until its body contains want.
func waitFor(t *testing.T, url, want string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if _, body := get(t, url); strings.Contains(string(body), want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET %s never contained %s", url, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func snapshot(t *testing.T, base string) []byte {
	t.Helper()
	code, body := get(t, base+"/snapshot")
	if code != http.StatusOK {
		t.Fatalf("GET /snapshot: %d", code)
	}
	return body
}

func reopen(t *testing.T, dir string) []remwal.Record {
	t.Helper()
	l, recs, err := remwal.Open(remwal.Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopening the WAL: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// Shutdown during concurrent POST /observe: every acknowledged batch is
// durable, and every durable record is a batch some client posted.
func TestIngesterShutdownUnderConcurrentObserve(t *testing.T) {
	dir := t.TempDir()
	cfg := ingester(dir)
	cfg.Observer = remobs.New(0)
	r := start(t, cfg)
	waitFor(t, r.base+"/healthz", "serving")

	var mu sync.Mutex
	posted := map[string]bool{}
	acked := map[uint64][]byte{}
	enough := make(chan struct{})
	quit := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i += 4 {
				select {
				case <-quit:
					return
				default:
				}
				b := batch(i)
				payload := remwal.AppendBatch(nil, b)
				mu.Lock()
				posted[string(payload)] = true
				mu.Unlock()
				seq, err := observe(r.base, b)
				if err != nil {
					continue // shed (429/503) or refused once the edge is gone
				}
				mu.Lock()
				acked[seq] = payload
				if len(acked) == 12 {
					close(enough)
				}
				mu.Unlock()
			}
		}(w)
	}
	<-enough
	if err := r.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(quit)
	wg.Wait()
	if err := r.stop(t); err != nil {
		t.Fatalf("Run after Shutdown: %v", err)
	}

	recs := reopen(t, dir)
	durable := map[uint64][]byte{}
	for _, rec := range recs {
		durable[rec.Seq] = rec.Payload
		if !posted[string(rec.Payload)] {
			t.Errorf("record %d is not a batch any client posted", rec.Seq)
		}
	}
	for seq, payload := range acked {
		if !bytes.Equal(durable[seq], payload) {
			t.Errorf("acknowledged seq %d is not durable as posted", seq)
		}
	}
	if last, ok := r.ClosedAt(); !ok || last != uint64(len(recs)) {
		t.Errorf("ClosedAt = %d, %v; the WAL holds %d records", last, ok, len(recs))
	}
}

// A restart on the same WAL replays it into version records+1, serving
// the bytes an uninterrupted run fed the same batches serves (rule 10).
func TestRestartOnSameWALMatchesUninterruptedRun(t *testing.T) {
	const n = 3
	feed := func(r *running) {
		for i := 0; i < n; i++ {
			if _, err := observe(r.base, batch(i)); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, r.base+"/version", fmt.Sprintf(`"version":"%d"`, n+1))
	}

	dir := t.TempDir()
	first := start(t, ingester(dir))
	waitFor(t, first.base+"/healthz", "serving")
	feed(first)
	if err := first.stop(t); err != nil {
		t.Fatal(err)
	}

	restarted, err := Start(ingester(dir))
	if err != nil {
		t.Fatal(err)
	}
	if restarted.Replayed() != n {
		t.Fatalf("Replayed = %d, want %d", restarted.Replayed(), n)
	}
	again := launch(restarted)
	waitFor(t, again.base+"/version", fmt.Sprintf(`"version":"%d"`, n+1))
	replayed := snapshot(t, again.base)
	if err := again.stop(t); err != nil {
		t.Fatal(err)
	}

	oracle := start(t, ingester(t.TempDir()))
	waitFor(t, oracle.base+"/healthz", "serving")
	feed(oracle)
	uninterrupted := snapshot(t, oracle.base)
	if err := oracle.stop(t); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replayed, uninterrupted) {
		t.Fatal("rule 10: the replayed node's /snapshot differs from the uninterrupted run's")
	}
}

// A follower node serves the leader node's bytes (rule 8), and its sync
// loop has stopped by the time Shutdown returns.
func TestFollowerServesLeaderBytes(t *testing.T) {
	leader := start(t, ingester(""))
	waitFor(t, leader.base+"/healthz", "serving")
	if _, err := observe(leader.base, batch(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, leader.base+"/version", `"version":"2"`)

	follower := start(t, Config{
		Addr:     "127.0.0.1:0",
		Follow:   &remfollow.Config{Leader: leader.base, Poll: 10 * time.Millisecond},
		Observer: remobs.New(0),
	})
	waitFor(t, follower.base+"/healthz", `"version":"2"`)
	if !bytes.Equal(snapshot(t, follower.base), snapshot(t, leader.base)) {
		t.Fatal("rule 8: the follower's /snapshot differs from the leader's")
	}
	if err := follower.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-follower.Done():
	default:
		t.Fatal("the follower's sync loop is still running after Shutdown returned")
	}
	if err := follower.stop(t); err != nil {
		t.Fatal(err)
	}
	if err := leader.stop(t); err != nil {
		t.Fatal(err)
	}
}

// A port clash fails Start before the WAL opens, and leaves nothing
// running.
func TestStartBindFailureOpensNothing(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	walDir := filepath.Join(t.TempDir(), "wal")
	cfg := ingester(walDir)
	cfg.Addr = taken.Addr().String()

	before := runtime.NumGoroutine()
	if _, err := Start(cfg); err == nil {
		t.Fatal("Start on a taken port succeeded")
	}
	if _, err := os.Stat(walDir); !os.IsNotExist(err) {
		t.Fatalf("the WAL directory exists after a bind failure (stat: %v)", err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before Start, %d after its bind failure", before, after)
	}
}

// When the listener dies, Run returns its error after the ingester's
// ordered shutdown: HTTP, queue, loop, WAL.
func TestListenerDeathEndsRunInOrder(t *testing.T) {
	dir := t.TempDir()
	n, err := Start(ingester(dir))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var steps []string
	n.step = func(s string) { mu.Lock(); steps = append(steps, s); mu.Unlock() }
	r := launch(n)
	waitFor(t, r.base+"/healthz", "serving")
	if _, err := observe(r.base, batch(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, r.base+"/version", `"version":"2"`)

	n.ln.Close()
	select {
	case err = <-r.done:
	case <-time.After(20 * time.Second):
		t.Fatal("Run kept running after its listener died")
	}
	if err == nil || !strings.Contains(err.Error(), "HTTP front") {
		t.Fatalf("Run returned %v, want the listener's error", err)
	}
	mu.Lock()
	got := strings.Join(steps, ",")
	mu.Unlock()
	if got != "http,queue,loop,wal" {
		t.Fatalf("shutdown steps %s, want http,queue,loop,wal", got)
	}
	if last, ok := n.ClosedAt(); !ok || last != 1 {
		t.Fatalf("ClosedAt = %d, %v; want 1, true", last, ok)
	}
	if recs := reopen(t, dir); len(recs) != 1 {
		t.Fatalf("the WAL holds %d records, want 1", len(recs))
	}
}

// A WAL record that does not decode as a batch fails Start with its
// seq, and leaves the directory reopenable.
func TestStartRejectsUndecodableWALRecord(t *testing.T) {
	dir := t.TempDir()
	l, _, err := remwal.Open(remwal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(remwal.AppendBatch(nil, batch(0))); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("not an observation batch")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 2; attempt++ {
		_, err := Start(ingester(dir))
		if err == nil || !strings.Contains(err.Error(), "record 2 ") {
			t.Fatalf("Start = %v, want an error naming record 2", err)
		}
	}
	if recs := reopen(t, dir); len(recs) != 2 {
		t.Fatalf("the WAL holds %d records after the failed starts, want 2", len(recs))
	}
}

// A WAL record holding a non-finite observation, which an older build
// could acknowledge, fails Start with its seq and the cause on every
// attempt: it is never skipped.
func TestStartRejectsNonFiniteWALRecord(t *testing.T) {
	dir := t.TempDir()
	l, _, err := remwal.Open(remwal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	bad := batch(1)
	bad.Values[0] = math.NaN()
	for _, b := range []remwal.Batch{batch(0), bad, batch(2)} {
		if _, err := l.Append(remwal.AppendBatch(nil, b)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 2; attempt++ {
		_, err := Start(ingester(dir))
		if err == nil || !strings.Contains(err.Error(), "record 2 ") || !strings.Contains(err.Error(), "not finite") {
			t.Fatalf("Start = %v, want an error naming record 2 and its non-finite value", err)
		}
	}
	if recs := reopen(t, dir); len(recs) != 3 {
		t.Fatalf("the WAL holds %d records after the failed starts, want 3", len(recs))
	}
}

// A streaming leader stopped mid-stream stops between windows, and what
// it already published keeps serving until the stream has stopped.
func TestStreamStopsBetweenWindowsWhileServing(t *testing.T) {
	first, release := make(chan struct{}), make(chan struct{})
	sc := core.StreamConfig{Config: smallConfig(), WindowRows: 30}
	sc.OnWindow = func(rep core.WindowReport, _ *remstore.Snapshot) {
		if rep.Window == 0 {
			close(first)
			<-release
		}
	}
	r := start(t, Config{Addr: "127.0.0.1:0", Stream: &sc, Dataset: survey()})
	<-first
	r.cancel()
	// The stream is held inside window 0, so shutdown is waiting for it;
	// the published generation still answers.
	if code, _ := get(t, r.base+"/at?key=aa:00&x=1&y=1&z=1"); code != http.StatusOK {
		t.Fatalf("GET /at during shutdown: %d", code)
	}
	close(release)
	if err := <-r.done; err != nil {
		t.Fatal(err)
	}
	res, err := r.Stream()
	if !errors.Is(err, context.Canceled) || len(res.Windows) != 1 {
		t.Fatalf("stream stopped with %v after %d windows, want cancellation after 1", err, len(res.Windows))
	}
	if _, err := http.Get(r.base + "/healthz"); err == nil {
		t.Fatal("the HTTP front still answers after Run returned")
	}
}

// Run on a node already shut down refuses, and Shutdown stays callable.
func TestRunAfterShutdown(t *testing.T) {
	n, err := Start(ingester(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(context.Background()); err == nil {
		t.Fatal("Run after Shutdown succeeded")
	}
	if err := n.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestConfigRejectsWiringTheNodeOwns(t *testing.T) {
	obs := remobs.New(0)
	for name, cfg := range map[string]Config{
		"no role":         {Addr: "127.0.0.1:0"},
		"two roles":       {Addr: "127.0.0.1:0", Stream: &core.StreamConfig{}, Follow: &remfollow.Config{}},
		"inner observer":  {Addr: "127.0.0.1:0", Ingest: &core.IngestConfig{Observer: obs}},
		"serve observer":  {Addr: "127.0.0.1:0", Stream: &core.StreamConfig{}, Serve: remserve.Options{Observer: obs}},
		"follow observer": {Addr: "127.0.0.1:0", Follow: &remfollow.Config{Observer: obs}},
		"wal on a leader": {Addr: "127.0.0.1:0", Stream: &core.StreamConfig{}, WALDir: "wal"},
	} {
		if _, err := Start(cfg); err == nil {
			t.Errorf("%s: Start accepted the config", name)
		}
	}
}

// A client that dials and never sends a request does not stall
// shutdown: for every role, Shutdown with one such connection open
// returns nil well inside a second, not at the 5 s mark where net/http
// would first call the connection idle.
func TestSilentConnectionDoesNotStallShutdown(t *testing.T) {
	leader := start(t, ingester(""))
	waitFor(t, leader.base+"/healthz", "serving")
	defer leader.stop(t)
	roles := map[string]func() Config{
		"stream": func() Config {
			return Config{Addr: "127.0.0.1:0", Stream: &core.StreamConfig{Config: smallConfig(), WindowRows: 30}, Dataset: survey()}
		},
		"ingest": func() Config { return ingester(t.TempDir()) },
		"follow": func() Config {
			return Config{Addr: "127.0.0.1:0", Follow: &remfollow.Config{Leader: leader.base, Poll: 10 * time.Millisecond}}
		},
	}
	for _, role := range []string{"stream", "ingest", "follow"} {
		t.Run(role, func(t *testing.T) {
			r := start(t, roles[role]())
			waitFor(t, r.base+"/healthz", "version")
			silent, err := net.Dial("tcp", r.Node.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer silent.Close()
			// A request on a later connection is served only after the
			// silent one was accepted.
			waitFor(t, r.base+"/healthz", "version")
			ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
			defer cancel()
			t0 := time.Now()
			if err := r.Shutdown(ctx); err != nil {
				t.Fatalf("Shutdown with a silent connection open: %v", err)
			}
			if d := time.Since(t0); d > 500*time.Millisecond {
				t.Fatalf("Shutdown took %v with a silent connection open", d)
			}
			if err := r.stop(t); err != nil {
				t.Fatal(err)
			}
		})
	}
}
