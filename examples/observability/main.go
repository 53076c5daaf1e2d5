// Observability end to end: one instrumented deployment — an ingesting
// leader (bootstrap survey → POST /observe → WAL → refit → publish) and
// a remfollow replica — with a remobs Observer on each side, driven
// through mixed traffic and a leader outage. The walkthrough shows:
//
//  1. attaching: one Observer per process (a leader and a follower in
//     the same process need separate Observers, since both register the
//     same rem_store_* and rem_http_* families); the store bridges its
//     existing counters at scrape time, so the query path costs the
//     same with or without it;
//  2. mixed traffic, one scrape: GET /at over JSON and POST /at over
//     the binary wire land in different cells of the per-(endpoint,
//     wire, status-class) counter cube, a miss lands in the 4xx cell,
//     and the WAL/generation metrics tell the ingest story;
//  3. latency summary: the request histogram's bucket boundaries give
//     upper-bound p50/p90/p99 without any per-request allocation;
//  4. outage: the leader dies, the follower's staleness gauge climbs in
//     real time and its consecutive-failures gauge steps up, while the
//     event ring names each sync outcome;
//  5. the event ring: a bounded, allocation-bounded flight recorder of
//     generation lifecycle — publishes, WAL appends, sync outcomes.
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/remfollow"
	"repro/internal/remnode"
	"repro/internal/remobs"
	"repro/internal/remserve"
	"repro/internal/simrand"
)

var macs = []string{"aa:00", "bb:11", "cc:22"}

// surveyDataset builds a small deterministic bootstrap survey over
// three APs (the same shape the live_ingest example uses).
func surveyDataset() *dataset.Dataset {
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

// leader is the instrumented ingester: WAL, queue, serving front and
// the core ingest loop, assembled by remnode around one Observer.
type leader struct {
	node      *remnode.Node
	url       string
	published chan uint64
}

func startLeader(walDir string, obs *remobs.Observer) *leader {
	ld := &leader{published: make(chan uint64, 64)}
	cfg := core.IngestConfig{Config: core.DefaultConfig(7), MaxHistory: 32}
	cfg.REMResolution = [3]int{6, 5, 4}
	cfg.Workers = 1
	cfg.OnBatch = func(rep core.IngestReport) { ld.published <- rep.Version }
	node, err := remnode.Start(remnode.Config{
		Addr:          "127.0.0.1:0",
		Ingest:        &cfg,
		Dataset:       surveyDataset(),
		Serve:         remserve.Options{Ingest: remserve.IngestOptions{Token: "demo-token"}},
		WALDir:        walDir,
		QueueCapacity: 16,
		Observer:      obs,
	})
	if err != nil {
		panic(err)
	}
	ld.node, ld.url = node, "http://"+node.Addr()
	go node.Run(context.Background()) // stopped, and its error reported, by stop
	// The front is up before the bootstrap publish; a follower syncing
	// any earlier would meet a 503 on /snapshot.
	for get(ld.url+"/healthz") != http.StatusOK {
		time.Sleep(5 * time.Millisecond)
	}
	return ld
}

// stop kills the leader wholesale: HTTP front, queue, loop and WAL.
func (ld *leader) stop() {
	if err := ld.node.Shutdown(context.Background()); err != nil {
		panic(err)
	}
}

// scrape fetches /metrics, validates it with the same checker CI's
// promlint runs, and returns the text.
func scrape(base string) string {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		panic(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		panic(fmt.Sprintf("GET /metrics: status %d err %v", resp.StatusCode, err))
	}
	if err := remobs.CheckExposition(body); err != nil {
		panic(err)
	}
	return string(body)
}

// sample extracts one rendered series' value from exposition text.
func sample(text, series string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				panic(err)
			}
			return v
		}
	}
	panic("series not in scrape: " + series)
}

func get(url string) int {
	resp, err := http.Get(url)
	if err != nil {
		panic(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

func main() {
	walDir, err := os.MkdirTemp("", "observability-wal-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(walDir)

	// ── 1. attach: one Observer per process ──
	obsL := remobs.New(64) // leader: store + WAL + ingest loop + HTTP front
	obsF := remobs.New(64) // follower: replica store + sync loop + HTTP front
	ld := startLeader(walDir, obsL)
	fmt.Printf("leader ingesting %d keys on %s, WAL in %s\n", len(macs), ld.url, walDir)

	fl, err := remfollow.New(remfollow.Config{
		Leader:       ld.url,
		MaxStaleness: 2 * time.Second,
		Observer:     obsF,
	})
	if err != nil {
		panic(err)
	}
	fsrv := httptest.NewServer(fl)
	defer fsrv.Close()
	ctx := context.Background()
	if err := fl.SyncOnce(ctx); err != nil {
		panic(err)
	}
	fmt.Printf("follower replicating on %s (separate Observer: both sides register rem_store_* and rem_http_*)\n\n", fsrv.URL)

	// ── 2. mixed traffic, one scrape ──
	fmt.Println("== 2. mixed traffic through the counter cube ==")
	obsBody := []byte(`{"key":"aa:00","observations":[[1,1,0.5,-45],[2,2,1,-52]]}`)
	req, _ := http.NewRequest(http.MethodPost, ld.url+"/observe", bytes.NewReader(obsBody))
	req.Header.Set("Authorization", "Bearer demo-token")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		panic(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	<-ld.published // the batch's generation is live
	if err := fl.SyncOnce(ctx); err != nil {
		panic(err)
	}

	for i := 0; i < 5; i++ { // JSON reads
		if s := get(ld.url + "/at?key=aa:00&x=1&y=1&z=1"); s != http.StatusOK {
			panic(s)
		}
	}
	points := []geom.Vec3{geom.V(1, 1, 1), geom.V(2, 2, 1), geom.V(3, 1, 2)}
	for i := 0; i < 3; i++ { // binary-wire batch reads
		body := remserve.AppendBatchRequest(nil, "bb:11", points)
		req, _ := http.NewRequest(http.MethodPost, ld.url+"/at", bytes.NewReader(body))
		req.Header.Set("Content-Type", remserve.WireContentType)
		req.Header.Set("Accept", remserve.WireContentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			panic(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	get(ld.url + "/at?key=no:such:key&x=1&y=1&z=1") // a 4xx cell

	text := scrape(ld.url)
	for _, series := range []string{
		`rem_http_requests_total{code="2xx",endpoint="at",wire="json"}`,
		`rem_http_requests_total{code="2xx",endpoint="at",wire="binary"}`,
		`rem_http_requests_total{code="4xx",endpoint="at",wire="json"}`,
		`rem_http_requests_total{code="2xx",endpoint="observe",wire="json"}`,
		`rem_store_queries_total`,
		`rem_store_coverindex_candidate_ratio`,
		`rem_wal_append_seconds_count`,
		`rem_wal_fsync_seconds_count`,
		`rem_gen_generations_total`,
	} {
		fmt.Printf("  %-62s %g\n", series, sample(text, series))
	}
	fmt.Println()

	// ── 3. latency summary from the histogram buckets ──
	fmt.Println("== 3. request-latency summary (bucket upper bounds) ==")
	// Registration is idempotent, so re-registering the series hands the
	// example the same Histogram the serving wrapper observes into.
	hist := obsL.Registry.Histogram("rem_http_request_seconds",
		"HTTP request latency by endpoint and wire codec",
		remobs.L("endpoint", "at"), remobs.L("wire", "json"))
	fmt.Printf("  GET /at (json): %d requests, p50 ≤ %.3gs, p90 ≤ %.3gs, p99 ≤ %.3gs\n\n",
		hist.Count(), hist.Quantile(0.5), hist.Quantile(0.9), hist.Quantile(0.99))

	// ── 4. outage: the staleness gauge climbs, failures step up ──
	fmt.Println("== 4. leader outage through the follower's gauges ==")
	before := scrape(fsrv.URL)
	fmt.Printf("  healthy: staleness %.3gs, consecutive failures %g, syncs %g (%g full + %g delta + %g not-modified)\n",
		sample(before, "rem_follow_staleness_seconds"),
		sample(before, "rem_follow_consecutive_failures"),
		sample(before, "rem_follow_syncs_total"),
		sample(before, "rem_follow_fulls_total"),
		sample(before, "rem_follow_deltas_total"),
		sample(before, "rem_follow_not_modified_total"))
	ld.stop()
	var stale [2]float64
	for i := range stale {
		if err := fl.SyncOnce(ctx); err == nil {
			panic("sync against a dead leader should fail")
		}
		time.Sleep(150 * time.Millisecond)
		stale[i] = sample(scrape(fsrv.URL), "rem_follow_staleness_seconds")
	}
	after := scrape(fsrv.URL)
	if stale[1] <= stale[0] {
		panic("staleness gauge did not climb through the outage")
	}
	fmt.Printf("  leader killed: staleness %.3gs → %.3gs and climbing, consecutive failures %g, failures total %g\n\n",
		stale[0], stale[1],
		sample(after, "rem_follow_consecutive_failures"),
		sample(after, "rem_follow_failures_total"))

	// ── 5. the event rings name what happened ──
	fmt.Println("== 5. generation event rings ==")
	fmt.Println("  leader (publishes, WAL, generations):")
	evs := obsL.Events.Snapshot()
	if len(evs) > 6 {
		evs = evs[len(evs)-6:]
	}
	for _, e := range evs {
		fmt.Printf("    #%d %-10s %s\n", e.Seq, e.Kind, e.Text)
	}
	fmt.Println("  follower (sync outcomes):")
	for _, e := range obsF.Events.Snapshot() {
		if e.Kind == "sync" {
			fmt.Printf("    #%d %-10s %s\n", e.Seq, e.Kind, e.Text)
		}
	}
}
