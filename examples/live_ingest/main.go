// Live ingestion with a write-ahead log: the durable write half of the
// serving edge. An in-process ingest pipeline (bootstrap survey →
// remserve front with POST /observe → remwal queue+WAL → incremental
// refit → publish) is driven over HTTP, crashed, and replayed; the
// walkthrough shows:
//
//  1. the write surface: POST /observe accepts a JSON observation batch
//     (and the binary "REMO" wire under Content-Type:
//     application/x-rem-batch) and acknowledges with the WAL sequence —
//     only after the batch is on disk;
//  2. one batch, one snapshot: every accepted batch Observe→Refit→
//     RebuildKeys→Publish-es a new store version while reads keep
//     answering throughout;
//  3. rule 10: after a simulated crash (the pipeline is torn down
//     mid-stream, only the WAL survives), a fresh pipeline replaying the
//     WAL publishes snapshots byte-identical to the uninterrupted run.
package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/remnode"
	"repro/internal/remserve"
	"repro/internal/remwal"
	"repro/internal/simrand"
)

// surveyDataset builds a small deterministic bootstrap survey over
// three APs.
func surveyDataset() *dataset.Dataset {
	rng := simrand.New(7)
	macs := []string{"aa:00", "bb:11", "cc:22"}
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

// pipeline is one ingest node — WAL, queue, serving front and the
// core loop, assembled by remnode — with every published version's
// codec bytes recorded.
type pipeline struct {
	node      *remnode.Node
	url       string
	published chan uint64
	versions  map[uint64][]byte
}

// wait blocks until n more batches have published.
func (p *pipeline) wait(n int) {
	for i := 0; i < n; i++ {
		<-p.published
	}
}

func startPipeline(walDir string) *pipeline {
	p := &pipeline{published: make(chan uint64, 64), versions: map[uint64][]byte{}}
	cfg := core.IngestConfig{Config: core.DefaultConfig(7), MaxHistory: 32}
	cfg.REMResolution = [3]int{6, 5, 4}
	cfg.Workers = 1
	cfg.OnBatch = func(rep core.IngestReport) {
		src := "live"
		if rep.Replayed {
			src = "replay"
		}
		snap := p.node.Store().SnapshotAt(rep.Version)
		var buf bytes.Buffer
		if _, err := snap.Map().WriteTo(&buf); err != nil {
			panic(err)
		}
		p.versions[rep.Version] = buf.Bytes()
		fmt.Printf("  batch %d (%s): %d rows → version %d (%d keys dirty, %d tiles shared)\n",
			rep.Seq, src, rep.Rows, rep.Version, rep.DirtyKeys, rep.SharedTiles)
		p.published <- rep.Version
	}
	node, err := remnode.Start(remnode.Config{
		Addr:          "127.0.0.1:0",
		Ingest:        &cfg,
		Dataset:       surveyDataset(),
		Serve:         remserve.Options{Ingest: remserve.IngestOptions{Token: "demo-token"}},
		WALDir:        walDir,
		QueueCapacity: 16,
	})
	if err != nil {
		panic(err)
	}
	p.node, p.url = node, "http://"+node.Addr()
	go node.Run(context.Background()) // stopped, and its error reported, by stop
	return p
}

// stop shuts the node down: HTTP drained, queue closed, loop stopped,
// WAL closed.
func (p *pipeline) stop() {
	if err := p.node.Shutdown(context.Background()); err != nil {
		panic(err)
	}
}

func post(url, token, contentType string, body []byte) (*http.Response, string) {
	req, err := http.NewRequest(http.MethodPost, url+"/observe", bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		panic(err)
	}
	var sb strings.Builder
	buf := make([]byte, 256)
	for {
		n, rerr := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	resp.Body.Close()
	return resp, strings.TrimSpace(sb.String())
}

func main() {
	walDir, err := os.MkdirTemp("", "live-ingest-wal-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(walDir)

	fmt.Println("== 1. the write surface ==")
	p := startPipeline(walDir)
	resp, body := post(p.url, "", "", []byte(`{"key":"aa:00","observations":[[1,1,1,-45]]}`))
	fmt.Printf("no token        → %d %s\n", resp.StatusCode, body)
	resp, body = post(p.url, "demo-token", "",
		[]byte(`{"key":"aa:00","observations":[[1,1,0.5,-45],[2,2,1,-52]]}`))
	fmt.Printf("JSON batch      → %d %s\n", resp.StatusCode, body)
	wire := remwal.AppendBatch(nil, remwal.Batch{
		Key:    "bb:11",
		Points: []geom.Vec3{geom.V(3, 1, 2)},
		Values: []float64{-61.5},
	})
	resp, body = post(p.url, "demo-token", remserve.WireContentType, wire)
	fmt.Printf("binary REMO     → %d %s\n", resp.StatusCode, body)
	resp, body = post(p.url, "demo-token", "", []byte(`{"key":"zz:99","observations":[[1,1,1,-45]]}`))
	fmt.Printf("unknown key     → %d %s\n", resp.StatusCode, body)

	fmt.Println("\n== 2. one batch, one snapshot ==")
	resp, body = post(p.url, "demo-token", "", []byte(`{"key":"cc:22","observations":[[0.5,2.5,1.5,-70]]}`))
	fmt.Printf("third batch     → %d %s\n", resp.StatusCode, body)
	p.wait(3) // bootstrap is v1; the three batches publish v2..v4
	fmt.Printf("store is at version %d (bootstrap was 1)\n", p.node.Store().Stats().CurrentVersion)

	fmt.Println("\n== 3. rule 10: crash, replay, byte-identical snapshots ==")
	live := p.versions
	p.stop() // the "crash": everything in memory is gone; the WAL survives
	fmt.Printf("pipeline killed; WAL holds the %d acknowledged batches\n", len(live))
	p2 := startPipeline(walDir)
	p2.wait(3)
	identical := len(p2.versions) == len(live)
	for v, b := range live {
		if !bytes.Equal(p2.versions[v], b) {
			identical = false
		}
	}
	fmt.Printf("replayed run republished versions 2..4 byte-identical: %v\n", identical)

	p2.stop()
}
