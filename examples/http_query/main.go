// HTTP query front: the live sharded REM served over the network. The
// two-UAV mission streams into a 2-shard store while an HTTP client —
// talking only JSON and bytes, linking none of the library — queries it
// concurrently. The walkthrough shows:
//
//  1. serve-while-streaming: a remnode streaming leader boots the
//     remserve front before the first window publishes, so clients see
//     every generation from v1 on (503 only before the first publish);
//  2. point, batch and best-server queries over HTTP, each response
//     carrying the serving snapshot version;
//  3. snapshot download + codec restart: GET /snapshot streams the
//     binary codec (byte-identical to a direct Map.WriteTo), rem.ReadFrom
//     restores a queryable map from it, and its local answers match the
//     served ones bit for bit (determinism contract rule 8, over the
//     wire);
//  4. ETag/If-None-Match: re-polling an unchanged map costs one header
//     exchange (304, no body).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rem"
	"repro/internal/remnode"
	"repro/internal/remserve"
	"repro/internal/remshard"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "http_query:", err)
		os.Exit(1)
	}
}

type atResp struct {
	Key     string   `json:"key"`
	Value   *float64 `json:"value"` // null for NaN cells
	Version uint64   `json:"version"`
}

type batchResp struct {
	Key     string     `json:"key"`
	Values  []*float64 `json:"values"`
	Version uint64     `json:"version"`
}

func run() error {
	probe := geom.PaperScanVolume().Center()

	// 1. Stream the mission into a 2-shard store inside a remnode
	// leader: the node binds first and boots the HTTP front before the
	// first publish, so the client below races real serving-store
	// startup.
	cfg := core.DefaultStreamConfig(1)
	cfg.Shards = 2
	cfg.WindowRows = 520
	cfg.OnShardWindow = func(rep core.WindowReport, round remshard.Round) {
		fmt.Printf("window %d: +%4d rows → round %d, %d/%d shards republished\n",
			rep.Window, rep.NewRows, round.Seq, round.AffectedShards, cfg.Shards)
	}
	node, err := remnode.Start(remnode.Config{Addr: "127.0.0.1:0", Stream: &cfg})
	if err != nil {
		return err
	}
	go node.Run(context.Background()) // stopped, and its error reported, by Shutdown below
	base := "http://" + node.Addr()
	client := &http.Client{Timeout: 5 * time.Second}
	fmt.Printf("HTTP front on %s\n", base)

	// 2. Query over HTTP while the stream publishes: 503 until the
	// first window lands, then versioned answers that step up as
	// generations swap underneath. The best server at the probe is the
	// key the point queries follow.
	var key string
	served, unavailable := 0, 0
	lastVer := uint64(0)
	for streaming := true; streaming; {
		select {
		case <-node.Done():
			streaming = false
		default:
		}
		url := fmt.Sprintf("%s/strongest?x=%g&y=%g&z=%g", base, probe.X, probe.Y, probe.Z)
		if key != "" {
			url = base + "/at?key=" + key + "&x=2&y=1.5&z=1"
		}
		r, err := client.Get(url)
		if err != nil {
			return err
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		switch r.StatusCode {
		case http.StatusOK:
			var a atResp
			if err := json.Unmarshal(body, &a); err != nil {
				return err
			}
			served++
			key = a.Key
			if a.Version != lastVer {
				fmt.Printf("  client saw generation swap → v%d\n", a.Version)
				lastVer = a.Version
			}
		case http.StatusServiceUnavailable:
			unavailable++ // before the first publish
		default:
			return fmt.Errorf("GET %s: %s: %s", url, r.Status, strings.TrimSpace(string(body)))
		}
	}
	res, err := node.Stream()
	if err != nil {
		return err
	}
	fmt.Printf("during the stream: %d answers served, %d early 503s\n", served, unavailable)

	// Batch POST: key resolved once, one snapshot for the whole batch.
	breq, _ := json.Marshal(map[string]any{
		"key":    key,
		"points": [][3]float64{{probe.X, probe.Y, probe.Z}, {0.5, 0.5, 0.5}, {3, 2, 2}},
	})
	r, err := client.Post(base+"/at", "application/json", bytes.NewReader(breq))
	if err != nil {
		return err
	}
	var br batchResp
	if err := json.NewDecoder(r.Body).Decode(&br); err != nil {
		return err
	}
	r.Body.Close()
	fmt.Printf("batch of %d points served by v%d\n", len(br.Values), br.Version)

	// The same batch over the binary wire: Content-Type selects the
	// request codec, Accept the response codec. The value block carries
	// raw float64 bits — bit-identical to what the JSON response rendered.
	wireBody := remserve.AppendBatchRequest(nil, key,
		[]geom.Vec3{probe, {X: 0.5, Y: 0.5, Z: 0.5}, {X: 3, Y: 2, Z: 2}})
	wreq, err := http.NewRequest(http.MethodPost, base+"/at", bytes.NewReader(wireBody))
	if err != nil {
		return err
	}
	wreq.Header.Set("Content-Type", remserve.WireContentType)
	wreq.Header.Set("Accept", remserve.WireContentType)
	r, err = client.Do(wreq)
	if err != nil {
		return err
	}
	wireResp, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		return err
	}
	wvals, wver, err := remserve.DecodeBatchResponse(wireResp)
	if err != nil {
		return err
	}
	for i, v := range wvals {
		jv := math.NaN()
		if br.Values[i] != nil {
			jv = *br.Values[i]
		}
		if math.Float64bits(v) != math.Float64bits(jv) && !(math.IsNaN(v) && br.Values[i] == nil) {
			return fmt.Errorf("rule 8 violated on the binary wire: value %d is %v binary vs %v JSON", i, v, jv)
		}
	}
	fmt.Printf("binary wire: %d-byte request, %d-byte response, v%d — values ≡ JSON bit for bit\n",
		len(wireBody), len(wireResp), wver)

	// Best-server query: merged across shards, same winner as the
	// library call.
	r, err = client.Get(fmt.Sprintf("%s/strongest?x=%g&y=%g&z=%g", base, probe.X, probe.Y, probe.Z))
	if err != nil {
		return err
	}
	var strongest atResp
	if err := json.NewDecoder(r.Body).Decode(&strongest); err != nil {
		return err
	}
	r.Body.Close()
	lk, lv, _, err := res.Sharded.Strongest(probe)
	if err != nil {
		return err
	}
	if strongest.Key != lk || strongest.Value == nil || math.Float64bits(*strongest.Value) != math.Float64bits(lv) {
		return fmt.Errorf("rule 8 violated over the wire: /strongest %v vs library %s %v", strongest, lk, lv)
	}
	fmt.Printf("strongest at centre over HTTP ≡ library: %s (%.1f dBm)\n", lk, lv)

	// 3. Snapshot download + codec restart: the served bytes ARE the
	// codec — a client can restore a full queryable map from them.
	r, err = client.Get(base + "/snapshot")
	if err != nil {
		return err
	}
	snapBytes, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		return err
	}
	etag := r.Header.Get("ETag")
	direct, err := res.Sharded.MergedSnapshot()
	if err != nil {
		return err
	}
	var directBytes bytes.Buffer
	if _, err := direct.WriteTo(&directBytes); err != nil {
		return err
	}
	if !bytes.Equal(snapBytes, directBytes.Bytes()) {
		return errors.New("rule 8 violated: /snapshot bytes differ from direct WriteTo")
	}
	restored, err := rem.ReadFrom(bytes.NewReader(snapBytes))
	if err != nil {
		return err
	}
	lv2, err := restored.At(key, probe)
	if err != nil {
		return err
	}
	r, err = client.Get(fmt.Sprintf("%s/at?key=%s&x=%g&y=%g&z=%g", base, key, probe.X, probe.Y, probe.Z))
	if err != nil {
		return err
	}
	var a atResp
	if err := json.NewDecoder(r.Body).Decode(&a); err != nil {
		return err
	}
	r.Body.Close()
	if a.Value == nil || math.Float64bits(*a.Value) != math.Float64bits(lv2) {
		return errors.New("restored snapshot answers differ from the served ones")
	}
	fmt.Printf("snapshot: %d bytes ≡ direct export (ETag %s); restored map answers bit-identically\n",
		len(snapBytes), etag)

	// 4. Re-poll with If-None-Match: the map has not changed, so the
	// exchange is headers-only.
	req, err := http.NewRequest(http.MethodGet, base+"/snapshot", nil)
	if err != nil {
		return err
	}
	req.Header.Set("If-None-Match", etag)
	r, err = client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusNotModified {
		return fmt.Errorf("expected 304 for unchanged snapshot, got %s", r.Status)
	}
	fmt.Printf("re-poll with If-None-Match: %s — one header exchange, no body\n", r.Status)

	// Drain in-flight queries and stop.
	return node.Shutdown(context.Background())
}
