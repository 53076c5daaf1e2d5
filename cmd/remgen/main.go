// Command remgen runs the complete toolchain of the paper end to end:
// simulate the two-UAV survey, preprocess the dataset, train and compare the
// Figure 8 estimator suite, build the fine-grained 3-D REM from the winner,
// and export it as CSV.
//
// With -stream, remgen runs the live-serving pipeline instead: the
// mission's samples are consumed in windows, each window incrementally
// refits the estimator and publishes a copy-on-write REM snapshot into a
// concurrent store, and the per-window delta (dirty keys, shared tiles)
// is reported. The final snapshot is exported.
//
// With -serve, the streamed store is additionally fronted by the
// remserve HTTP subsystem from the moment the stream starts: clients
// query /at, /strongest, /version and download /snapshot while windows
// keep publishing underneath, and after the stream completes remgen
// keeps serving the final generation until interrupted. SIGINT/SIGTERM
// shut down gracefully: the stream stops between windows, the server
// drains in-flight queries, and then the summary and exports are
// written. Every server mode is an internal/remnode node, which owns the
// bind-first start and the shutdown order.
//
// Usage:
//
//	remgen -o rem.csv
//	remgen -seed 7 -res 20x16x10 -extended
//	remgen -dataset stored.csv -o rem.csv   # re-analyse a stored mission
//	remgen -stream -window 400 -o rem.csv   # windowed incremental serving
//	remgen -stream -shards 4 -o rem.csv     # sharded stores, per-shard rebuilds
//	remgen -stream -shards 4 -serve 127.0.0.1:8080   # HTTP query front
//	remgen -stream -serve 127.0.0.1:8080 -rate 50    # per-client rate limit
//	remgen -stream -snapshot rem.remt       # binary codec export (rem.ReadFrom)
//
// With -query, remgen is instead a batch query client against a running
// -serve instance: it POSTs the points to /at over the JSON or the
// binary wire (-wire) and prints one value per line — the output is
// identical for both wires (rule 8 over the wire), which is exactly
// what the CI smoke diffs:
//
//	remgen -query http://127.0.0.1:8080 -key aa:.. -points "1,2,3;4,5,6" -wire binary
//
// With -mode strongest, the client POSTs to /strongest instead: no key,
// one "key value" line per point (the best server at that point) —
// again identical across both wires:
//
//	remgen -query http://127.0.0.1:8080 -mode strongest -points "1,2,3;4,5,6"
//
// With -ingest, remgen is a live ingestion server: it bootstraps the
// estimator on the mission's survey, serves it on -serve, and accepts
// observation batches on POST /observe (JSON or the binary "REMO"
// wire) — each accepted batch incrementally refits the estimator and
// publishes a new snapshot. With -wal DIR every batch is persisted to
// a write-ahead log before it is acknowledged, and a restart with the
// same -wal replays the log into byte-identical snapshots (determinism
// contract rule 10):
//
//	remgen -ingest -serve 127.0.0.1:8080 -wal /var/lib/rem/wal -ingest-token s3cret
//
// With -follow, remgen is a replica: it polls a running -serve leader,
// pulls tile deltas (full snapshots only on first contact or after
// corruption), and serves the replicated REM on -serve through leader
// outages — stale reads keep working, /healthz flips to 503 past the
// staleness bound, and the follower resyncs automatically when the
// leader returns:
//
//	remgen -follow http://127.0.0.1:8080 -serve 127.0.0.1:8081 -poll 500ms -staleness 10s
//
// Every server mode takes -metrics (instrument the stack and expose
// Prometheus text on GET /metrics of -serve), -pprof ADDR (a
// net/http/pprof side listener) and -events N (a bounded in-memory ring
// of generation lifecycle events — publishes, WAL appends, follower
// syncs — dumped to stderr on SIGUSR1 and at exit):
//
//	remgen -ingest -serve 127.0.0.1:8080 -wal wal/ -metrics -pprof 127.0.0.1:6060 -events 256
//	curl -s http://127.0.0.1:8080/metrics | grep rem_wal_fsync_seconds
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof side listener (DefaultServeMux)
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rem"
	"repro/internal/remfollow"
	"repro/internal/remnode"
	"repro/internal/remobs"
	"repro/internal/remserve"
	"repro/internal/remshard"
	"repro/internal/remstore"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "remgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		seed      = flag.Uint64("seed", 1, "master seed for the simulated world")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "worker-pool size for training, evaluation and REM rasterisation (results are identical for any value)")
		out       = flag.String("o", "-", "REM CSV output path ('-' for stdout)")
		res       = flag.String("res", "12x10x6", "REM grid resolution as NXxNYxNZ")
		extended  = flag.Bool("extended", false, "include IDW/kriging estimators")
		dataCSV   = flag.String("dataset", "", "optional stored dataset CSV to re-analyse instead of flying")
		dark      = flag.Float64("dark", -85, "dark-region threshold in dBm for the coverage summary")
		slice     = flag.Float64("slice", -1, "if ≥ 0, render an ASCII heatmap of the strongest AP at this height (m) to stderr")
		stream    = flag.Bool("stream", false, "run the windowed incremental pipeline: one published REM snapshot per sample window")
		window    = flag.Int("window", 0, "with -stream, preprocessed rows per window (≤0 splits the mission into 4 windows)")
		history   = flag.Int("history", 0, "with -stream or -follow, retained snapshot history (≤0 uses the store default)")
		shards    = flag.Int("shards", 0, "with -stream, partition the vocabulary across N independent stores (hash-by-MAC routing); only the shards a window dirties rebuild and publish")
		serve     = flag.String("serve", "", "with -stream or -follow, serve over HTTP on this address (e.g. 127.0.0.1:8080); SIGINT/SIGTERM stop cleanly")
		rate      = flag.Float64("rate", 0, "with -serve, per-client request budget in requests/second (token bucket keyed by client IP; 0 disables)")
		snapOut   = flag.String("snapshot", "", "also export the final REM in the binary snapshot codec (rem.ReadFrom loads it) to this path")
		ingest    = flag.Bool("ingest", false, "live ingestion server: bootstrap on the survey, then accept observation batches on POST /observe of -serve, one published snapshot per batch")
		walDir    = flag.String("wal", "", "with -ingest, persist accepted batches to a write-ahead log in this directory; a restart replays it into identical snapshots")
		ingestTok = flag.String("ingest-token", "", "with -ingest, require 'Authorization: Bearer TOKEN' on POST /observe")
		ingestCap = flag.Int("ingest-queue", 0, "with -ingest, the bounded ingest-queue capacity; a full queue answers 429 + Retry-After (≤0 uses the default)")
		follow    = flag.String("follow", "", "follower mode: base URL of a running -serve leader to replicate (delta sync); serve the replica on -serve, stop with SIGINT/SIGTERM")
		poll      = flag.Duration("poll", 0, "with -follow, the leader poll interval (0 uses the follower default)")
		staleness = flag.Duration("staleness", 0, "with -follow, how old the last successful sync may get before /healthz reports 503 stale (0 uses the follower default)")
		query     = flag.String("query", "", "query client mode: base URL of a running -serve instance (e.g. http://127.0.0.1:8080); POSTs -points for -key to /at and prints one value per line")
		queryKey  = flag.String("key", "", "with -query, the source key to query")
		points    = flag.String("points", "", "with -query, the batch points as 'x,y,z;x,y,z;…' (z may be omitted)")
		wire      = flag.String("wire", "json", "with -query, the wire format: json or binary (the printed values are identical)")
		queryMode = flag.String("mode", "at", "with -query, the endpoint: 'at' (one key, one value per line) or 'strongest' (best server, 'key value' per line)")
		metrics   = flag.Bool("metrics", false, "instrument the pipeline and expose Prometheus text on GET /metrics of -serve (leader, ingester and follower alike)")
		pprofFlg  = flag.String("pprof", "", "serve net/http/pprof on a side listener at this address (e.g. 127.0.0.1:6060)")
		events    = flag.Int("events", 0, "with -metrics, capacity of the generation event ring, dumped to stderr on SIGUSR1 and at exit (≤0 uses the default)")
	)
	flag.Parse()

	if *query != "" {
		if *metrics || *pprofFlg != "" || *events != 0 {
			return errors.New("-metrics, -pprof and -events instrument the server modes; they have no effect with -query")
		}
		return runQuery(*query, *queryMode, *queryKey, *points, *wire)
	}
	obs, obsDone, err := setupObservability(*metrics, *events, *pprofFlg)
	if err != nil {
		return err
	}
	defer obsDone()
	if *follow != "" {
		return runFollow(*follow, *serve, *poll, *staleness, *history, obs)
	}
	if *poll != 0 || *staleness != 0 {
		return errors.New("-poll and -staleness configure the follower; add -follow URL")
	}

	cfg := core.DefaultConfig(*seed)
	cfg.Workers = *workers
	var nx, ny, nz int
	if _, err := fmt.Sscanf(*res, "%dx%dx%d", &nx, &ny, &nz); err != nil {
		return fmt.Errorf("bad -res %q: %w", *res, err)
	}
	cfg.REMResolution = [3]int{nx, ny, nz}
	if *extended {
		cfg.Estimators = core.ExtendedEstimators(*seed)
	}

	opts := modeOpts{
		window: *window, history: *history, shards: *shards, queue: *ingestCap,
		serve: *serve, wal: *walDir, token: *ingestTok, rate: *rate, obs: obs,
		out: *out, snapOut: *snapOut, dark: *dark, slice: *slice,
	}
	var stored *dataset.Dataset
	if *dataCSV != "" {
		f, err := os.Open(*dataCSV)
		if err != nil {
			return err
		}
		data, rerr := dataset.ReadCSV(f)
		if cerr := f.Close(); cerr != nil && rerr == nil {
			rerr = cerr
		}
		if rerr != nil {
			return rerr
		}
		stored = data
	}

	if *ingest {
		if *stream {
			return errors.New("-ingest and -stream are exclusive: ingestion is batch-driven, streaming is window-driven")
		}
		if *shards != 0 {
			return errors.New("-ingest serves a monolithic store; -shards only applies to -stream")
		}
		if *serve == "" {
			return errors.New("-ingest needs -serve ADDR: the batches arrive on POST /observe")
		}
		if *extended {
			return errors.New("-extended has no effect with -ingest: ingestion serves a single estimator")
		}
		return runIngest(cfg, stored, opts)
	}
	if *walDir != "" || *ingestTok != "" || *ingestCap != 0 {
		return errors.New("-wal, -ingest-token and -ingest-queue configure the ingestion server; add -ingest")
	}
	if *stream {
		if *extended {
			return fmt.Errorf("-extended has no effect with -stream: streaming serves a single estimator, not the Figure 8 suite")
		}
		return runStream(cfg, stored, opts)
	}
	if *window != 0 || *history != 0 || *shards != 0 || *serve != "" {
		return fmt.Errorf("-window, -history, -shards and -serve configure the streaming pipeline; add -stream")
	}

	var result *core.Result
	if stored != nil {
		result, err = core.RunWithDataset(cfg, stored, nil)
		if err != nil {
			return err
		}
	} else {
		result, err = core.Run(cfg)
		if err != nil {
			return err
		}
	}

	fmt.Fprintf(os.Stderr, "dataset: %d samples (%d retained after preprocessing)\n",
		result.Data.Len(), len(result.Pre.Rows))
	fmt.Fprintln(os.Stderr, "estimator comparison (Figure 8):")
	for i, s := range result.Scores {
		marker := ""
		if i == result.Best {
			marker = "  ← best"
		}
		fmt.Fprintf(os.Stderr, "  %-30s RMSE %.4f dB  MAE %.4f dB%s\n", s.Name, s.RMSE, s.MAE, marker)
	}

	return opts.export(result.REM)
}

// setupObservability builds the optional side-kit shared by every
// server mode: the Observer (-metrics / -events) handed down the
// pipeline, a net/http/pprof listener (-pprof), and the event-ring
// dump — on SIGUSR1 while running, and once more through the returned
// cleanup at exit.
func setupObservability(metrics bool, events int, pprofAddr string) (*remobs.Observer, func(), error) {
	var obs *remobs.Observer
	if metrics || events != 0 {
		obs = remobs.New(events)
	}
	cleanup := func() {}
	if obs != nil {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGUSR1)
		go func() {
			for range sig {
				fmt.Fprintln(os.Stderr, "remgen: event ring (SIGUSR1):")
				obs.Events.Dump(os.Stderr)
			}
		}()
		cleanup = func() {
			signal.Stop(sig)
			if obs.Events.Len() > 0 {
				fmt.Fprintln(os.Stderr, "remgen: event ring at exit:")
				obs.Events.Dump(os.Stderr)
			}
		}
	}
	if pprofAddr != "" {
		l, err := net.Listen("tcp", pprofAddr)
		if err != nil {
			cleanup()
			return nil, nil, fmt.Errorf("pprof listener: %w", err)
		}
		fmt.Fprintf(os.Stderr, "pprof on http://%s/debug/pprof/\n", l.Addr())
		// net/http/pprof registered its handlers on DefaultServeMux at
		// import; the side listener serves nothing else.
		go func() { _ = http.Serve(l, nil) }()
		prev := cleanup
		cleanup = func() { l.Close(); prev() }
	}
	return obs, cleanup, nil
}

// runQuery is the -query client: one batch POST to /at (-mode at, one
// key, one value per line) or /strongest (-mode strongest, one "key
// value" line per point: the best server there) of a running -serve
// instance, over the JSON or the binary wire. Both wires print the same
// lines — one shortest-round-trip decimal per value, "null" for a
// non-finite one — so the CI smoke can diff the two outputs byte for
// byte (rule 8 over the wire). The serving snapshot version goes to
// stderr.
func runQuery(base, mode, key, pointsSpec, wire string) error {
	switch mode {
	case "at":
		if key == "" || pointsSpec == "" {
			return errors.New("-query needs -key and -points")
		}
	case "strongest":
		if pointsSpec == "" {
			return errors.New("-query -mode strongest needs -points")
		}
	default:
		return fmt.Errorf("unknown -mode %q (want at or strongest)", mode)
	}
	pts, err := parsePoints(pointsSpec)
	if err != nil {
		return err
	}

	var body []byte
	switch wire {
	case "json":
		req := struct {
			Key    string       `json:"key,omitempty"`
			Points [][3]float64 `json:"points"`
		}{Points: pts}
		if mode == "at" {
			req.Key = key
		}
		if body, err = json.Marshal(req); err != nil {
			return err
		}
	case "binary":
		gpts := make([]geom.Vec3, len(pts))
		for i, p := range pts {
			gpts[i] = geom.Vec3{X: p[0], Y: p[1], Z: p[2]}
		}
		if mode == "at" {
			body = remserve.AppendBatchRequest(nil, key, gpts)
		} else {
			body = remserve.AppendStrongestRequest(nil, gpts)
		}
	default:
		return fmt.Errorf("unknown -wire %q (want json or binary)", wire)
	}
	req, err := http.NewRequest(http.MethodPost, strings.TrimRight(base, "/")+"/"+mode, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if wire == "json" {
		req.Header.Set("Content-Type", "application/json")
	} else {
		req.Header.Set("Content-Type", remserve.WireContentType)
		req.Header.Set("Accept", remserve.WireContentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /%s: %s: %s", mode, resp.Status, strings.TrimSpace(string(raw)))
	}

	var keys []string
	var vals []float64
	var version uint64
	switch {
	case wire == "json":
		var out struct {
			Keys    []string   `json:"keys"`
			Values  []*float64 `json:"values"`
			Version uint64     `json:"version"`
		}
		if err := json.Unmarshal(raw, &out); err != nil {
			return err
		}
		keys, version = out.Keys, out.Version
		vals = make([]float64, len(out.Values))
		for i, v := range out.Values {
			if v == nil {
				vals[i] = math.NaN() // prints as "null", like the JSON wire sent it
			} else {
				vals[i] = *v
			}
		}
	case mode == "at":
		vals, version, err = remserve.DecodeBatchResponse(raw)
	default:
		keys, vals, version, err = remserve.DecodeStrongestResponse(raw)
	}
	if err != nil {
		return err
	}

	if mode == "at" {
		fmt.Fprintf(os.Stderr, "version %d (%s wire, %d values)\n", version, wire, len(vals))
	} else {
		if len(keys) != len(vals) {
			return fmt.Errorf("response has %d keys for %d values", len(keys), len(vals))
		}
		fmt.Fprintf(os.Stderr, "version %d (%s wire, %d points)\n", version, wire, len(keys))
	}
	for i, v := range vals {
		if mode == "strongest" {
			fmt.Printf("%s ", keys[i])
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Println("null")
		} else {
			fmt.Println(strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	return nil
}

// runFollow is the -follow replica: a remfollow.Follower polling the
// leader for tile deltas and serving the replicated store on addr until
// SIGINT/SIGTERM. The sync loop is deliberately unkillable by leader
// failures — it backs off, resyncs, and keeps serving the last good
// generation throughout.
func runFollow(leader, addr string, poll, staleness time.Duration, history int, obs *remobs.Observer) error {
	if addr == "" {
		return errors.New("-follow needs -serve ADDR to expose the replica")
	}
	node, err := runNode(remnode.Config{
		Addr: addr,
		Follow: &remfollow.Config{
			Leader:       leader,
			Poll:         poll,
			MaxStaleness: staleness,
			History:      history,
		},
		Observer: obs,
	}, func(node *remnode.Node) {
		fmt.Fprintf(os.Stderr, "following %s; serving replica on http://%s\n", leader, node.Addr())
	})
	if node == nil {
		return err
	}
	s := node.Follower().SyncStats()
	fmt.Fprintf(os.Stderr, "replica: version %s, %d syncs (%d deltas, %d fulls, %d unchanged), %d failures, %d resyncs\n",
		s.Version, s.Syncs, s.Deltas, s.Fulls, s.NotModified, s.Failures, s.Resyncs)
	return err
}

// runNode starts a node, lets started announce it, and runs it until
// SIGINT/SIGTERM or until one of its parts fails; the node has shut
// down in order when runNode returns. A nil node means it never started.
func runNode(cfg remnode.Config, started func(*remnode.Node)) (*remnode.Node, error) {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	node, err := remnode.Start(cfg)
	if err != nil {
		return nil, err
	}
	started(node)
	return node, node.Run(ctx)
}

// parsePoints parses the -points spec: semicolon-separated triples of
// comma-separated coordinates, z optional ("1,2;3,4,5").
func parsePoints(spec string) ([][3]float64, error) {
	var pts [][3]float64
	for _, group := range strings.Split(spec, ";") {
		group = strings.TrimSpace(group)
		if group == "" {
			continue
		}
		comps := strings.Split(group, ",")
		if len(comps) != 2 && len(comps) != 3 {
			return nil, fmt.Errorf("bad point %q: want x,y or x,y,z", group)
		}
		var p [3]float64
		for i, c := range comps {
			v, err := strconv.ParseFloat(strings.TrimSpace(c), 64)
			if err != nil {
				return nil, fmt.Errorf("bad point %q: %w", group, err)
			}
			p[i] = v
		}
		pts = append(pts, p)
	}
	if len(pts) == 0 {
		return nil, errors.New("-points is empty")
	}
	return pts, nil
}

// modeOpts gathers the flags of the streaming and ingestion modes and
// of the export step every mode ends with.
type modeOpts struct {
	window, history, shards, queue int
	serve, wal, token              string
	rate                           float64
	obs                            *remobs.Observer
	out, snapOut                   string
	dark, slice                    float64
}

// export writes the REM summary, coverage figures and the optional
// slice heatmap to stderr, then the -snapshot and -o exports — the one
// ending of the batch, streaming and ingestion modes, so their
// reporting cannot drift apart.
func (o modeOpts) export(m *rem.Map) error {
	centre := geom.PaperScanVolume().Center()
	bestKey, bestRSS := m.Strongest(centre)
	fmt.Fprintf(os.Stderr, "REM: %d sources over %v; strongest at centre: %s (%.1f dBm)\n",
		len(m.Keys()), m.Volume().Size(), bestKey, bestRSS)
	fmt.Fprintf(os.Stderr, "coverage ≥ %.0f dBm over %.1f%% of the volume (%d dark cells)\n",
		o.dark, 100*m.CoverageFraction(o.dark), len(m.DarkRegions(o.dark)))
	if o.slice >= 0 {
		s, err := m.SliceAt(bestKey, o.slice, 60, 24)
		if err != nil {
			return err
		}
		if err := s.Render(os.Stderr); err != nil {
			return err
		}
	}
	if err := writeSnapshotOut(m, o.snapOut); err != nil {
		return err
	}
	return writeCSVOut(m, o.out)
}

// runStream drives the windowed incremental pipeline — monolithic, or
// sharded with -shards — and exports the final snapshot (for a sharded
// store, the merged monolithic view, byte-identical to what the
// monolithic stream would serve). With -serve the stream runs inside a
// remnode leader: its HTTP front serves every window from the first on
// and keeps serving the final generation until SIGINT/SIGTERM, which
// also stops a still-running stream between windows; the summary and
// the exports follow the shutdown.
func runStream(base core.Config, stored *dataset.Dataset, opts modeOpts) error {
	shards := opts.shards
	cfg := core.StreamConfig{
		Config:     base,
		WindowRows: opts.window,
		MaxHistory: opts.history,
	}
	if shards > 0 {
		cfg.Shards = shards
		cfg.OnShardWindow = func(rep core.WindowReport, round remshard.Round) {
			fmt.Fprintf(os.Stderr, "window %d: +%d rows (%d total) → round %d: %d keys dirty across %d/%d shards, %d tiles shared\n",
				rep.Window, rep.NewRows, rep.TotalRows, rep.Version, rep.DirtyKeys, rep.Shards, shards, rep.SharedTiles)
		}
	} else {
		cfg.OnWindow = func(rep core.WindowReport, snap *remstore.Snapshot) {
			built, shared := snap.BuildStats()
			fmt.Fprintf(os.Stderr, "window %d: +%d rows (%d total) → snapshot v%d: %d/%d keys rebuilt, %d tiles shared\n",
				rep.Window, rep.NewRows, rep.TotalRows, rep.Version, built, len(snap.Map().Keys()), shared)
		}
	}

	var res *core.StreamResult
	var err error
	switch {
	case opts.serve != "":
		node, nerr := runNode(remnode.Config{
			Addr:     opts.serve,
			Stream:   &cfg,
			Dataset:  stored,
			Serve:    remserve.Options{RateLimit: remserve.RateLimit{RPS: opts.rate}},
			Observer: opts.obs,
		}, func(node *remnode.Node) {
			fmt.Fprintf(os.Stderr, "serving REM queries on http://%s until interrupted (Ctrl-C)\n", node.Addr())
		})
		if nerr != nil {
			return nerr
		}
		res, err = node.Stream()
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "remgen: %v\n", err)
			return nil
		}
	case stored != nil:
		cfg.Observer = opts.obs
		res, err = core.RunStreamWithDataset(cfg, stored, nil)
	default:
		cfg.Observer = opts.obs
		res, err = core.RunStream(cfg)
	}
	if err != nil {
		return err
	}
	return reportStream(res, opts)
}

// runIngest runs the live ingestion server — a remnode ingester: the
// WAL is opened and replayed, the estimator bootstraps on the survey,
// and POST /observe batches publish one snapshot each until
// SIGINT/SIGTERM. The node's shutdown order (HTTP drained, queue closed,
// loop stopped, WAL fsynced and closed) leaves every acknowledged batch
// intact on disk for the next -wal run to replay.
func runIngest(base core.Config, stored *dataset.Dataset, opts modeOpts) error {
	published := 0
	cfg := core.IngestConfig{
		Config:     base,
		MaxHistory: opts.history,
		OnBatch: func(rep core.IngestReport) {
			published++
			src := "live"
			if rep.Replayed {
				src = "replay"
			}
			fmt.Fprintf(os.Stderr, "batch %d (%s): +%d rows → snapshot v%d: %d keys dirty, %d tiles shared\n",
				rep.Seq, src, rep.Rows, rep.Version, rep.DirtyKeys, rep.SharedTiles)
		},
	}
	node, err := runNode(remnode.Config{
		Addr:    opts.serve,
		Ingest:  &cfg,
		Dataset: stored,
		Serve: remserve.Options{
			RateLimit: remserve.RateLimit{RPS: opts.rate},
			Ingest:    remserve.IngestOptions{Token: opts.token},
		},
		WALDir:        opts.wal,
		QueueCapacity: opts.queue,
		Observer:      opts.obs,
	}, func(node *remnode.Node) {
		if opts.wal != "" {
			fmt.Fprintf(os.Stderr, "wal %s: replaying %d batch(es)\n", opts.wal, node.Replayed())
		}
		fmt.Fprintf(os.Stderr, "serving REM queries and POST /observe on http://%s\n", node.Addr())
	})
	if node == nil {
		return err
	}
	if seq, ok := node.ClosedAt(); ok {
		fmt.Fprintf(os.Stderr, "wal %s: closed cleanly at seq %d\n", opts.wal, seq)
	}
	st := node.Store()
	if err != nil || st == nil || st.Current() == nil {
		return err
	}
	stats := st.Stats()
	fmt.Fprintf(os.Stderr, "ingest: %d batch(es) published over %d snapshots (%d retained); serving v%d\n",
		published, stats.Publishes, stats.HistoryLen, stats.CurrentVersion)
	return opts.export(st.Current().Map())
}

// reportStream prints the stream summary and exports the final
// generation.
func reportStream(res *core.StreamResult, opts modeOpts) error {
	var m *rem.Map
	var err error
	if opts.shards > 0 {
		stats := res.Sharded.Stats()
		fmt.Fprintf(os.Stderr, "stream: %d rounds over %d shards, %d shard publishes\n",
			stats.Rounds, stats.Shards, stats.ShardPublishes)
		for si, ps := range stats.PerShard {
			fmt.Fprintf(os.Stderr, "  shard %d: %d keys, %d publishes, serving v%d\n",
				si, len(res.Sharded.ShardKeys(si)), ps.Publishes, ps.CurrentVersion)
		}
		if m, err = res.Sharded.MergedSnapshot(); err != nil {
			return err
		}
	} else {
		stats := res.Store.Stats()
		fmt.Fprintf(os.Stderr, "stream: %d snapshots published (%d retained); serving v%d\n",
			stats.Publishes, stats.HistoryLen, stats.CurrentVersion)
		m = res.Store.Current().Map()
	}
	return opts.export(m)
}

// writeSnapshotOut exports the map in the binary snapshot codec
// (Map.WriteTo); an empty path is a no-op. The bytes are exactly what
// a remserve /snapshot download of the same generation returns.
func writeSnapshotOut(m *rem.Map, path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, werr := m.WriteTo(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// writeCSVOut exports the map as CSV to a path or stdout ("-").
func writeCSVOut(m *rem.Map, out string) error {
	w := os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "remgen: closing output:", cerr)
			}
		}()
		w = f
	}
	return m.WriteCSV(w)
}
