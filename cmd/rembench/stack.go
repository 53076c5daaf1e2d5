package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/remfollow"
	"repro/internal/remobs"
	"repro/internal/remserve"
	"repro/internal/remshard"
	"repro/internal/remstore"
	"repro/internal/remwal"
)

// The stacks are assembled from the program's public constructors the
// way `remgen -stream -shards 4 -serve -metrics` and `remgen -ingest
// -wal -metrics` (plus `remgen -follow`) assemble them, on loopback
// listeners in this process.

const (
	// programSeed is the pipeline's own seed, remgen's default -seed:
	// part of the program's configuration, the same for every benchmark
	// seed, so that the benchmark's seed reaches the program only
	// through the inputs.
	programSeed = 1
	numShards   = 4
	ingestToken = "rembench"
	followPoll  = 20 * time.Millisecond
)

// listen binds a loopback listener and serves on it until the returned
// stop function is called; stop drains in-flight requests and waits for
// the serve goroutine to exit.
func listen(serve func(net.Listener) error, shutdown func(context.Context) error) (url string, stop func(), err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	done := make(chan error, 1)
	go func() { done <- serve(l) }()
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		// Every request the run sent has been answered and checked by
		// now; a slow drain has nothing left to report.
		_ = shutdown(ctx)
		<-done
	}
	return "http://" + l.Addr().String(), stop, nil
}

// queryStack is a sharded leader: one full-survey window streamed into
// 4 shards, fronted by remserve.
type queryStack struct {
	ss   *remshard.ShardedStore
	srv  *remserve.Server
	url  string
	stop func()
}

// bootQueryStack streams the survey into a fresh sharded store and
// serves it; the duration runs from the first call into the program
// until /healthz answers 200.
func bootQueryStack(data *dataset.Dataset, grid [3]int) (*queryStack, time.Duration, error) {
	obs := remobs.New(0)
	qs := &queryStack{}
	var listenErr error
	cfg := core.StreamConfig{
		Config:     core.DefaultConfig(programSeed),
		Shards:     numShards,
		WindowRows: data.Len(), // one window: the whole survey
		Observer:   obs,
		OnStore: func(_ *remstore.Store, ss *remshard.ShardedStore) {
			qs.ss = ss
			qs.srv = remserve.NewSharded(ss, remserve.Options{Observer: obs})
			qs.url, qs.stop, listenErr = listen(qs.srv.Serve, qs.srv.Shutdown)
		},
	}
	cfg.REMResolution = grid
	start := time.Now()
	if _, err := core.RunStreamWithDataset(cfg, data, nil); err != nil {
		qs.close()
		return nil, 0, err
	}
	if listenErr != nil {
		return nil, 0, listenErr
	}
	if err := waitHealthy(qs.url, 10*time.Second); err != nil {
		qs.close()
		return nil, 0, err
	}
	return qs, time.Since(start), nil
}

func (qs *queryStack) close() {
	if qs.stop != nil {
		qs.stop()
	}
}

// ingestStack is an ingesting leader (WAL, queue, core loop, remserve
// with POST /observe) plus a remfollow replica with its own Observer.
type ingestStack struct {
	dir       string
	log       *remwal.Log
	queue     *remwal.Queue
	store     *remstore.Store
	leader    *remserve.Server
	leaderURL string
	stopLead  func()
	follower  *remfollow.Follower
	follURL   string
	stopFoll  func()
	cancel    context.CancelFunc
	loopDone  chan error

	storeAt     time.Time // OnStore fired: the bootstrap starts
	healthyAt   time.Time // leader /healthz first answered 200
	listenErr   error
	obsLeader   *remobs.Observer
	obsFollower *remobs.Observer
}

// bootIngestStack opens a fresh WAL in a new directory under workdir,
// starts the ingest loop on the survey and a follower of its leader.
// onBatch sees every published batch. The duration runs from
// remwal.Open until the follower's first sync.
func bootIngestStack(data *dataset.Dataset, workdir string, onBatch func(core.IngestReport)) (*ingestStack, time.Duration, error) {
	dir, err := os.MkdirTemp(workdir, "wal-")
	if err != nil {
		return nil, 0, err
	}
	st := &ingestStack{dir: dir, obsLeader: remobs.New(0), obsFollower: remobs.New(0), loopDone: make(chan error, 1)}
	start := time.Now()
	log, recs, err := remwal.Open(remwal.Config{Dir: dir, Observer: st.obsLeader})
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	if len(recs) != 0 {
		log.Close()
		os.RemoveAll(dir)
		return nil, 0, fmt.Errorf("fresh wal %s replayed %d records", dir, len(recs))
	}
	st.log = log
	if err := st.startLeader(data, nil, onBatch); err != nil {
		st.close()
		return nil, 0, err
	}
	if err := waitHealthy(st.leaderURL, 10*time.Second); err != nil {
		st.close()
		return nil, 0, err
	}
	st.healthyAt = time.Now()
	f, err := remfollow.New(remfollow.Config{Leader: st.leaderURL, Poll: followPoll, Observer: st.obsFollower})
	if err != nil {
		st.close()
		return nil, 0, err
	}
	st.follower = f
	if st.follURL, st.stopFoll, err = listen(f.Serve, f.Shutdown); err != nil {
		st.close()
		return nil, 0, err
	}
	if err := f.SyncOnce(context.Background()); err != nil {
		st.close()
		return nil, 0, fmt.Errorf("follower first sync: %w", err)
	}
	return st, time.Since(start), nil
}

// startLeader runs core.RunIngestWithDataset over st.log in a
// goroutine (replaying the given batches first) and returns once the
// leader's HTTP front is listening.
func (st *ingestStack) startLeader(data *dataset.Dataset, replay []remwal.Batch, onBatch func(core.IngestReport)) error {
	st.queue = remwal.NewQueue(remwal.QueueConfig{Log: st.log})
	st.queue.SetObserver(st.obsLeader)
	ctx, cancel := context.WithCancel(context.Background())
	st.cancel = cancel
	listening := make(chan struct{})
	cfg := core.IngestConfig{
		Config:   core.DefaultConfig(programSeed),
		Queue:    st.queue,
		Replay:   replay,
		Context:  ctx,
		Observer: st.obsLeader,
		OnStore: func(s *remstore.Store) {
			st.storeAt = time.Now()
			st.store = s
			st.leader = remserve.NewStore(s, remserve.Options{
				Ingest:   remserve.IngestOptions{Queue: st.queue, Token: ingestToken},
				Observer: st.obsLeader,
			})
			st.leaderURL, st.stopLead, st.listenErr = listen(st.leader.Serve, st.leader.Shutdown)
			close(listening)
		},
		OnBatch: onBatch,
	}
	go func() {
		_, err := core.RunIngestWithDataset(cfg, data, nil)
		st.loopDone <- err
	}()
	select {
	case <-listening:
		return st.listenErr
	case err := <-st.loopDone:
		st.loopDone <- err
		return fmt.Errorf("ingest loop exited before serving: %w", err)
	}
}

// close tears the stack down in remgen's order: replica, then the
// leader's HTTP edge (no more acks), then the loop, then the WAL.
func (st *ingestStack) close() error {
	if st.stopFoll != nil {
		st.stopFoll()
	}
	if st.stopLead != nil {
		st.stopLead()
	}
	var err error
	if st.cancel != nil {
		st.cancel()
		if lerr := <-st.loopDone; lerr != nil && !errors.Is(lerr, context.Canceled) && !errors.Is(lerr, remwal.ErrClosed) {
			err = lerr
		}
	}
	if st.log != nil {
		if cerr := st.log.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if st.dir != "" {
		os.RemoveAll(st.dir)
	}
	return err
}

// coldClient serves the benchmark's own probes and checks (/healthz,
// /metrics, /version, /snapshot); the load goes through conn.
var coldClient = &http.Client{Timeout: 30 * time.Second}

// waitHealthy polls GET /healthz every millisecond until it answers 200.
func waitHealthy(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := coldClient.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz not 200 after %v (last error %v)", base, timeout, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// get fetches one document.
func get(url string) (int, []byte, error) {
	resp, err := coldClient.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// scrape reads GET /metrics into series → value (the program's own
// counters and histogram sums; the benchmark adds no instruments).
func scrape(base string) (map[string]float64, error) {
	code, body, err := get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", base, code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// histMeanMS is the mean of a scraped histogram between two scrapes, in
// milliseconds (0 when nothing was observed).
func histMeanMS(before, after map[string]float64, name string) float64 {
	n := after[name+"_count"] - before[name+"_count"]
	if n <= 0 {
		return 0
	}
	return (after[name+"_sum"] - before[name+"_sum"]) / n * 1e3
}

// countingWriter counts the bytes written through it.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// nowNS is a monotonic timestamp shared between goroutines as an int64.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }
