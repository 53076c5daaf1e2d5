package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rem"
	"repro/internal/remobs"
	"repro/internal/remwal"
)

// runRecover is the recover workload: the WAL that ingest_live leaves
// behind after its run is written once per set-up, then the leader is
// restarted from it — remwal.Open, then core.RunIngestWithDataset
// replaying every record — as many times as fit in the measured
// window. Every restart must publish the never-crashed run's final
// snapshot byte for byte (determinism rule 10), checked over the
// restarted leader's own socket.
func runRecover(cfg config, w *world, tr *tracer, sh *shared) *report {
	rep := newReport()
	data := w.survey()
	n := cfg.batches()
	batches := w.observations(n)

	// The oracle is computed once, outside the timed set-ups: it replays
	// the same ingest loop the restarts time.
	rep.attempted++
	oracle, err := uninterrupted(data, batches)
	if err != nil {
		rep.fail("uninterrupted run: %v", err)
		return rep
	}

	var setups, appendUS []float64
	var dir string
	defer func() {
		if dir != "" {
			os.RemoveAll(dir)
		}
	}()
	for setupStart, i := time.Now(), 0; cfg.moreSetups(i, setupStart); i++ {
		rep.attempted++
		t0 := time.Now()
		d, lat, err := writeWAL(cfg.workdir, batches)
		if err != nil {
			rep.fail("writing the wal: %v", err)
			return rep
		}
		setups = append(setups, time.Since(t0).Seconds())
		if dir != "" {
			os.RemoveAll(dir)
		}
		dir, appendUS = d, append(appendUS, lat...)
	}
	sd := summarize(setups, 50)
	rep.set("setup_s", sd.p50, fmt.Sprintf("median of %d set-ups: write the %d-batch wal, fsync each", sd.n, n))
	walBytes, err := dirBytes(dir)
	if err != nil {
		rep.problem("sizing the wal: %v", err)
	}
	if sh.ingestSHA != nil {
		if *sh.ingestSHA != oracle || sh.ingestVersion != uint64(n)+1 {
			rep.problem("rule 10: ingest_live's final leader snapshot (v%d) differs from the uninterrupted run of the same batches", sh.ingestVersion)
		} else {
			rep.linef("rule 10: ingest_live's final leader snapshot SHA-256 = uninterrupted run = every restart (%x…)", oracle[:6])
		}
	}

	var totals, opens, boots, gaps []float64
	var st *ingestStack
	start := time.Now()
	for len(totals) == 0 || time.Since(start) < cfg.measure() {
		if st != nil {
			if err := st.close(); err != nil {
				rep.problem("closing a restarted leader: %v", err)
			}
		}
		rep.attempted++
		var r *restart
		r, st, err = restartOnce(data, dir, n, tr != nil)
		if err != nil {
			rep.fail("restart: %v", err)
			if st != nil {
				st.close()
			}
			return rep
		}
		if r.sha != oracle {
			rep.fail("rule 10: restarted leader's /snapshot differs from the uninterrupted run")
		}
		totals = append(totals, ms(r.total))
		opens = append(opens, ms(r.open))
		boots = append(boots, ms(r.bootstrap))
		gaps = append(gaps, r.gaps...)
		if tr != nil {
			r.trace(tr)
		}
	}
	defer func() {
		if err := st.close(); err != nil {
			rep.problem("closing the restarted leader: %v", err)
		}
	}()

	td := summarize(totals, 99)
	var sum float64
	for _, t := range totals {
		sum += t
	}
	rep.set("pts_per_s", float64(readingsPerObs*n*td.n)/(sum/1e3), fmt.Sprintf("observations replayed per second over %d restarts of %d batches", td.n, n))
	rep.set("latency_p50_ms", td.p50, fmt.Sprintf("restart: wal open → leader serves v%d, n=%d restarts", n+1, td.n))
	rep.set("latency_tail_ms", td.tail, fmt.Sprintf("%s, n=%d restarts", td.tailName(), td.n))
	if tr != nil {
		ad := summarize(appendUS, 99)
		rep.set("remwal.append_fsync.p50_us", ad.p50, fmt.Sprintf("Log.Append with SyncAlways, n=%d", ad.n))
		rep.set("remwal.append_fsync.p99_us", percentile(appendUS, 99), fmt.Sprintf("n=%d", ad.n))
		od := summarize(opens, 50)
		rep.set("remwal.replay_ms", od.p50, fmt.Sprintf("remwal.Open of %d records, median of %d", n, od.n))
		if od.p50 > 0 {
			rep.set("remwal.replay_mb_per_s", float64(walBytes)/1e6/(od.p50/1e3), fmt.Sprintf("%d wal bytes", walBytes))
		}
		gd := summarize(gaps, 99)
		rep.set("core.replay_batch_ms.p50", gd.p50, fmt.Sprintf("n=%d", gd.n))
		rep.set("core.replay_batch_ms.tail", gd.tail, fmt.Sprintf("%s, n=%d", gd.tailName(), gd.n))
		bd := summarize(boots, 50)
		rep.set("core.bootstrap_ms", bd.p50, fmt.Sprintf("OnStore → /healthz 200, median of %d", bd.n))
		after, err := scrape(st.leaderURL)
		if err != nil {
			rep.problem("scrape: %v", err)
		} else {
			setGenMeans(rep, nil, after)
		}
		m := st.store.Current().Map()
		traceMaps(rep, []*rem.Map{m}, m)
	}
	rep.set("heap_mb", heapMB(), "HeapInuse after GC, restarted leader serving")
	return rep
}

// writeWAL writes the batches to a fresh WAL with the default fsync
// policy, timing each Log.Append.
func writeWAL(workdir string, batches []remwal.Batch) (dir string, appendUS []float64, err error) {
	dir, err = os.MkdirTemp(workdir, "recover-wal-")
	if err != nil {
		return "", nil, err
	}
	log, recs, err := remwal.Open(remwal.Config{Dir: dir})
	if err == nil && len(recs) != 0 {
		err = fmt.Errorf("fresh wal replayed %d records", len(recs))
	}
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	var buf []byte
	for _, b := range batches {
		buf = remwal.AppendBatch(buf[:0], b)
		t := time.Now()
		if _, err = log.Append(buf); err != nil {
			break
		}
		appendUS = append(appendUS, us(time.Since(t)))
	}
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	return dir, appendUS, nil
}

// uninterrupted is the never-crashed run of the same batches, fed live
// through an in-memory queue: the SHA-256 of its final snapshot.
func uninterrupted(data *dataset.Dataset, batches []remwal.Batch) ([32]byte, error) {
	var sum [32]byte
	q := remwal.NewQueue(remwal.QueueConfig{Capacity: len(batches)})
	for _, b := range batches {
		if _, err := q.Submit(b); err != nil {
			return sum, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := core.IngestConfig{
		Config:  core.DefaultConfig(programSeed),
		Queue:   q,
		Context: ctx,
		OnBatch: func(r core.IngestReport) {
			if r.Seq == uint64(len(batches)) {
				cancel()
			}
		},
	}
	res, err := core.RunIngestWithDataset(cfg, data, nil)
	if err != nil && !errors.Is(err, context.Canceled) {
		return sum, err
	}
	if cur := res.Store.Current(); cur == nil || cur.Version() != uint64(len(batches))+1 {
		return sum, fmt.Errorf("uninterrupted run stopped short of version %d", len(batches)+1)
	}
	return snapshotSHA(res.Store.Current().Map())
}

// restart is one timed recovery.
type restart struct {
	t0, openedAt, storeAt, healthyAt, doneAt int64
	marks                                    []int64 // OnBatch time by seq
	total, open, bootstrap                   time.Duration
	gaps                                     []float64 // ms between successive replayed publishes
	sha                                      [32]byte
}

// restartOnce reopens the WAL in dir and replays it through the ingest
// loop until the leader publishes version n+1; the returned stack is
// still serving. With traced, /healthz is polled during the bootstrap
// to time it.
func restartOnce(data *dataset.Dataset, dir string, n int, traced bool) (*restart, *ingestStack, error) {
	st := &ingestStack{obsLeader: remobs.New(0), loopDone: make(chan error, 1)}
	r := &restart{marks: make([]int64, n+1)}
	done := make(chan struct{})
	bad := 0
	onBatch := func(rep core.IngestReport) {
		if !rep.Replayed || rep.Version != rep.Seq+1 || rep.Seq > uint64(n) {
			bad++
			return
		}
		r.marks[rep.Seq] = nowNS()
		if rep.Seq == uint64(n) {
			close(done)
		}
	}
	r.t0 = nowNS()
	log, recs, err := remwal.Open(remwal.Config{Dir: dir, Observer: st.obsLeader})
	if err != nil {
		return nil, nil, err
	}
	r.openedAt = nowNS()
	st.log = log
	replay, good := remwal.Batches(recs)
	if good != len(recs) || len(recs) != n {
		log.Close()
		return nil, nil, fmt.Errorf("wal replayed %d records (%d decodable), want %d", len(recs), good, n)
	}
	if err := st.startLeader(data, replay, onBatch); err != nil {
		return nil, st, err
	}
	r.storeAt = st.storeAt.Sub(epoch).Nanoseconds()
	if traced {
		if err := waitHealthy(st.leaderURL, 10*time.Second); err != nil {
			return nil, st, err
		}
		r.healthyAt = nowNS()
	}
	select {
	case <-done:
	case err := <-st.loopDone:
		st.loopDone <- err
		return nil, st, fmt.Errorf("ingest loop exited during replay: %w", err)
	case <-time.After(2 * time.Minute):
		return nil, st, errors.New("replay did not finish within 2 minutes")
	}
	if bad > 0 {
		return nil, st, fmt.Errorf("%d OnBatch reports out of sequence", bad)
	}
	r.doneAt = r.marks[n]
	r.total = time.Duration(r.doneAt - r.t0)
	r.open = time.Duration(r.openedAt - r.t0)
	if traced {
		r.bootstrap = time.Duration(r.healthyAt - r.storeAt)
	}
	for i := 2; i <= n; i++ {
		r.gaps = append(r.gaps, ms(time.Duration(r.marks[i]-r.marks[i-1])))
	}

	// The restarted leader is checked over its own socket: it serves
	// version n+1 and the snapshot bytes of the never-crashed run.
	code, body, err := get(st.leaderURL + "/version")
	want := `{"version":"` + strconv.Itoa(n+1) + `","shards":1}`
	if err != nil || code != http.StatusOK || string(bytes.TrimSpace(body)) != want {
		return nil, st, fmt.Errorf("GET /version after replay: %d %q (%v), want %s", code, body, err, want)
	}
	code, body, err = get(st.leaderURL + "/snapshot")
	if err != nil || code != http.StatusOK {
		return nil, st, fmt.Errorf("GET /snapshot after replay: %d (%v)", code, err)
	}
	r.sha = sha256.Sum256(body)
	return r, st, nil
}

// trace records the restart: open, bootstrap, then one span per
// replayed batch.
func (r *restart) trace(tr *tracer) {
	trace := tr.newTrace()
	root := tr.add(trace, 0, "recover", r.t0, r.doneAt)
	tr.add(trace, root, "remwal.open", r.t0, r.openedAt)
	tr.add(trace, root, "core.bootstrap", r.storeAt, r.healthyAt)
	prev := r.healthyAt
	for _, m := range r.marks[1:] {
		tr.add(trace, root, "core.replay_batch", prev, m)
		prev = m
	}
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}
