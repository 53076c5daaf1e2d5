package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rem"
	"repro/internal/remserve"
	"repro/internal/remwal"
)

// batchTimes is what the benchmark sees of one ingest batch: when it
// was due, sent and acknowledged (client side), when the leader's
// OnBatch published it, and when the follower's store first held it.
type batchTimes struct {
	seq                     uint64 // 0: refused
	due, sent, ack, visible int64  // nowNS stamps
	replica                 int64
}

// runIngestLive is the ingest_live workload: an open-loop writer posts
// binary observation batches at ingestRate on one connection while
// a closed-loop reader queries the follower on a second.
func runIngestLive(cfg config, w *world, tr *tracer, sh *shared) *report {
	rep := newReport()
	data := w.survey()
	n := cfg.batches()
	batches := w.observations(n)

	visible := make([]atomic.Int64, n+1) // nowNS of the leader publish, by seq
	var badReports atomic.Int64
	onBatch := func(r core.IngestReport) {
		if r.Replayed || r.Version != r.Seq+1 || r.Rows != readingsPerObs || r.Seq > uint64(n) {
			badReports.Add(1)
			return
		}
		visible[r.Seq].CompareAndSwap(0, nowNS())
	}

	var setups []float64
	var st *ingestStack
	for setupStart, i := time.Now(), 0; cfg.moreSetups(i, setupStart); i++ {
		s, d, err := bootIngestStack(data, cfg.workdir, onBatch)
		rep.attempted++
		if err != nil {
			rep.fail("setup: %v", err)
			if st != nil {
				st.close()
			}
			return rep
		}
		setups = append(setups, d.Seconds())
		if st != nil {
			if err := st.close(); err != nil {
				rep.problem("closing a set-up stack: %v", err)
			}
		}
		st = s
	}
	defer func() {
		if err := st.close(); err != nil {
			rep.problem("closing the stack: %v", err)
		}
	}()
	sd := summarize(setups, 50)
	rep.set("setup_s", sd.p50, fmt.Sprintf("median of %d set-ups: wal open → leader /healthz → follower first sync", sd.n))
	if tr != nil {
		rep.set("core.bootstrap_ms", ms(st.healthyAt.Sub(st.storeAt)), "OnStore → leader /healthz 200")
	}

	leaderBefore, lerr := scrapeIf(tr != nil, st.leaderURL)
	followBefore, ferr := scrapeIf(tr != nil, st.follURL)
	if lerr != nil || ferr != nil {
		rep.problem("scrape before: %v %v", lerr, ferr)
	}
	syncBefore := st.follower.SyncStats()
	header := []string{"Content-Type: " + remserve.WireContentType, "Authorization: Bearer " + ingestToken}
	reqs := make([][]byte, n)
	for i, b := range batches {
		reqs[i] = encodeRequest(nil, "POST", "/observe", header, remwal.AppendBatch(nil, b))
	}

	// The follower syncs on its own loop of SyncOnce + Poll, as Run does;
	// driving it from here times the moment each version lands.
	// A sync is never cancelled half way: stop is checked between syncs.
	replica := make([]atomic.Int64, n+1) // nowNS the follower first held it, by seq
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		last := uint64(1)
		for {
			_ = st.follower.SyncOnce(context.Background()) // failures land in SyncStats
			now := nowNS()
			if cur := st.follower.Store().Current(); cur != nil {
				for v := last + 1; v <= cur.Version() && v-1 <= uint64(n); v++ {
					replica[v-1].CompareAndSwap(0, now)
				}
				last = max(last, cur.Version())
			}
			select {
			case <-stop:
				return
			case <-time.After(followPoll):
			}
		}
	}()

	start := time.Now().Add(10 * time.Millisecond)
	period := time.Duration(float64(time.Second) / ingestRate)
	end := start.Add(time.Duration(n) * period)

	var unchecked atomic.Int64
	check := func(ver uint64) backend {
		s := st.follower.Store().SnapshotAt(ver)
		if s == nil {
			unchecked.Add(1) // evicted before the check ran
			return nil
		}
		return mapBackend{s.Map(), ver}
	}
	readerPool := getPool(w, "ingest-reader", func(int) queryKind { return getAt })
	var reads *loopResult
	bg.Add(1)
	go func() {
		defer bg.Done()
		reads = closedLoop(st.follURL, poolSource(readerPool), start, end, check, tr != nil)
	}()

	times := make([]batchTimes, n)
	refused := 0
	wc := newConn(st.leaderURL)
	recs := openLoop(realClock{}, start, period, n, func(i int) {
		code, body, err := wc.roundTrip(reqs[i])
		rep.attempted++
		switch {
		case err != nil:
			rep.fail("POST /observe %d: %v", i, err)
		case code == http.StatusTooManyRequests || code >= 500:
			refused++
			rep.fail("POST /observe %d refused: %d %s", i, code, bytes.TrimSpace(body))
		case code != http.StatusOK:
			rep.fail("POST /observe %d: %d %s", i, code, bytes.TrimSpace(body))
		default:
			accepted, seq, err := parseAck(body)
			if err != nil || accepted != readingsPerObs || seq != uint64(i+1) {
				rep.fail("POST /observe %d: ack %q (%v)", i, body, err)
				return
			}
			times[i].seq = seq
		}
	})
	wc.close()
	for i, r := range recs {
		times[i].due, times[i].sent, times[i].ack = r.due.Sub(epoch).Nanoseconds(), r.sent.Sub(epoch).Nanoseconds(), r.done.Sub(epoch).Nanoseconds()
	}

	// Wait until every acknowledged batch is visible on both nodes.
	deadline := time.Now().Add(10*time.Second + cfg.measure())
	for {
		done := true
		for _, t := range times {
			if t.seq != 0 && (visible[t.seq].Load() == 0 || replica[t.seq].Load() == 0) {
				done = false
				break
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			rep.problem("acknowledged batches not visible on leader and follower within the deadline")
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	bg.Wait()
	if b := badReports.Load(); b > 0 {
		rep.problem("%d OnBatch reports out of sequence", b)
	}
	if s := st.follower.SyncStats(); s.Failures != syncBefore.Failures {
		rep.problem("%d follower syncs failed (last error %q)", s.Failures-syncBefore.Failures, s.LastError)
	}
	for i := range times {
		if s := times[i].seq; s != 0 {
			times[i].visible, times[i].replica = visible[s].Load(), replica[s].Load()
		}
	}

	rep.attempted += reads.attempts
	rep.failed += reads.failed
	for _, f := range reads.failures {
		rep.problem("follower read: %s", f)
	}
	reportIngest(rep, cfg, times, recs, refused)
	if tr != nil {
		// Read before reportWindows, which drops the windows' samples.
		var readLat []float64
		for _, w := range reads.windows {
			for _, l := range w.lat {
				readLat = append(readLat, l*1e3)
			}
		}
		rd := summarize(readLat, 99)
		rep.set("remfollow.read_p50_us", rd.p50, fmt.Sprintf("n=%d", rd.n))
		rep.set("remfollow.read_p99_us", percentile(readLat, 99), fmt.Sprintf("n=%d", rd.n))
	}
	reportWindows(rep, reads, end.Sub(start), fmt.Sprintf("follower GET /at reads beside the writer (%d not compared: version evicted)", unchecked.Load()), false)
	if tr != nil {
		traceIngest(rep, tr, times)
		traceQueries(rep, tr, st.follower, st.follower.Store(), reads.sampled)
		leaderAfter, lerr := scrape(st.leaderURL)
		followAfter, ferr := scrape(st.follURL)
		if lerr != nil || ferr != nil {
			rep.problem("scrape after: %v %v", lerr, ferr)
		} else {
			setGenMeans(rep, leaderBefore, leaderAfter)
			rep.set("remfollow.sync_ms_mean", histMeanMS(followBefore, followAfter, "rem_follow_sync_seconds"), "scraped rem_follow_sync_seconds")
		}
		s := st.follower.SyncStats()
		syncs, notMod := s.Syncs-syncBefore.Syncs, s.NotModified-syncBefore.NotModified
		if syncs > 0 {
			rep.set("remfollow.not_modified_ratio", float64(notMod)/float64(syncs), fmt.Sprintf("%d of %d syncs", notMod, syncs))
		}
		if d := s.Deltas - syncBefore.Deltas; d > 0 {
			rep.set("remfollow.delta_bytes_per_delta", float64(s.DeltaBytes-syncBefore.DeltaBytes)/float64(d), fmt.Sprintf("n=%d deltas", d))
		}
		rep.set("remfollow.fulls", float64(s.Fulls-syncBefore.Fulls), "during the phase")
		rep.set("remfollow.failures", float64(s.Failures-syncBefore.Failures), "during the phase")
		m := st.store.Current().Map()
		traceMaps(rep, []*rem.Map{m}, m)
	}
	reads = nil

	if refused == 0 && rep.correct() {
		if sum, err := snapshotSHA(st.store.Current().Map()); err != nil {
			rep.problem("leader snapshot: %v", err)
		} else {
			sh.ingestSHA, sh.ingestVersion = &sum, st.store.Current().Version()
		}
	}
	rep.set("heap_mb", heapMB(), "HeapInuse after GC, leader and follower serving")
	return rep
}

// reportIngest turns the batch timings into the ingest metrics.
func reportIngest(rep *report, cfg config, times []batchTimes, recs []sendRecord, refused int) {
	var replicaLat, visibleLat, ackLat, late, queueWait, batch, lag []float64
	prevVisible := int64(0)
	for i, t := range times {
		late = append(late, ms(recs[i].late()))
		if t.seq == 0 {
			continue
		}
		replicaLat = append(replicaLat, ms(time.Duration(t.replica-t.due)))
		visibleLat = append(visibleLat, ms(time.Duration(t.visible-t.due)))
		ackLat = append(ackLat, ms(time.Duration(t.ack-t.sent)))
		procStart := max(prevVisible, t.ack)
		queueWait = append(queueWait, ms(time.Duration(procStart-t.ack)))
		batch = append(batch, ms(time.Duration(t.visible-procStart)))
		lag = append(lag, ms(time.Duration(t.replica-t.visible)))
		prevVisible = t.visible
	}
	vd := summarize(visibleLat, 99)
	if vd.n == 0 {
		rep.problem("no batch became visible")
		return
	}
	rep.set("latency_p50_ms", vd.p50, fmt.Sprintf("observation due → visible on the leader (OnBatch), n=%d batches at %g/s", vd.n, ingestRate))
	rep.set("latency_tail_ms", vd.tail, fmt.Sprintf("%s, n=%d", vd.tailName(), vd.n))

	// The gate and the metric read the tail with ten sends beyond it, not
	// the p99: of 200 sends, one host hiccup of three sends would decide
	// the p99.
	ld := summarize(late, 99)
	rep.set("gen.late_ms.tail", ld.tail, fmt.Sprintf("%s, n=%d sends (p99 %.3g ms)", ld.tailName(), ld.n, percentile(late, 99)))
	if ld.tail > ms(cfg.maxLate) {
		rep.problem("open-loop writer ran %.3g ms late at %s (limit %v): the numbers would measure the generator", ld.tail, ld.tailName(), cfg.maxLate)
	}
	rd, ad, qd, bd, gd := summarize(replicaLat, 99), summarize(ackLat, 99), summarize(queueWait, 99), summarize(batch, 99), summarize(lag, 99)
	for _, m := range []struct {
		name string
		d    dist
	}{{"remwal.queue_wait_ms", qd}, {"core.batch_ms", bd}, {"remfollow.lag_ms", gd}, {"remfollow.replica_visible_ms", rd}} {
		rep.set(m.name+".p50", m.d.p50, fmt.Sprintf("n=%d", m.d.n))
		rep.set(m.name+".tail", m.d.tail, fmt.Sprintf("%s, n=%d", m.d.tailName(), m.d.n))
	}
	rep.set("remserve.post_observe.ack_p50_ms", ad.p50, fmt.Sprintf("n=%d", ad.n))
	rep.set("remserve.post_observe.ack_tail_ms", ad.tail, fmt.Sprintf("%s, n=%d", ad.tailName(), ad.n))
	rep.set("remserve.post_observe.refused", float64(refused), fmt.Sprintf("429/5xx of %d sends", len(times)))
	rep.linef("ladder, means (they add up exactly): leader visible %.4g ms = late %.3g + ack %.3g + queue wait %.3g + batch %.4g",
		vd.mean, ld.mean, ad.mean, qd.mean, bd.mean)
	rep.linef("ladder, p50s: queue wait %.3g + batch %.4g = %.4g ms against leader visible %.4g ms (%+.1f%%)",
		qd.p50, bd.p50, qd.p50+bd.p50, vd.p50, 100*(qd.p50+bd.p50-vd.p50)/vd.p50)
	rep.linef("ladder: follower visible (leader visible + lag, per batch) p50 %.4g ms, lag p50 %.4g ms", rd.p50, gd.p50)
}

// traceIngest records one trace per batch: due → visible on the
// follower, split at send, ack, processing start and leader publish.
func traceIngest(rep *report, tr *tracer, times []batchTimes) {
	prevVisible := int64(0)
	for _, t := range times {
		if t.seq == 0 {
			continue
		}
		trace := tr.newTrace()
		root := tr.add(trace, 0, "ingest.batch", t.due, t.replica)
		tr.add(trace, root, "gen.late", t.due, t.sent)
		tr.add(trace, root, "remserve.post_observe", t.sent, t.ack)
		procStart := max(prevVisible, t.ack)
		tr.add(trace, root, "remwal.queue_wait", t.ack, procStart)
		tr.add(trace, root, "core.batch", procStart, t.visible)
		tr.add(trace, root, "remfollow.lag", t.visible, t.replica)
		prevVisible = t.visible
	}
}

// setGenMeans reports the ingest loop's stage means from two scrapes
// of the leader's own histograms.
func setGenMeans(rep *report, before, after map[string]float64) {
	for _, m := range []struct{ metric, series string }{
		{"core.observe_ms_mean", "rem_gen_observe_seconds"},
		{"core.refit_ms_mean", "rem_gen_refit_seconds"},
		{"core.rebuild_ms_mean", "rem_gen_rebuild_seconds"},
		{"core.publish_ms_mean", "rem_store_publish_seconds"},
		{"core.coverindex_mend_ms_mean", "rem_store_coverindex_mend_seconds"},
	} {
		rep.set(m.metric, histMeanMS(before, after, m.series), "scraped "+m.series)
	}
}

func scrapeIf(on bool, base string) (map[string]float64, error) {
	if !on {
		return nil, nil
	}
	return scrape(base)
}

// parseAck decodes the POST /observe answer {"accepted":N,"seq":S}.
func parseAck(b []byte) (accepted int, seq uint64, err error) {
	rest, ok := bytes.CutPrefix(b, []byte(`{"accepted":`))
	i := bytes.IndexByte(rest, ',')
	if !ok || i < 0 {
		return 0, 0, fmt.Errorf("bad ack")
	}
	if accepted, err = strconv.Atoi(string(rest[:i])); err != nil {
		return 0, 0, err
	}
	rest, ok = bytes.CutPrefix(rest[i+1:], []byte(`"seq":`))
	if rest, ok2 := bytes.CutSuffix(rest, []byte("}\n")); ok && ok2 {
		seq, err = strconv.ParseUint(string(rest), 10, 64)
		return accepted, seq, err
	}
	return 0, 0, fmt.Errorf("bad ack")
}

// mapBackend answers from one retained snapshot, at its version.
type mapBackend struct {
	m   *rem.Map
	ver uint64
}

func (b mapBackend) At(key string, p geom.Vec3) (float64, uint64, error) {
	v, err := b.m.At(key, p)
	return v, b.ver, err
}

func (b mapBackend) Strongest(p geom.Vec3) (string, float64, uint64, error) {
	k, v := b.m.Strongest(p)
	return k, v, b.ver, nil
}

func (b mapBackend) AtBatchInto(dst []float64, key string, pts []geom.Vec3) (uint64, error) {
	return b.ver, b.m.AtBatchInto(dst, key, pts)
}

func (b mapBackend) StrongestBatchInto(keys []string, vals []float64, pts []geom.Vec3) (uint64, error) {
	return b.ver, b.m.StrongestBatchInto(keys, vals, pts)
}

// snapshotSHA is the SHA-256 of a map's codec bytes (rule 10 compares
// snapshots byte for byte).
func snapshotSHA(m *rem.Map) ([32]byte, error) {
	h := sha256.New()
	var sum [32]byte
	if _, err := m.WriteTo(h); err != nil {
		return sum, err
	}
	copy(sum[:], h.Sum(nil))
	return sum, nil
}
