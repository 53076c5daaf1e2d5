package remwal

import (
	"sync/atomic"
	"time"

	"repro/internal/remobs"
)

// Observability for the durable ingest edge. The queue surfaces what
// previously only escaped inside 429 FullError responses — depth and
// the EWMA-drain Retry-After estimate — as gauges, plus rejected-batch
// counters split by cause; the log times appends, the fsync inside
// them, and replay, and flags the fail-stop (a gauge and one event
// carrying the cause). Instruments attach via SetObserver (or
// Config.Observer for the log, so replay itself is measured); nil is
// the opt-out and costs one pointer load per operation.

// queueObs is the queue's instrument set.
type queueObs struct {
	obs        *remobs.Observer
	submitted  *remobs.Counter
	rejFull    *remobs.Counter
	rejClosed  *remobs.Counter
	rejInvalid *remobs.Counter
}

// SetObserver registers the queue's metrics: depth, capacity and
// Retry-After gauges plus accepted/rejected counters. Safe to call
// concurrently with Submit (the instrument set swaps in atomically);
// counts before the call are simply not attributed.
func (q *Queue) SetObserver(obs *remobs.Observer) {
	if obs == nil || obs.Registry == nil {
		return
	}
	reg := obs.Registry
	o := &queueObs{
		obs: obs,
		submitted: reg.Counter("rem_wal_queue_submitted_total",
			"batches accepted by Submit (validated, persisted, enqueued)"),
		rejFull: reg.Counter("rem_wal_queue_rejected_total",
			"batches rejected by Submit, by cause", remobs.L("cause", "full")),
		rejClosed: reg.Counter("rem_wal_queue_rejected_total",
			"batches rejected by Submit, by cause", remobs.L("cause", "closed")),
		rejInvalid: reg.Counter("rem_wal_queue_rejected_total",
			"batches rejected by Submit, by cause", remobs.L("cause", "invalid")),
	}
	reg.GaugeFunc("rem_wal_queue_depth", "batches waiting in the ingest queue",
		func() float64 { return float64(q.Len()) })
	reg.GaugeFunc("rem_wal_queue_capacity", "configured ingest queue capacity",
		func() float64 { return float64(q.Cap()) })
	reg.GaugeFunc("rem_wal_queue_retry_after_seconds",
		"EWMA drain estimate of when a full queue frees a slot (the 429 Retry-After value)",
		func() float64 { return float64(q.RetryAfterEstimate()) })
	q.o.Store(o)
}

// RetryAfterEstimate is the drain-rate projection Submit puts in
// FullError.RetryAfter, exported so operators see the backpressure
// signal without driving the queue into 429s first: whole seconds
// until a slot should free up, ≥ 1.
func (q *Queue) RetryAfterEstimate() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.retryAfterLocked()
}

// logObs is the log's instrument set.
type logObs struct {
	obs        *remobs.Observer
	appendHist *remobs.Histogram
	fsyncHist  *remobs.Histogram
	replayHist *remobs.Histogram
	replayed   *remobs.Counter
}

// SetObserver registers the log's metrics. Open wires Config.Observer
// through here before replay so the replay histogram sees the
// recovery pass; attaching later just misses it.
func (l *Log) SetObserver(obs *remobs.Observer) {
	if obs == nil || obs.Registry == nil {
		return
	}
	reg := obs.Registry
	o := &logObs{
		obs: obs,
		appendHist: reg.Histogram("rem_wal_append_seconds",
			"WAL append latency (framing, write and any fsync)"),
		fsyncHist: reg.Histogram("rem_wal_fsync_seconds",
			"fsync latency inside WAL appends (SyncAlways only)"),
		replayHist: reg.Histogram("rem_wal_replay_seconds",
			"crash-recovery replay latency per Open"),
		replayed: reg.Counter("rem_wal_replayed_records_total",
			"records recovered by replay across Opens"),
	}
	reg.GaugeFunc("rem_wal_next_seq", "next WAL sequence number to be assigned",
		func() float64 { return float64(l.NextSeq()) })
	reg.GaugeFunc("rem_wal_failed", "1 once a write, fsync or rotation error has failed the log (every later append is refused), else 0",
		func() float64 {
			l.mu.Lock()
			defer l.mu.Unlock()
			if l.failed != nil {
				return 1
			}
			return 0
		})
	l.mu.Lock()
	l.o = o
	l.mu.Unlock()
}

// observeAppend records one durable append. Called under l.mu.
func (l *Log) observeAppend(seq uint64, total, fsync time.Duration) {
	o := l.o
	if o == nil {
		return
	}
	o.appendHist.Observe(total)
	if fsync > 0 || l.sync == SyncAlways {
		o.fsyncHist.Observe(fsync)
	}
	o.obs.Event("wal-append", "seq=%d append=%s fsync=%s",
		seq, total.Round(time.Microsecond), fsync.Round(time.Microsecond))
}

// observeReplay records one recovery pass.
func (l *Log) observeReplay(records int, d time.Duration) {
	o := l.o
	if o == nil {
		return
	}
	o.replayHist.Observe(d)
	o.replayed.Add(uint64(records))
	o.obs.Event("wal-replay", "records=%d next_seq=%d took=%s",
		records, l.NextSeq(), d.Round(time.Microsecond))
}

// observeFailure records the error that failed the log. Called under
// l.mu, once per log.
func (l *Log) observeFailure(err error) {
	if l.o == nil {
		return
	}
	l.o.obs.Event("wal-failed", "next_seq=%d cause=%v", l.nextSeq, err)
}

// obsPtr is a typed atomic holder so Queue can swap its instrument set
// without racing Submit's pre-lock rejection paths.
type obsPtr struct{ p atomic.Pointer[queueObs] }

func (h *obsPtr) Store(o *queueObs) { h.p.Store(o) }
func (h *obsPtr) Load() *queueObs   { return h.p.Load() }

// The mark helpers are nil-safe so Submit needs no instrument guard.

func (o *queueObs) markSubmitted() {
	if o != nil {
		o.submitted.Inc()
	}
}

func (o *queueObs) markInvalid() {
	if o != nil {
		o.rejInvalid.Inc()
	}
}

func (o *queueObs) markClosed() {
	if o != nil {
		o.rejClosed.Inc()
	}
}

func (o *queueObs) markFull() {
	if o != nil {
		o.rejFull.Inc()
	}
}
