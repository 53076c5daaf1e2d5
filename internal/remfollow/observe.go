package remfollow

import (
	"time"

	"repro/internal/remobs"
)

// followObs is the follower's instrument set; nil means
// uninstrumented. The sync tallies SyncStats already keeps are bridged
// as scrape-time funcs (no double counting); only the sync-latency
// histogram and the event ring add work, once per sync.
type followObs struct {
	obs      *remobs.Observer
	syncHist *remobs.Histogram
}

// initObserver registers the follower's metrics with cfg.Observer.
// Called from New; the same observer also flows into the inner
// remserve.Server (GET /metrics, per-endpoint counters) and the local
// store (publish latency, cover-index gauges), so one scrape of the
// replica carries the whole stack.
func (f *Follower) initObserver(obs *remobs.Observer) {
	if obs == nil || obs.Registry == nil {
		return
	}
	reg := obs.Registry
	f.o = &followObs{
		obs: obs,
		syncHist: reg.Histogram("rem_follow_sync_seconds",
			"one leader sync attempt (delta poll or full fetch), success or failure"),
	}
	reg.GaugeFunc("rem_follow_staleness_seconds",
		"age of the last successful sync (-1 before the first)",
		func() float64 {
			f.stateMu.Lock()
			last := f.lastSync
			f.stateMu.Unlock()
			if last.IsZero() {
				return -1
			}
			return f.cfg.Now().Sub(last).Seconds()
		})
	reg.GaugeFunc("rem_follow_consecutive_failures",
		"sync failures since the last success",
		func() float64 {
			f.stateMu.Lock()
			defer f.stateMu.Unlock()
			return float64(f.stats.ConsecutiveFailures)
		})
	stat := func(pick func(SyncStats) uint64) func() float64 {
		return func() float64 {
			f.stateMu.Lock()
			defer f.stateMu.Unlock()
			return float64(pick(f.stats))
		}
	}
	reg.CounterFunc("rem_follow_syncs_total", "successful syncs (deltas, fulls and 304s)",
		stat(func(s SyncStats) uint64 { return s.Syncs }))
	reg.CounterFunc("rem_follow_failures_total", "failed syncs",
		stat(func(s SyncStats) uint64 { return s.Failures }))
	reg.CounterFunc("rem_follow_deltas_total", "syncs applied from the REMD delta wire",
		stat(func(s SyncStats) uint64 { return s.Deltas }))
	reg.CounterFunc("rem_follow_fulls_total", "syncs applied from full snapshots",
		stat(func(s SyncStats) uint64 { return s.Fulls }))
	reg.CounterFunc("rem_follow_not_modified_total", "304 polls (already current)",
		stat(func(s SyncStats) uint64 { return s.NotModified }))
	reg.CounterFunc("rem_follow_corrupt_total", "failed syncs whose payload a codec rejected (checksum, truncation)",
		stat(func(s SyncStats) uint64 { return s.Corrupt }))
	reg.CounterFunc("rem_follow_resyncs_total", "full resyncs forced by corruption or MaxFailures",
		stat(func(s SyncStats) uint64 { return s.Resyncs }))
	reg.CounterFunc("rem_follow_delta_bytes_total", "payload bytes applied over the delta path",
		stat(func(s SyncStats) uint64 { return s.DeltaBytes }))
	reg.CounterFunc("rem_follow_full_bytes_total", "payload bytes applied over the full path",
		stat(func(s SyncStats) uint64 { return s.FullBytes }))
}

// observeSync records one sync attempt: the latency histogram and a
// lifecycle event naming what came over the wire (derived from the
// stats delta — the counters themselves are bridged, not re-counted)
// and the backoff state a failure leaves behind.
func (f *Follower) observeSync(before, after SyncStats, err error, forceFull bool, d time.Duration) {
	o := f.o
	if o == nil {
		return
	}
	o.syncHist.Observe(d)
	if err != nil {
		o.obs.Event("sync", "fail #%d force_full=%v took=%s err=%v",
			after.ConsecutiveFailures, forceFull, d.Round(time.Millisecond), err)
		return
	}
	kind := "noop"
	switch {
	case after.Deltas > before.Deltas:
		kind = "delta"
	case after.Fulls > before.Fulls:
		kind = "full"
	case after.NotModified > before.NotModified:
		kind = "not-modified"
	}
	o.obs.Event("sync", "ok kind=%s version=%s bytes=%d took=%s",
		kind, after.Version,
		(after.DeltaBytes-before.DeltaBytes)+(after.FullBytes-before.FullBytes),
		d.Round(time.Millisecond))
}
