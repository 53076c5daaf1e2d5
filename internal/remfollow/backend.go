package remfollow

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strings"

	"repro/internal/geom"
	"repro/internal/rem"
	"repro/internal/remstore"
)

// followBackend adapts a Follower to the remserve.Backend surface, so
// the replica serves the exact same query endpoints as its leader —
// /at, /strongest, /snapshot, /delta all work against the local store,
// and a replica can itself be followed (chained replication). The
// snapshot tag is the leader's tag verbatim, held in one atomic
// generation pointer with the map it names, so the ETag a client sees
// always matches the bytes it gets even mid-swap.
type followBackend struct{ f *Follower }

func (b followBackend) At(key string, p geom.Vec3) (float64, uint64, error) {
	return b.f.store.At(key, p)
}

func (b followBackend) AtBatchInto(dst []float64, key string, pts []geom.Vec3) (uint64, error) {
	return b.f.store.AtBatchInto(dst, key, pts)
}

func (b followBackend) Strongest(p geom.Vec3) (string, float64, uint64, error) {
	return b.f.store.Strongest(p)
}

func (b followBackend) StrongestBatchInto(keys []string, vals []float64, pts []geom.Vec3) (uint64, error) {
	return b.f.store.StrongestBatchInto(keys, vals, pts)
}

func (b followBackend) Snapshot() (*rem.Map, string, error) {
	g := b.f.gen.Load()
	if g == nil {
		return nil, "", remstore.ErrEmpty
	}
	return g.m, g.tag, nil
}

func (b followBackend) SnapshotAt(tag string) (*rem.Map, bool) {
	b.f.mu.Lock()
	defer b.f.mu.Unlock()
	for i := len(b.f.gens) - 1; i >= 0; i-- {
		if b.f.gens[i].tag == tag {
			return b.f.gens[i].m, true
		}
	}
	return nil, false
}

// Versions reports the leader's tag verbatim. The tag's arity is the
// leader's shard count: report it, so a replica's /version is
// byte-identical to its leader's (the local store is monolithic either
// way).
func (b followBackend) Versions() (string, int, int) {
	g := b.f.gen.Load()
	if g == nil {
		return "0", 1, 1
	}
	return g.tag, strings.Count(g.tag, ".") + 1, 0
}

// health is the /healthz view: a replica is "serving" while fresh,
// "stale" once the last successful sync is older than MaxStaleness
// (503 — orchestrators should route reads elsewhere, though this
// process will keep answering them), and "empty" before the first sync.
func (f *Follower) health() (status string, code int, s SyncStats) {
	s = f.syncStats()
	switch {
	case s.Version == "":
		return "empty", http.StatusServiceUnavailable, s
	case s.Stale:
		return "stale", http.StatusServiceUnavailable, s
	default:
		return "serving", http.StatusOK, s
	}
}

// syncStats snapshots the replication telemetry.
func (f *Follower) syncStats() SyncStats {
	f.stateMu.Lock()
	s := f.stats
	if !f.lastSync.IsZero() {
		age := f.cfg.Now().Sub(f.lastSync)
		s.LastSyncAgeMS = age.Milliseconds()
		s.Stale = age > f.cfg.MaxStaleness
	}
	f.stateMu.Unlock()
	return s
}

// SyncStats returns the current replication telemetry.
func (f *Follower) SyncStats() SyncStats { return f.syncStats() }

// ServeHTTP serves the replica's endpoint set: /healthz is the
// follower's own (replication-aware — a query front that lies about its
// staleness is worse than one that is down), everything else is the
// standard remserve surface over the local store.
func (f *Follower) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/healthz":
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET")
			http.Error(w, http.StatusText(http.StatusMethodNotAllowed), http.StatusMethodNotAllowed)
			return
		}
		f.handleHealthz(w)
	default:
		f.server.ServeHTTP(w, r)
	}
}

// handleHealthz writes the replica health probe. Unlike the leader's
// probe it carries freshness: last-sync age, consecutive failures, the
// resync count and the last sync error, so "why is this replica
// unhealthy" is answerable from the probe body alone.
func (f *Follower) handleHealthz(w http.ResponseWriter) {
	status, code, s := f.health()
	body, err := json.Marshal(struct {
		Status              string `json:"status"`
		Version             string `json:"version"`
		LastSyncAgeMS       int64  `json:"last_sync_age_ms"`
		ConsecutiveFailures int    `json:"consecutive_failures"`
		Resyncs             uint64 `json:"resyncs"`
		LastError           string `json:"last_error"`
	}{status, s.Version, s.LastSyncAgeMS, s.ConsecutiveFailures, s.Resyncs, s.LastError})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if code != http.StatusOK {
		w.WriteHeader(code)
	}
	w.Write(append(body, '\n'))
}

// Serve accepts connections on l until Shutdown, on the same front as
// the leader.
func (f *Follower) Serve(l net.Listener) error { return f.front.Serve(l, f) }

// Shutdown closes connections that never sent a request, stops
// accepting and drains in-flight requests.
func (f *Follower) Shutdown(ctx context.Context) error { return f.front.Shutdown(ctx) }
