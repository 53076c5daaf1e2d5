// Package remfollow replicates a leader's REM over HTTP and keeps
// serving reads through every failure — the read-replica tier of the
// serving stack. A Follower polls the leader's /delta endpoint (remserve)
// with its current version tag: an unchanged leader costs one 304 header
// exchange, a changed one ships only the tiles that changed (the "REMD"
// delta codec, rem.ApplyDelta), and a leader that no longer retains the
// follower's generation — evicted history, a restarted process — answers
// with a full snapshot the follower resyncs from. Every synced
// generation lands in a local remstore.Store via PublishAt under the
// leader's own version number, so the replica's query responses carry
// the same version fields as the leader's (determinism contract rule 8,
// extended across replicas: at the same version vector, follower bytes ≡
// leader bytes).
//
// The failure posture is graceful degradation, never amplification:
//
//   - Transport failures (timeouts, connection resets, 5xx) back off
//     exponentially with full jitter, capped at BackoffMax.
//   - 429 responses honour the leader's Retry-After exactly instead of
//     the follower's own backoff — the leader knows its budget.
//   - Corrupt payloads (the delta and snapshot codecs both end in a
//     CRC-32 trailer) are rejected and trigger an automatic
//     full-snapshot resync; a corrupt byte can never poison the served
//     map.
//   - MaxFailures consecutive failures force the next sync to refetch
//     the full snapshot rather than keep retrying a delta chain.
//   - The last good snapshot is never dropped: reads keep serving stale
//     data while the leader is away, and the staleness is surfaced —
//     /healthz flips to 503 "stale" past MaxStaleness and reports the
//     last-sync age, consecutive failures, resync count and last error.
package remfollow

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rem"
	"repro/internal/remobs"
	"repro/internal/remserve"
	"repro/internal/remstore"
)

// Defaults for the zero Config fields.
const (
	DefaultPoll         = time.Second
	DefaultTimeout      = 10 * time.Second
	DefaultBackoffBase  = 200 * time.Millisecond
	DefaultBackoffMax   = 30 * time.Second
	DefaultMaxFailures  = 5
	DefaultMaxStaleness = 30 * time.Second
)

// Config parameterises a Follower. Leader is required; everything else
// has a serviceable default. The function fields (Now, Sleep, Rand) and
// Client.Transport are the injection points the deterministic fault
// tests drive; production code leaves them nil.
type Config struct {
	// Leader is the leader's base URL, e.g. "http://10.0.0.7:8080".
	Leader string
	// Client issues the HTTP requests; nil means a private client (so a
	// custom Transport — including FaultTransport — can be injected
	// without touching http.DefaultClient).
	Client *http.Client
	// Poll is the steady-state interval between syncs (≤ 0 means
	// DefaultPoll).
	Poll time.Duration
	// Timeout bounds one sync request (≤ 0 means DefaultTimeout).
	Timeout time.Duration
	// BackoffBase and BackoffMax shape the failure backoff: after n
	// consecutive failures the sleep is uniform in
	// [0, min(BackoffMax, BackoffBase·2ⁿ⁻¹)] — full jitter, so a fleet
	// of followers does not re-converge on a recovering leader in
	// lockstep.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxFailures forces a full-snapshot resync after that many
	// consecutive sync failures (≤ 0 means DefaultMaxFailures).
	MaxFailures int
	// MaxStaleness is how long the replica may serve without a
	// successful sync before /healthz reports 503 "stale"
	// (≤ 0 means DefaultMaxStaleness).
	MaxStaleness time.Duration
	// History bounds the local snapshot history (and the generations the
	// replica can itself serve deltas from); ≤ 0 means
	// remstore.DefaultMaxHistory.
	History int
	// Now is the follower clock (nil means time.Now).
	Now func() time.Time
	// Sleep waits between syncs (nil means a timer honouring ctx).
	Sleep func(ctx context.Context, d time.Duration) error
	// Rand yields the jitter fraction in [0, 1) (nil means a seeded
	// private source).
	Rand func() float64
	// Observer, when set, instruments the follower: sync latency and
	// outcomes, staleness and failure gauges, the local store's metrics
	// and the inner HTTP server (which also answers GET /metrics). A
	// follower sharing a process with a leader needs its own Observer —
	// both register rem_store_* names, and func instruments are
	// last-wins.
	Observer *remobs.Observer
}

// generation is the serving (map, leader tag) pair, swapped atomically
// so /snapshot and /delta always see a mutually consistent view.
type generation struct {
	m   *rem.Map
	tag string
}

// SyncStats is the replication telemetry: /healthz renders its
// freshness fields and /metrics bridges its counters.
type SyncStats struct {
	// Leader is the followed base URL.
	Leader string
	// Version is the leader version tag of the serving generation
	// ("" before the first sync).
	Version string
	// LastSyncAgeMS is how long ago the last successful sync finished,
	// in milliseconds (-1 before the first).
	LastSyncAgeMS int64
	// Stale reports whether the age exceeds MaxStaleness.
	Stale bool
	// ConsecutiveFailures counts sync failures since the last success.
	ConsecutiveFailures int
	// LastError is the most recent sync failure's message, cleared on
	// the next success — with ConsecutiveFailures, the first thing an
	// operator needs when a follower goes stale.
	LastError string
	// Syncs counts successful syncs (deltas, fulls and 304s).
	Syncs uint64
	// Deltas, Fulls and NotModified break the successful syncs down by
	// what came over the wire.
	Deltas      uint64
	Fulls       uint64
	NotModified uint64
	// Failures counts failed syncs; Corrupt the subset rejected by a
	// codec (checksum, truncation); Resyncs the full-snapshot fetches
	// forced by corruption or MaxFailures.
	Failures uint64
	Corrupt  uint64
	Resyncs  uint64
	// DeltaBytes and FullBytes count payload bytes applied per path —
	// the economics of the delta wire.
	DeltaBytes uint64
	FullBytes  uint64
}

// Follower mirrors one leader into a local store. Create with New,
// drive with Run (or SyncOnce under a custom loop), serve with
// Handler/Serve. All methods are safe for concurrent use; Run and
// SyncOnce are a single logical writer and must not run concurrently
// with each other.
type Follower struct {
	cfg    Config
	client *http.Client
	store  *remstore.Store
	server *remserve.Server
	o      *followObs

	gen atomic.Pointer[generation]

	mu   sync.Mutex
	gens []*generation
	rng  func() float64

	// Sync state, owned by the sync loop but read by /healthz and
	// /metrics.
	stateMu   sync.Mutex
	lastSync  time.Time
	forceFull bool
	stats     SyncStats

	// Listener lifecycle (Serve/Shutdown).
	front remserve.Front
}

// New builds a follower over cfg. The local store is created here and
// owned by the follower; Store exposes it for direct library reads.
func New(cfg Config) (*Follower, error) {
	if cfg.Leader == "" {
		return nil, errors.New("remfollow: config needs a leader URL")
	}
	cfg.Leader = strings.TrimSuffix(cfg.Leader, "/")
	if cfg.Poll <= 0 {
		cfg.Poll = DefaultPoll
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = DefaultBackoffBase
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = DefaultBackoffMax
	}
	if cfg.MaxFailures <= 0 {
		cfg.MaxFailures = DefaultMaxFailures
	}
	if cfg.MaxStaleness <= 0 {
		cfg.MaxStaleness = DefaultMaxStaleness
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Sleep == nil {
		cfg.Sleep = sleepCtx
	}
	f := &Follower{
		cfg:    cfg,
		client: cfg.Client,
		store:  remstore.New(cfg.History),
		rng:    cfg.Rand,
	}
	if f.client == nil {
		f.client = &http.Client{}
	}
	if f.rng == nil {
		f.rng = newJitterSource()
	}
	f.server = remserve.New(followBackend{f}, remserve.Options{Observer: cfg.Observer})
	f.store.SetObserver(cfg.Observer)
	f.initObserver(cfg.Observer)
	f.stats.Leader = cfg.Leader
	f.stats.LastSyncAgeMS = -1
	return f, nil
}

// Store exposes the local snapshot store (library-level reads against
// the replica).
func (f *Follower) Store() *remstore.Store { return f.store }

// sleepCtx is the production sleep: a timer that aborts on ctx.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retryAfterError marks a 429 whose Retry-After the loop must honour
// verbatim.
type retryAfterError struct{ after time.Duration }

func (e *retryAfterError) Error() string {
	return fmt.Sprintf("remfollow: leader throttled the follower (retry after %v)", e.after)
}

// corruptError marks a payload a codec rejected — the trigger for an
// automatic full resync.
type corruptError struct{ err error }

func (e *corruptError) Error() string { return "remfollow: corrupt payload: " + e.err.Error() }
func (e *corruptError) Unwrap() error { return e.err }

// Run polls the leader until ctx is cancelled: Poll between successful
// syncs, jittered exponential backoff after failures, the leader's own
// Retry-After verbatim when throttled. It returns ctx's error on
// cancellation — the only way it returns — after closing the client's
// idle connections, so a stopped follower holds none open on the
// leader (a spare one would stall the leader's drain).
func (f *Follower) Run(ctx context.Context) error {
	defer f.client.CloseIdleConnections()
	for {
		err := f.SyncOnce(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var delay time.Duration
		var ra *retryAfterError
		switch {
		case err == nil:
			delay = f.cfg.Poll
		case errors.As(err, &ra):
			delay = ra.after
		default:
			delay = f.backoff()
		}
		if err := f.cfg.Sleep(ctx, delay); err != nil {
			return err
		}
	}
}

// backoff returns the next failure sleep: full jitter over an
// exponentially growing cap. Reads the failure count under stateMu
// (SyncOnce updated it before returning).
func (f *Follower) backoff() time.Duration {
	f.stateMu.Lock()
	n := f.stats.ConsecutiveFailures
	f.stateMu.Unlock()
	if n < 1 {
		n = 1
	}
	bound := f.cfg.BackoffMax
	if shift := n - 1; shift < 62 && f.cfg.BackoffBase<<shift < bound {
		bound = f.cfg.BackoffBase << shift
	}
	f.mu.Lock()
	r := f.rng()
	f.mu.Unlock()
	return time.Duration(r * float64(bound))
}

// SyncOnce performs one sync against the leader: a delta poll when a
// generation is already held (full fetch otherwise or when forced), and
// an automatic full-snapshot resync if the delta payload is corrupt.
// On failure the serving generation is left untouched — stale reads
// keep working — and the failure is recorded for backoff, /healthz and
// /metrics.
func (f *Follower) SyncOnce(ctx context.Context) error {
	start := time.Now()
	f.stateMu.Lock()
	before := f.stats
	f.stateMu.Unlock()
	err := f.syncOnce(ctx)
	f.stateMu.Lock()
	if err != nil {
		f.stats.Failures++
		f.stats.ConsecutiveFailures++
		f.stats.LastError = err.Error()
		if f.stats.ConsecutiveFailures >= f.cfg.MaxFailures {
			// A delta chain that keeps failing is not worth resuming:
			// refetch the whole map next time.
			f.forceFull = true
		}
	} else {
		f.stats.ConsecutiveFailures = 0
		f.stats.LastError = ""
		f.lastSync = f.cfg.Now()
		f.stats.Syncs++
	}
	after := f.stats
	forceFull := f.forceFull
	f.stateMu.Unlock()
	f.observeSync(before, after, err, forceFull, time.Since(start))
	return err
}

func (f *Follower) syncOnce(ctx context.Context) error {
	cur := f.gen.Load()
	f.stateMu.Lock()
	full := f.forceFull || cur == nil
	f.forceFull = false
	f.stateMu.Unlock()
	if full {
		return f.fullSync(ctx)
	}
	body, tag, status, ct, err := f.fetch(ctx, "/delta?from="+cur.tag, cur.tag)
	if err != nil {
		return err
	}
	if status == http.StatusNotModified {
		f.stateMu.Lock()
		f.stats.NotModified++
		f.stateMu.Unlock()
		return nil
	}
	if ct == remserve.DeltaContentType {
		next, err := rem.ApplyDelta(cur.m, body)
		if err != nil {
			// The CRC trailer (or a structural check) rejected the
			// payload; the delta chain is broken, resync from a full
			// snapshot without waiting a round trip.
			f.countCorrupt()
			if ferr := f.fullSync(ctx); ferr != nil {
				return fmt.Errorf("remfollow: resync after corrupt delta: %w", ferr)
			}
			return nil
		}
		if err := f.adopt(next, tag); err != nil {
			return err
		}
		f.stateMu.Lock()
		f.stats.Deltas++
		f.stats.DeltaBytes += uint64(len(body))
		f.stateMu.Unlock()
		return nil
	}
	// The leader no longer retains our base (evicted history or a
	// restart): the /delta response degraded to a full snapshot.
	return f.adoptFull(body, tag)
}

// fullSync fetches and adopts the leader's full snapshot.
func (f *Follower) fullSync(ctx context.Context) error {
	f.stateMu.Lock()
	f.stats.Resyncs++
	f.stateMu.Unlock()
	body, tag, _, _, err := f.fetch(ctx, "/snapshot", "")
	if err != nil {
		return err
	}
	return f.adoptFull(body, tag)
}

// adoptFull decodes a full snapshot body and makes it the serving
// generation.
func (f *Follower) adoptFull(body []byte, tag string) error {
	m, err := rem.ReadFrom(bytes.NewReader(body))
	if err != nil {
		f.countCorrupt()
		return &corruptError{err}
	}
	if err := f.adopt(m, tag); err != nil {
		return err
	}
	f.stateMu.Lock()
	f.stats.Fulls++
	f.stats.FullBytes += uint64(len(body))
	f.stateMu.Unlock()
	return nil
}

func (f *Follower) countCorrupt() {
	f.stateMu.Lock()
	f.stats.Corrupt++
	f.stateMu.Unlock()
}

// adopt publishes a synced generation locally and swaps the serving
// (map, tag) pair. The local version is the leader's map generation
// (rule 8 across replicas); if the leader's numbering moved backwards —
// a restarted leader starts over — the replica keeps its own versions
// strictly increasing and lets the tag carry the leader identity.
func (f *Follower) adopt(m *rem.Map, tag string) error {
	ver := m.Version()
	if cur := f.store.Current(); cur != nil && ver <= cur.Version() {
		ver = cur.Version() + 1
	}
	if ver == 0 {
		ver = 1
	}
	if _, err := f.store.PublishAt(m, len(m.Keys()), ver); err != nil {
		return fmt.Errorf("remfollow: publishing synced generation: %w", err)
	}
	g := &generation{m: m, tag: tag}
	f.gen.Store(g)
	f.mu.Lock()
	f.gens = append(f.gens, g)
	// Bound the tag-addressable history to what the store retains: a
	// generation the store evicted is not worth serving deltas from.
	if max := f.store.Stats().HistoryLen + 1; len(f.gens) > max {
		f.gens = append(f.gens[:0], f.gens[len(f.gens)-max:]...)
	}
	f.mu.Unlock()
	f.stateMu.Lock()
	f.stats.Version = tag
	f.stateMu.Unlock()
	return nil
}

// fetch issues one GET against the leader and returns the body, the
// response's version tag, status and content type. 304 returns early
// with no body; 429 surfaces the leader's Retry-After as a
// retryAfterError; every other non-200 is a plain failure.
func (f *Follower) fetch(ctx context.Context, path, etag string) (body []byte, tag string, status int, ct string, err error) {
	ctx, cancel := context.WithTimeout(ctx, f.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.cfg.Leader+path, nil)
	if err != nil {
		return nil, "", 0, "", err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", `"`+etag+`"`)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, "", 0, "", err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotModified:
		return nil, "", resp.StatusCode, "", nil
	case http.StatusTooManyRequests:
		return nil, "", 0, "", &retryAfterError{after: parseRetryAfter(resp.Header.Get("Retry-After"), f.cfg.Poll)}
	default:
		return nil, "", 0, "", fmt.Errorf("remfollow: leader answered %s %s", path, resp.Status)
	}
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", 0, "", err
	}
	tag = resp.Header.Get("X-REM-Version")
	if tag == "" {
		tag = strings.Trim(resp.Header.Get("ETag"), `"`)
	}
	if tag == "" {
		return nil, "", 0, "", fmt.Errorf("remfollow: leader response carries no version tag")
	}
	return body, tag, resp.StatusCode, resp.Header.Get("Content-Type"), nil
}

// parseRetryAfter reads a Retry-After value in delta-seconds (the form
// remserve emits); anything else falls back to def.
func parseRetryAfter(v string, def time.Duration) time.Duration {
	if secs, err := strconv.Atoi(strings.TrimSpace(v)); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	return def
}

// newJitterSource returns a cheap deterministic-free float source for
// backoff jitter without importing math/rand into the hot path
// (splitmix64 over a time seed).
func newJitterSource() func() float64 {
	state := uint64(time.Now().UnixNano())
	return func() float64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11) / float64(1<<53)
	}
}
