// Package remnode assembles one serving node — a streaming leader, an
// ingester or a follower — and owns its lifecycle: bind the listener
// before any work, serve while the pipeline runs, and stop the parts in
// the one order each role needs (DESIGN.md, "Node assembly").
package remnode

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
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

// drainTimeout bounds the HTTP drain Run performs on its way out, so a
// stuck client cannot wedge shutdown.
const drainTimeout = 5 * time.Second

// Config assembles one node. Exactly one of Stream, Ingest and Follow is
// set, and it selects the role. The node wires the layers together
// itself — the pipeline's Context and OnStore, the ingest Queue and
// Replay, every inner Observer — so a caller setting one is an error.
type Config struct {
	// Addr is the HTTP listen address (port 0 picks a free port).
	Addr string
	// Stream makes the node a streaming leader; the last generation
	// keeps serving after the stream ends.
	Stream *core.StreamConfig
	// Ingest makes the node an ingester of POST /observe batches.
	Ingest *core.IngestConfig
	// Follow makes the node a replica of a running leader.
	Follow *remfollow.Config
	// Dataset is a leader's bootstrap survey; nil flies the mission.
	Dataset *dataset.Dataset
	// Serve configures a leader's HTTP front; an ingester's
	// Serve.Ingest.Token guards POST /observe.
	Serve remserve.Options
	// WALDir makes an ingester persist every batch before acknowledging
	// it; Start replays the log ("" keeps batches in memory only).
	WALDir string
	// QueueCapacity bounds an ingester's queue (≤ 0 is the remwal
	// default); a full queue answers 429.
	QueueCapacity int
	// Observer instruments every layer: store, loop, queue, log, HTTP
	// front and follower. Nil is the no-op.
	Observer *remobs.Observer
}

func (c Config) validate() error {
	roles := 0
	for _, set := range []bool{c.Stream != nil, c.Ingest != nil, c.Follow != nil} {
		if set {
			roles++
		}
	}
	s, i, f := c.Stream, c.Ingest, c.Follow
	switch {
	case roles != 1:
		return errors.New("remnode: set exactly one of Stream, Ingest and Follow")
	case c.Serve.Observer != nil || s != nil && s.Observer != nil || i != nil && i.Observer != nil || f != nil && f.Observer != nil:
		return errors.New("remnode: set Config.Observer; the node hands it to every layer")
	case c.Serve.Ingest.Queue != nil || s != nil && (s.Context != nil || s.OnStore != nil) ||
		i != nil && (i.Context != nil || i.OnStore != nil || i.Queue != nil || i.Replay != nil):
		return errors.New("remnode: the node wires the Context, OnStore, Queue and Replay hooks itself")
	case i == nil && (c.WALDir != "" || c.QueueCapacity != 0):
		return errors.New("remnode: WALDir and QueueCapacity configure an ingester")
	}
	return nil
}

// front is the HTTP edge: a remserve.Server for a leader, the
// remfollow.Follower itself for a replica.
type front interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
}

// Node is one assembled node: Start binds it, Run serves it, and
// Shutdown (which Run also calls on its way out) stops it in order.
type Node struct {
	cfg      Config
	ln       net.Listener
	wal      *remwal.Log
	queue    *remwal.Queue
	replay   []remwal.Batch
	follower *remfollow.Follower
	stopLoop context.CancelFunc
	loopCtx  context.Context

	runDone   chan struct{} // closed when Run returns
	loopDone  chan struct{} // closed when the pipeline returns (or, never run, at shutdown)
	loopErr   error         // written before loopDone closes
	stream    *core.StreamResult
	serveDone chan struct{} // closed when the front's Serve returns
	serveErr  error         // written before serveDone closes

	mu       sync.Mutex
	running  bool
	stopping bool
	srv      front
	store    *remstore.Store

	stopReq  chan struct{}
	stopOnce sync.Once
	stopErr  error
	closedAt uint64
	walOK    bool

	step func(string) // test hook: names each shutdown step once done
}

// Start validates cfg, binds Addr and assembles the node without
// running any of it. The listener comes first, so a port clash fails
// before a WAL opens or a mission flies. An ingester's WAL is opened
// next, and every recovered record must decode as an observation batch:
// the first that does not is an error naming its seq.
func Start(cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	n := &Node{cfg: cfg, ln: ln, runDone: make(chan struct{}), loopDone: make(chan struct{}),
		serveDone: make(chan struct{}), stopReq: make(chan struct{})}
	n.loopCtx, n.stopLoop = context.WithCancel(context.Background())
	if err := n.assemble(); err != nil {
		n.stopLoop()
		ln.Close()
		return nil, err
	}
	return n, nil
}

func (n *Node) assemble() error {
	c := n.cfg
	if c.Follow != nil {
		fc := *c.Follow
		fc.Observer = c.Observer
		var err error
		n.follower, err = remfollow.New(fc)
		return err
	}
	if c.Ingest == nil {
		return nil
	}
	qc := remwal.QueueConfig{Capacity: c.QueueCapacity}
	if c.WALDir != "" {
		l, recs, err := remwal.Open(remwal.Config{Dir: c.WALDir, Observer: c.Observer})
		if err != nil {
			return err
		}
		batches, good := remwal.Batches(recs)
		if good != len(recs) {
			l.Close()
			// A wrong directory, or a non-finite batch an older build
			// acknowledged: never skipped, so every restart stops here.
			_, derr := remwal.DecodeBatch(recs[good].Payload)
			return fmt.Errorf("wal %s: record %d is not a valid observation batch: %w", c.WALDir, recs[good].Seq, derr)
		}
		n.wal, n.replay, qc.Log = l, batches, l
	}
	n.queue = remwal.NewQueue(qc)
	n.queue.SetObserver(c.Observer)
	return nil
}

// Addr is the bound listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Replayed is how many WAL batches an ingester replays first.
func (n *Node) Replayed() int { return len(n.replay) }

// ClosedAt is the WAL's last seq once shutdown has fsynced and closed
// it; ok is false without a WAL or when closing failed.
func (n *Node) ClosedAt() (seq uint64, ok bool) { return n.closedAt, n.walOK }

// Follower is a replica's follower (nil for a leader).
func (n *Node) Follower() *remfollow.Follower { return n.follower }

// Store is the monolithic store the node serves — an ingester's, a
// monolithic stream's or a replica's; nil before the pipeline creates
// it and for a sharded stream.
func (n *Node) Store() *remstore.Store {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.store
}

// Done is closed once the pipeline — stream, ingest loop or sync loop —
// has returned.
func (n *Node) Done() <-chan struct{} { return n.loopDone }

// Stream waits for Done and returns a streaming leader's result and the
// stream's error: nil once it completed, or wrapping context.Canceled
// (beside the partial result) when shutdown stopped it between windows.
func (n *Node) Stream() (*core.StreamResult, error) {
	<-n.loopDone
	return n.stream, n.loopErr
}

// Run starts the pipeline and the HTTP front, and blocks until ctx is
// done, Shutdown is called, the pipeline fails or the listener dies; a
// stream that completes keeps serving. Run then shuts the node down in
// order, the HTTP drain bounded at 5 s, and returns the failure that
// ended it, else the shutdown's error.
func (n *Node) Run(ctx context.Context) error {
	n.mu.Lock()
	ok := !n.running && !n.stopping
	n.running = n.running || ok
	n.mu.Unlock()
	if !ok {
		return errors.New("remnode: Run on a node that already ran or shut down")
	}
	defer close(n.runDone)
	if n.follower != nil {
		n.serve(n.follower, n.follower.Store())
	}
	go n.runLoop()
	var cause error
	loopDone := n.loopDone
	for {
		select {
		case <-ctx.Done():
		case <-n.stopReq:
		case <-loopDone:
			if n.loopErr == nil {
				loopDone = nil // a completed stream keeps serving its last generation
				continue
			}
			cause = n.loopFailure()
		case <-n.serveDone:
			cause = fmt.Errorf("remnode: HTTP front on %s stopped: %w", n.Addr(), n.serveErr)
		}
		break
	}
	select {
	case <-n.stopReq:
		cause = nil // parts stopped because Shutdown asked them to
	default:
	}
	sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), drainTimeout)
	defer cancel()
	if err := n.shutdown(sctx); cause == nil {
		return err
	}
	return cause
}

// runLoop runs the role's pipeline; a leader's OnStore starts the HTTP
// front before the first publish.
func (n *Node) runLoop() {
	defer close(n.loopDone)
	c, opts := n.cfg, n.cfg.Serve
	opts.Observer = c.Observer
	switch {
	case c.Follow != nil:
		n.loopErr = n.follower.Run(n.loopCtx)
	case c.Stream != nil:
		sc := *c.Stream
		sc.Context, sc.Observer = n.loopCtx, c.Observer
		sc.OnStore = func(st *remstore.Store, ss *remshard.ShardedStore) {
			if ss != nil {
				n.serve(remserve.NewSharded(ss, opts), nil)
			} else {
				n.serve(remserve.NewStore(st, opts), st)
			}
		}
		if c.Dataset != nil {
			n.stream, n.loopErr = core.RunStreamWithDataset(sc, c.Dataset, nil)
		} else {
			n.stream, n.loopErr = core.RunStream(sc)
		}
	default:
		ic := *c.Ingest
		ic.Queue, ic.Replay, ic.Context, ic.Observer = n.queue, n.replay, n.loopCtx, c.Observer
		opts.Ingest.Queue = n.queue
		ic.OnStore = func(st *remstore.Store) { n.serve(remserve.NewStore(st, opts), st) }
		if c.Dataset != nil {
			_, n.loopErr = core.RunIngestWithDataset(ic, c.Dataset, nil)
		} else {
			_, n.loopErr = core.RunIngest(ic)
		}
	}
}

// serve starts f on the listener, unless shutdown has begun (a stream
// still flying its mission when Shutdown came).
func (n *Node) serve(f front, st *remstore.Store) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.store = st
	if n.stopping {
		return
	}
	n.srv = f
	go func() {
		n.serveErr = f.Serve(n.ln)
		close(n.serveDone)
	}()
}

// loopFailure is the pipeline's error, unless it only reports the stop
// the node asked for.
func (n *Node) loopFailure() error {
	if errors.Is(n.loopErr, context.Canceled) || errors.Is(n.loopErr, remwal.ErrClosed) {
		return nil
	}
	return n.loopErr
}

// Shutdown stops the node in its role's order, the HTTP drain bounded
// by ctx, and returns once every part has stopped and Run, if it ran,
// has returned. An ingester drains HTTP (no more acks), closes the
// queue, waits for the loop, then fsyncs and closes the WAL. A
// streaming leader stops its stream between windows, and a follower its
// sync loop, before draining HTTP. Later calls return the first call's
// result; without Run, Shutdown releases the listener and the WAL.
func (n *Node) Shutdown(ctx context.Context) error {
	err := n.shutdown(ctx)
	n.mu.Lock()
	running := n.running
	n.mu.Unlock()
	if running {
		<-n.runDone
	}
	return err
}

func (n *Node) shutdown(ctx context.Context) error {
	n.stopOnce.Do(func() {
		close(n.stopReq)
		n.stopErr = n.stop(ctx)
	})
	return n.stopErr
}

func (n *Node) stop(ctx context.Context) error {
	n.mu.Lock()
	n.stopping = true
	srv, running := n.srv, n.running // srv is fixed from here on
	n.mu.Unlock()
	if !running {
		close(n.loopDone)
	}
	if n.cfg.Ingest == nil {
		return errors.Join(n.endLoop(), n.drain(ctx, srv))
	}
	errs := []error{n.drain(ctx, srv)}
	n.queue.Close()
	n.trace("queue")
	errs = append(errs, n.endLoop())
	if n.wal != nil {
		last := n.wal.NextSeq() - 1
		if err := n.wal.Close(); err != nil {
			errs = append(errs, fmt.Errorf("closing wal: %w", err))
		} else {
			n.closedAt, n.walOK = last, true
		}
		n.trace("wal")
	}
	return errors.Join(errs...)
}

// endLoop cancels the pipeline and waits for it to return.
func (n *Node) endLoop() error {
	n.stopLoop()
	<-n.loopDone
	n.trace("loop")
	return n.loopFailure()
}

// drain shuts the HTTP front down and waits for its Serve to return.
func (n *Node) drain(ctx context.Context, srv front) error {
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	// Shutdown closed the listener already, unless no front started or
	// one raced it into Serve; closing here ends both cases.
	n.ln.Close()
	if srv != nil {
		<-n.serveDone
	}
	n.trace("http")
	return err
}

func (n *Node) trace(step string) {
	if n.step != nil {
		n.step(step)
	}
}
