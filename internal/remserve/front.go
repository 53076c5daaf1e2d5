package remserve

import (
	"context"
	"net"
	"net/http"
	"sync"
)

// Front runs a handler on a listener with the package's connection
// bounds — the one net/http server both HTTP fronts (the leader's Server
// and a follower replica) are built on. Its Shutdown does not wait on
// silent clients: net/http counts a connection that was dialled but
// never sent a request (StateNew) as idle only after about 5 s, as long
// as a node's whole drain bound, so Front tracks such connections and
// closes them the moment shutdown starts. The zero value is ready.
type Front struct {
	mu       sync.Mutex
	hs       *http.Server
	fresh    map[net.Conn]struct{} // connections still in StateNew
	stopping bool
}

// Serve accepts connections on l, answering them with h, until
// Shutdown; a clean shutdown returns nil.
func (f *Front) Serve(l net.Listener, h http.Handler) error {
	hs := f.httpServer(h)
	f.mu.Lock()
	f.hs = hs
	f.mu.Unlock()
	err := hs.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// httpServer assembles the net/http server Serve runs: the handler, the
// connection-lifecycle bounds and the StateNew tracking.
func (f *Front) httpServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: DefaultReadHeaderTimeout,
		ReadTimeout:       DefaultReadTimeout,
		IdleTimeout:       DefaultIdleTimeout,
		ConnState:         f.track,
	}
}

// track follows each connection out of StateNew; one arriving after
// shutdown began is closed at once.
func (f *Front) track(c net.Conn, st http.ConnState) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if st != http.StateNew {
		delete(f.fresh, c)
		return
	}
	if f.stopping {
		c.Close()
		return
	}
	if f.fresh == nil {
		f.fresh = map[net.Conn]struct{}{}
	}
	f.fresh[c] = struct{}{}
}

// Shutdown closes every connection that has not sent a request yet, then
// stops accepting and drains in-flight requests, waiting up to ctx. A
// front that never served is a no-op.
func (f *Front) Shutdown(ctx context.Context) error {
	f.mu.Lock()
	f.stopping = true
	for c := range f.fresh {
		c.Close()
	}
	f.fresh = nil
	hs := f.hs
	f.mu.Unlock()
	if hs == nil {
		return nil
	}
	return hs.Shutdown(ctx)
}
