// Package server is the network serving subsystem: it exposes a DyTIS index
// over the length-prefixed binary protocol of internal/proto with request
// pipelining, per-connection read/write goroutines, batched opcodes,
// connection limits with accept-side backpressure, and graceful drain.
//
// Every connection opens with the HELLO handshake (internal/proto): the
// server refuses a peer that does not ask for protocol v2 with checksums and
// streamed scans, and seals every frame after it.
//
// Concurrency model, per connection:
//
//	read loop ──decode──► handle (node op) ──encode──► out chan ──► write loop
//
// A node op is a data operation served through the server's one
// cluster.Node: a shard server's (Config.Cluster) or, on a standalone
// server, one New builds that owns the whole key space and never gets a
// map, so both kinds of server run one data path, and the node is the only
// code that touches the backend.
//
// The read loop decodes and executes requests back-to-back without waiting
// for the client to consume responses — that is what makes client-side
// pipelining effective — and hands each encoded response to the write loop
// over a bounded channel. The chain is self-throttling end to end: a client
// that stops reading stalls the write loop on TCP, which fills the out
// channel, which blocks the read loop, which fills the client's send window.
// No per-connection buffering grows beyond the channel's Pipeline frames.
//
// Every mutation is submitted to the node (commit.go). Over a backend whose
// mutations commit in groups (the durable wal.Store adapter) it leaves the
// read loop early and its response joins the write loop late, so the read
// loop never waits out an fsync and responses complete out of order: a read
// overtakes the ack of a write sent before it. The ordering
// rule is: the mutations of one connection apply in arrival order; a request
// sent after a response was received observes that response's effect;
// nothing else is ordered. Pending mutations count against the same Pipeline
// bound, so the chain above stays self-throttling (see commit.go).
//
// Because every index operation a connection issues starts on that
// connection's read-loop goroutine, the server is exactly the multi-client
// adversarial workload the Concurrent index was built for: N connections =
// N goroutines hammering Get/Insert/Delete/Scan (the optimistic read path
// included) with no synchronization in this package beyond the node's
// shared read lock.
//
// Graceful drain (Shutdown): the listener closes first (no new
// connections), then every connection's read deadline is pulled to "now".
// Requests already buffered keep executing and their responses flush before
// the connection closes — a pipelining client receives an answer for
// everything the server read off the wire — and Shutdown returns when every
// connection has drained, or forcibly closes the stragglers when its
// context expires. A submitted mutation counts as read: the drain waits for
// its commit and answers it.
package server

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dytis/internal/cluster"
)

// The serving stack promises deadline propagation end to end; ctxcheck
// (tools/analyzers) enforces it package-wide.
//
//dytis:ctxcheck

// Index is the read surface the server serves, cluster.Index under the
// server's name. Writes go through the server's node, to the index's
// cluster.Committer or its synchronous mutators (see cluster.NewNode). The
// index must be safe for concurrent use: every connection drives it from
// its own goroutine. A mutation may fail (closed index, write-ahead-log
// failure); the error is answered as StatusErr on that request, nothing is
// retried server-side.
type Index = cluster.Index

// Config configures a Server; Index is the only required field.
type Config struct {
	// Index is the served index. Every data operation reaches it through a
	// cluster.Node: Cluster when set, else one New builds over the whole key
	// space, and New panics if cluster.NewNode refuses the index.
	Index Index
	// MaxConns caps simultaneously served connections (default 256). At the
	// cap, further clients queue in the kernel accept backlog instead of
	// being accepted and starved — backpressure, not load shedding.
	MaxConns int
	// Pipeline is the per-connection bound on encoded responses queued
	// between the read and write loops (default 128).
	Pipeline int
	// Metrics, when non-nil, records server-side per-opcode latencies and
	// connection counters (see metrics.go).
	Metrics *Metrics
	// Logf, when non-nil, receives one line per abnormal connection end.
	Logf func(format string, args ...any)

	// Cluster, when non-nil, makes this a shard server: every data
	// operation routes through the node's ownership check (out-of-range
	// keys answer StatusWrongShard with the current map attached), and the
	// cluster opcode family unlocks behind FeatCluster. Nil makes New build
	// its own node over Index owning the whole key space: it never gets a
	// map (no cluster opcode reaches it), so it never redirects, and
	// FeatCluster is never granted.
	Cluster *cluster.Node

	// IdleTimeout bounds how long a connection may sit between requests
	// (measured to the arrival of the next frame header). Zero disables it.
	IdleTimeout time.Duration
	// ReadTimeout bounds reading one frame's body once its header has
	// arrived — the slow-loris defense: a peer trickling a frame byte by
	// byte is reaped after ReadTimeout while other connections keep
	// serving. Zero disables it.
	ReadTimeout time.Duration
	// WriteTimeout bounds each write of queued response bytes to the
	// socket. Zero disables it.
	WriteTimeout time.Duration

	// MaxInflight caps requests executing concurrently across all
	// connections — admission control. At the cap an arriving request
	// waits for a slot only as long as its own propagated deadline budget
	// (or RetryAfter, if it carried none) allows, then is shed with
	// StatusOverload and a retry-after hint instead of queueing
	// unboundedly. Zero disables shedding (connection backpressure still
	// bounds memory).
	MaxInflight int
	// RetryAfter is the hint sent with StatusOverload responses and the
	// slot-wait bound for requests without a deadline budget (default
	// 100ms when MaxInflight is set).
	RetryAfter time.Duration

	// WrapConn, when non-nil, wraps every accepted connection before it is
	// served — the fault-injection seam (internal/fault.Injector.Wrap).
	// Nil costs nothing.
	WrapConn func(net.Conn) net.Conn
}

// ErrOverload is the server-side name for an admission-control shed; it is
// what a rejected request's StatusOverload response means. (The client
// package surfaces its own typed overload error with the parsed
// retry-after hint.)
var ErrOverload = errors.New("server: overloaded")

// ErrServerClosed is returned by Serve after Shutdown, mirroring net/http.
var ErrServerClosed = errors.New("server: closed")

// Server serves one Index over one listener. Create with New, run with
// Serve, stop with Shutdown.
type Server struct {
	cfg Config

	// node serves every data operation: cfg.Cluster, or the whole-range
	// node New built when that is nil.
	node *cluster.Node

	mu       sync.Mutex
	ln       net.Listener       // guarded-by: mu
	conns    map[*conn]struct{} // guarded-by: mu
	draining bool               // guarded-by: mu
	serving  atomic.Bool        // set once Serve has a listener

	// inflight is the admission-control semaphore (nil when MaxInflight is
	// 0): a slot is held for the duration of one request's index work — for
	// a submitted mutation, until it completes.
	inflight chan struct{}

	closed chan struct{} // closed when Shutdown begins
	wg     sync.WaitGroup
}

// Ready reports whether the server is accepting and serving requests: true
// between Serve acquiring its listener and Shutdown beginning. It is the
// readiness-probe answer (/healthz in cmd/dytis-server).
func (s *Server) Ready() bool {
	return s.serving.Load() && !s.Draining()
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	select {
	case <-s.closed:
		return true
	default:
		return false
	}
}

// New returns an unstarted server.
func New(cfg Config) *Server {
	if cfg.Index == nil {
		panic("server: Config.Index is required")
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 256
	}
	if cfg.Pipeline <= 0 {
		cfg.Pipeline = 128
	}
	if cfg.MaxInflight > 0 && cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 100 * time.Millisecond
	}
	s := &Server{
		cfg:    cfg,
		conns:  make(map[*conn]struct{}),
		closed: make(chan struct{}),
	}
	if cfg.MaxInflight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	s.node = cfg.Cluster
	if s.node == nil {
		// A node with no Dial and no map: it starts no goroutine, and with no
		// cluster opcode reaching it, it only ever answers the data path.
		node, err := cluster.NewNode(cluster.NodeConfig{Index: cfg.Index, Lo: 0, Hi: ^uint64(0)})
		if err != nil {
			panic("server: " + err.Error())
		}
		s.node = node
	}
	return s
}

// Serve accepts connections on ln until Shutdown (returning ErrServerClosed)
// or an unrecoverable accept error. The listener is closed on return.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	s.serving.Store(true)
	defer ln.Close()

	sem := make(chan struct{}, s.cfg.MaxConns)
	for {
		// Acquire a connection slot before accepting: at MaxConns the accept
		// loop itself blocks and new clients wait in the listen backlog.
		select {
		case sem <- struct{}{}:
		case <-s.closed:
			return ErrServerClosed
		}
		nc, err := ln.Accept()
		if err != nil {
			<-sem
			select {
			case <-s.closed:
				return ErrServerClosed
			default:
				return err
			}
		}
		raddr := nc.RemoteAddr().String()
		if s.cfg.WrapConn != nil {
			nc = s.cfg.WrapConn(nc)
		}
		c := &conn{srv: s, nc: nc, raddr: raddr}
		if !s.track(c) { // lost the race with Shutdown
			nc.Close()
			<-sem
			return ErrServerClosed
		}
		if m := s.cfg.Metrics; m != nil {
			m.connAccepted()
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() { <-sem }()
			c.serve()
			s.untrack(c)
			if m := s.cfg.Metrics; m != nil {
				m.connClosed()
			}
		}()
	}
}

// ListenAndServe listens on addr and calls Serve.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

func (s *Server) track(c *conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Shutdown gracefully drains the server: it stops accepting, lets every
// connection finish the requests the server has already read (flushing their
// responses), and waits for all connections to end. If ctx expires first the
// remaining connections are closed forcibly and ctx.Err() is returned.
// Shutdown is idempotent; concurrent calls all wait.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	ln := s.ln
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if first {
		close(s.closed)
	}
	if ln != nil {
		ln.Close()
	}
	// Pull every reader's deadline to now: blocked reads fail immediately,
	// while requests already buffered decode and execute before the reader
	// next touches the socket.
	for _, c := range conns {
		c.nc.SetReadDeadline(time.Now())
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait() //dytis:blocking-ok bounded by the force-close below: ctx expiry closes every socket, which unblocks each conn
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		forced := make([]*conn, 0, len(s.conns))
		for c := range s.conns {
			forced = append(forced, c)
		}
		s.mu.Unlock()
		for _, c := range forced {
			s.logf("server: drain timeout: force-closing connection from %s", c.raddr)
			if m := s.cfg.Metrics; m != nil {
				m.forceClosed()
			}
			c.nc.Close()
		}
		if len(forced) > 0 {
			s.logf("server: drain timeout: %d connection(s) force-closed", len(forced))
		}
		<-done //dytis:blocking-ok every socket is now closed, so each conn's serve loop exits promptly
		return ctx.Err()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// connSerial numbers connections for metric sharding.
var connSerial atomic.Uint64

// isTimeout reports whether err is a deadline expiry (drain pull, idle
// reap, or slow-loris reap — the read loop tells them apart by context).
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// clientGone matches the errors a closing or resetting peer produces,
// which are normal ends, not log-worthy failures.
func clientGone(err error) bool {
	return errors.Is(err, net.ErrClosed) || errors.Is(err, syscall.ECONNRESET)
}
