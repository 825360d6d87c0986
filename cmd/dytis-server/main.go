// Command dytis-server serves a DyTIS index over TCP with the pipelined
// binary protocol of internal/proto. It is the network face of the
// reproduction: a concurrent index (optimistic lock-free reads)
// behind per-connection read/write goroutines, batched opcodes, connection
// limits with accept-side backpressure, and graceful drain on
// SIGINT/SIGTERM.
//
// Usage:
//
//	dytis-server -addr :7070 -metrics :8080
//	dytis-server -addr :7070 -wal-dir /var/lib/dytis -fsync always
//
// With -wal-dir the server is durable: every mutation is write-ahead
// logged before it is acknowledged, checkpoints compact the log in the
// background, and startup recovers the index from the directory —
// surviving kill -9 (-fsync always guarantees no acked write is lost;
// interval bounds loss to -fsync-interval; off leaves flushing to the OS).
//
// With -metrics, an HTTP endpoint serves the index observer's histograms
// and structure-event counters together with the server-side request
// latency metrics on one /metrics page (Prometheus text format; expvar
// JSON at /debug/vars), plus a /healthz readiness probe that answers 200
// while the server accepts work and 503 once it is draining.
//
// Overload hardening is flag-controlled: -idle-timeout, -read-timeout, and
// -write-timeout bound slow or stalled peers (the read timeout is the
// slow-loris defense), and -max-inflight with -retry-after turns on
// admission control — excess requests are shed with a typed overload answer
// carrying the retry-after hint instead of queueing without bound.
//
// On SIGINT/SIGTERM the server stops accepting, finishes every request it
// has read, flushes the responses, shuts the metrics endpoint down, closes
// the index, and exits 0; -shutdown-timeout bounds the wait, and any
// connection still open when it expires is closed forcibly and logged.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dytis"
	"dytis/client"
	"dytis/internal/cluster"
	"dytis/internal/obs"
	"dytis/internal/server"
)

var (
	addrFlag    = flag.String("addr", ":7070", "TCP listen address for the binary protocol")
	metricsFlag = flag.String("metrics", "", "HTTP listen address for /metrics and /debug/vars (empty = disabled)")
	maxConns    = flag.Int("max-conns", 256, "simultaneous connection cap (excess clients wait in the accept backlog)")
	pipeline    = flag.Int("pipeline", 128, "per-connection response queue depth")

	shutdownFlag = flag.Duration("shutdown-timeout", 10*time.Second, "graceful shutdown budget before connections are closed forcibly")

	idleTimeout  = flag.Duration("idle-timeout", 0, "max time a connection may sit between requests (0 = unlimited)")
	readTimeout  = flag.Duration("read-timeout", 0, "max time to receive one request frame after its header arrives — slow-loris defense (0 = unlimited)")
	writeTimeout = flag.Duration("write-timeout", 0, "max time for one write of response bytes to a connection (0 = unlimited)")
	maxInflight  = flag.Int("max-inflight", 0, "cap on requests executing at once; excess is shed with an overload answer (0 = no admission control)")
	retryAfter   = flag.Duration("retry-after", 100*time.Millisecond, "retry hint sent with overload answers, and the slot wait for requests without a deadline")

	shardFlag = flag.String("shard", "", `owned key range, making this a cluster shard server: "lo:hi" (inclusive, 0x-prefixed hex or decimal) or "i/n" (i-th of n uniform shards, 0-based); "none" owns nothing (a fresh node awaiting handover). Empty = standalone server: the whole key space, no shard map, no cluster opcodes`)

	walDir     = flag.String("wal-dir", "", "directory for the write-ahead log and checkpoints; the index recovers from it at startup (empty = in-memory only, no durability)")
	fsyncFlag  = flag.String("fsync", "interval", "WAL fsync policy with -wal-dir: off|interval|always (always = every acked write is on stable storage before the response)")
	fsyncEvery = flag.Duration("fsync-interval", 50*time.Millisecond, "background WAL sync cadence under -fsync interval")
	ckptEvery  = flag.Duration("checkpoint-interval", time.Minute, "periodic checkpoint cadence with -wal-dir, in addition to the 64 MiB size trigger (0 = size-triggered only)")
)

func main() {
	flag.Parse()

	ob := dytis.NewObserver()
	idxOpts := []dytis.Option{dytis.WithConcurrent(), dytis.WithObserver(ob)}
	// With -wal-dir the served index is a durable store: mutations are
	// write-ahead logged in commit groups and acked on completion, with or
	// without -shard (a log failure answers StatusErr on the request and
	// poisons the store), and startup recovers whatever the directory holds.
	// Without it, the index lives and dies in memory.
	var idx server.Index
	var wm *dytis.WALMetrics
	var closeIndex func() error
	if *walDir != "" {
		policy, err := dytis.ParseFsyncPolicy(*fsyncFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		wm = &dytis.WALMetrics{}
		store, err := dytis.OpenDurable(*walDir, dytis.DurableConfig{
			Fsync:              policy,
			FsyncInterval:      *fsyncEvery,
			CheckpointInterval: *ckptEvery,
			Metrics:            wm,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		}, idxOpts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		info := store.Recovery()
		fmt.Printf("wal: recovered %d keys from %s (checkpoint %d: %d keys; %d records replayed; torn tail: %v) in %s\n",
			store.Len(), *walDir, info.CheckpointSeq, info.CheckpointKeys, info.Records, info.TornTail, info.Elapsed)
		idx = store.Serving()
		closeIndex = store.Close
	} else {
		mem := dytis.New(idxOpts...)
		idx = mem
		closeIndex = mem.Close
	}

	// With -shard the server is one member of a cluster: the node wraps
	// every data op in ownership checks (StatusWrongShard redirects carry
	// the current map) and the cluster opcode family unlocks behind the
	// negotiated FeatCluster.
	sm := &server.Metrics{}
	var node *cluster.Node
	if *shardFlag != "" {
		lo, hi, err := parseShard(*shardFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		node, err = cluster.NewNode(cluster.NodeConfig{
			Index:  idx,
			Lo:     lo,
			Hi:     hi,
			Dial:   dialPeer,
			Events: sm.HandoverEvents(),
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "cluster: "+format+"\n", args...)
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if lo > hi {
			fmt.Println("shard: owning nothing (awaiting handover)")
		} else {
			fmt.Printf("shard: owning [%#x, %#x]\n", lo, hi)
		}
	}

	srv := server.New(server.Config{
		Index:        idx,
		Cluster:      node,
		MaxConns:     *maxConns,
		Pipeline:     *pipeline,
		Metrics:      sm,
		IdleTimeout:  *idleTimeout,
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
		MaxInflight:  *maxInflight,
		RetryAfter:   *retryAfter,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})

	ln, err := net.Listen("tcp", *addrFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var metricsSrv *http.Server
	if *metricsFlag != "" {
		metricsSrv = &http.Server{Addr: *metricsFlag, Handler: metricsHandler(ob, sm, wm, srv)}
		go func() {
			if err := metricsSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "metrics:", err)
			}
		}()
		fmt.Printf("metrics on http://%s/metrics\n", *metricsFlag)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Printf("dytis-server listening on %s\n", ln.Addr())

	select {
	case err := <-serveErr:
		// Listener failed outright; nothing to drain.
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case <-ctx.Done():
	}

	fmt.Println("signal received; draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *shutdownFlag)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "drain incomplete: %v (%d connection(s) force-closed)\n", err, sm.ForcedCloses())
	}
	<-serveErr // Serve has returned ErrServerClosed
	if metricsSrv != nil {
		shCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		metricsSrv.Shutdown(shCtx)
		cancel()
	}
	if node != nil {
		node.Close() // abandons any in-flight handover and closes its peer
	}
	// Closing last: with a WAL this seals the log (flush + fsync), so a
	// clean shutdown replays nothing beyond the last checkpoint on restart.
	if err := closeIndex(); err != nil {
		fmt.Fprintln(os.Stderr, "close:", err)
		os.Exit(1)
	}
	fmt.Println("dytis-server: clean shutdown")
}

// metricsHandler serves the index observer's endpoints with the server-side
// (and, with -wal-dir, the durability-side) metrics appended to /metrics,
// so index-op latency, structure events, server request latency, and WAL
// activity read as one page, plus the /healthz readiness probe backed by
// srv.Ready.
func metricsHandler(ob *obs.Observer, sm *server.Metrics, wm *dytis.WALMetrics, srv *server.Server) http.Handler {
	obH := ob.Handler()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		ob.WritePrometheus(w)
		sm.WritePrometheus(w)
		if wm != nil {
			wm.WritePrometheus(w)
		}
	})
	mux.Handle("/healthz", server.HealthHandler(srv))
	mux.Handle("/debug/vars", obH)
	mux.Handle("/vars", obH)
	mux.Handle("/", obH)
	return mux
}

// parseShard parses the -shard flag: "lo:hi" (inclusive bounds, any base
// strconv accepts), "i/n" (the i-th of n uniform shards, matching
// cluster.Uniform's split), or "none" (own nothing; awaiting a handover).
func parseShard(s string) (lo, hi uint64, err error) {
	if s == "none" {
		return 1, 0, nil // lo > hi: owns nothing
	}
	if i := strings.IndexByte(s, '/'); i >= 0 {
		idx, err1 := strconv.ParseUint(s[:i], 10, 64)
		n, err2 := strconv.ParseUint(s[i+1:], 10, 64)
		if err1 != nil || err2 != nil || n == 0 || idx >= n {
			return 0, 0, fmt.Errorf(`-shard %q: want "i/n" with 0 <= i < n`, s)
		}
		width := ^uint64(0)/n + 1
		lo = idx * width
		hi = lo + width - 1
		if idx == n-1 {
			hi = ^uint64(0)
		}
		return lo, hi, nil
	}
	i := strings.IndexByte(s, ':')
	if i < 0 {
		return 0, 0, fmt.Errorf(`-shard %q: want "lo:hi", "i/n", or "none"`, s)
	}
	lo, err1 := strconv.ParseUint(s[:i], 0, 64)
	hi, err2 := strconv.ParseUint(s[i+1:], 0, 64)
	if err1 != nil || err2 != nil || lo > hi {
		return 0, 0, fmt.Errorf(`-shard %q: want "lo:hi" with lo <= hi (0x-prefixed hex or decimal)`, s)
	}
	return lo, hi, nil
}

// peerOpTimeout bounds each server-to-server handover call. Mirror calls
// sit on the write path of the moving range, so this is also the worst-case
// stall a mirrored write can see before the handover is declared failed.
const peerOpTimeout = 30 * time.Second

// clientPeer adapts client.Client to cluster.Peer: the node's handover
// engine is context-free (its calls happen under the node's handover lock),
// so each call runs under its own deadline.
type clientPeer struct{ c *client.Client }

func (p clientPeer) ctx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), peerOpTimeout)
}

func (p clientPeer) ImportBatch(keys, vals []uint64) (uint64, error) {
	ctx, cancel := p.ctx()
	defer cancel()
	return p.c.ImportBatch(ctx, keys, vals)
}

func (p clientPeer) ImportEnd(commit bool) error {
	ctx, cancel := p.ctx()
	defer cancel()
	return p.c.ImportEnd(ctx, commit)
}

func (p clientPeer) ImportResume(lo, hi uint64) (bool, uint64, error) {
	ctx, cancel := p.ctx()
	defer cancel()
	return p.c.ImportResume(ctx, lo, hi)
}

func (p clientPeer) Mirror(del bool, key, val uint64) error {
	ctx, cancel := p.ctx()
	defer cancel()
	return p.c.Mirror(ctx, del, key, val)
}

func (p clientPeer) Close() error { return p.c.Close() }

// dialPeer opens the server-to-server connection a handover streams over.
func dialPeer(addr string) (cluster.Peer, error) {
	c, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), peerOpTimeout)
	err = c.RequireCluster(ctx)
	cancel()
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("handover target %s: %w", addr, err)
	}
	return clientPeer{c: c}, nil
}
