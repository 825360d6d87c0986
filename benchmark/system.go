package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"dytis"
	"dytis/client"
	"dytis/internal/cluster"
	"dytis/internal/server"
)

// target is the boundary a caller drives: the same five calls at every layer
// of the stack. Implementations call only public functions of that layer.
type target interface {
	Get(key uint64) (val uint64, found bool, err error)
	Insert(key, val uint64) error
	Delete(key uint64) (found bool, err error)
	// Scan returns up to scanLen pairs with key >= start, reusing dst.
	Scan(start uint64, dst []dytis.KV) ([]dytis.KV, error)
	// GetBatch answers keys[i] in vals[i], found[i], reusing both slices.
	GetBatch(keys, vals []uint64, found []bool) ([]uint64, []bool, error)
}

// coreTarget calls the in-process index.
type coreTarget struct{ idx *dytis.Index }

func (t coreTarget) Get(key uint64) (uint64, bool, error) {
	v, ok := t.idx.Get(key)
	return v, ok, nil
}
func (t coreTarget) Insert(key, val uint64) error { t.idx.Insert(key, val); return nil }
func (t coreTarget) Delete(key uint64) (bool, error) {
	return t.idx.Delete(key), nil
}
func (t coreTarget) Scan(start uint64, dst []dytis.KV) ([]dytis.KV, error) {
	return t.idx.Scan(start, scanLen, dst[:0]), nil
}
func (t coreTarget) GetBatch(keys, vals []uint64, found []bool) ([]uint64, []bool, error) {
	vals, found = t.idx.GetBatch(keys, vals[:0], found[:0])
	return vals, found, nil
}

// remote is the point-op surface client.Client and client.Cluster share.
type remote interface {
	Get(ctx context.Context, key uint64) (uint64, bool, error)
	Insert(ctx context.Context, key, val uint64) error
	Delete(ctx context.Context, key uint64) (bool, error)
	GetBatch(ctx context.Context, keys []uint64) ([]uint64, []bool, error)
}

// pairIter is the streaming-scan surface of client.Scanner and
// client.MergeScanner.
type pairIter interface {
	Next() bool
	Key() uint64
	Value() uint64
	Err() error
	Close() error
}

// remoteTarget calls a server through the client package.
type remoteTarget struct {
	r    remote
	scan func(start uint64) pairIter
}

var bg = context.Background()

func clientTarget(c *client.Client) remoteTarget {
	return remoteTarget{c, func(start uint64) pairIter { return c.ScanStream(bg, start, scanLen) }}
}

func clusterTarget(c *client.Cluster) remoteTarget {
	return remoteTarget{c, func(start uint64) pairIter { return c.ScanStream(bg, start, scanLen) }}
}

func (t remoteTarget) Get(key uint64) (uint64, bool, error) { return t.r.Get(bg, key) }
func (t remoteTarget) Insert(key, val uint64) error         { return t.r.Insert(bg, key, val) }
func (t remoteTarget) Delete(key uint64) (bool, error)      { return t.r.Delete(bg, key) }
func (t remoteTarget) GetBatch(keys, _ []uint64, _ []bool) ([]uint64, []bool, error) {
	return t.r.GetBatch(bg, keys)
}

// Scan runs the stream to its end frame, so the span covers the whole scan.
func (t remoteTarget) Scan(start uint64, dst []dytis.KV) ([]dytis.KV, error) {
	dst = dst[:0]
	it := t.scan(start)
	for it.Next() {
		dst = append(dst, dytis.KV{Key: it.Key(), Value: it.Value()})
	}
	err := it.Err()
	it.Close()
	return dst, err
}

// system is one workload's stack, preloaded and serving.
type system struct {
	targets []target            // targets[c] serves caller c
	length  func() int          // live keys across the stack's indexes
	servers []*server.Metrics   // one per server
	store   *dytis.DurableStore // durable only
	dir     string              // durable only: the WAL directory
	stop    func() error        // closes clients, servers and indexes; safe to call again
}

// preloaded returns every key the system holds before the first op: the
// dataset keys in insertion order, then the standing half of each ring.
func preloaded(in *inputs, visit func(key uint64)) {
	for _, k := range in.keys {
		visit(k)
	}
	for _, ring := range in.rings {
		for _, k := range ring[:ringSize/2] {
			visit(k)
		}
	}
}

func newIndex() *dytis.Index { return dytis.New(dytis.WithConcurrent()) }

func loadedIndex(in *inputs) *dytis.Index {
	idx := newIndex()
	preloaded(in, func(k uint64) { idx.Insert(k, makeVal(k, 0)) })
	return idx
}

// build stands up the spec's system with the inputs preloaded. dir is where
// a durable store keeps its files.
func build(sp spec, in *inputs, dir string) (*system, error) {
	switch sp.kind {
	case "embedded":
		idx := loadedIndex(in)
		sys := &system{length: idx.Len, stop: sync.OnceValue(idx.Close)}
		for c := 0; c < sp.callers; c++ {
			sys.targets = append(sys.targets, coreTarget{idx})
		}
		return sys, nil
	case "server":
		idx := loadedIndex(in)
		return serve(sp, idx, idx.Len, idx.Close)
	case "durable":
		return buildDurable(sp, in, dir)
	case "cluster":
		return buildCluster(sp, in)
	}
	return nil, fmt.Errorf("unknown system kind %q", sp.kind)
}

// openStore opens the durable store the way the durable workload runs it:
// size-triggered checkpoints off, so the only checkpoint is the forced one.
func openStore(dir string, fsync dytis.FsyncPolicy) (*dytis.DurableStore, error) {
	return dytis.OpenDurable(dir, dytis.DurableConfig{Fsync: fsync, CheckpointBytes: -1}, dytis.WithConcurrent())
}

// loadedStore opens a fresh store and preloads it in batches: one log append
// (and one fsync) per 4096 keys instead of per key.
func loadedStore(in *inputs, dir string, fsync dytis.FsyncPolicy) (*dytis.DurableStore, error) {
	store, err := openStore(dir, fsync)
	if err != nil {
		return nil, err
	}
	var keys, vals []uint64
	flush := func() {
		if err == nil && len(keys) > 0 {
			err = store.InsertBatch(keys, vals)
		}
		keys, vals = keys[:0], vals[:0]
	}
	preloaded(in, func(k uint64) {
		keys, vals = append(keys, k), append(vals, makeVal(k, 0))
		if len(keys) == 4096 {
			flush()
		}
	})
	flush()
	if err != nil {
		store.Close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	return store, nil
}

func buildDurable(sp spec, in *inputs, dir string) (*system, error) {
	store, err := loadedStore(in, dir, dytis.FsyncAlways)
	if err != nil {
		return nil, err
	}
	sys, err := serve(sp, store.Serving(), store.Len, store.Close)
	if err != nil {
		return nil, err
	}
	sys.store, sys.dir = store, dir
	return sys, nil
}

// listener is a running server and how to stop it.
type listener struct {
	addr    string
	metrics *server.Metrics
	stop    func() error
}

// listen serves idx on ln, with server metrics on as cmd/dytis-server has them.
func listen(ln net.Listener, cfg server.Config) listener {
	cfg.Metrics = &server.Metrics{}
	srv := server.New(cfg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return listener{addr: ln.Addr().String(), metrics: cfg.Metrics, stop: func() error {
		ctx, cancel := context.WithTimeout(bg, 10*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if serr := <-done; err == nil && !errors.Is(serr, server.ErrServerClosed) {
			err = serr
		}
		return err
	}}
}

// stopAll runs the stop functions newest first, as defers would, and
// returns the first error.
func stopAll(stops []func() error) error {
	var first error
	for i := len(stops) - 1; i >= 0; i-- {
		if err := stops[i](); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// serve puts idx behind one plain server on loopback TCP and dials
// sp.conns clients of one connection each; callers are dealt to them
// round-robin, so each connection carries callers/conns of them.
func serve(sp spec, idx server.Index, length func() int, closeIdx func() error) (sys *system, err error) {
	stops := []func() error{closeIdx}
	defer func() {
		if err != nil {
			stopAll(stops)
		}
	}()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := listen(ln, server.Config{Index: idx})
	stops = append(stops, l.stop)
	clients := make([]*client.Client, sp.conns)
	for i := range clients {
		if clients[i], err = client.Dial(l.addr, client.WithPoolSize(1)); err != nil {
			return nil, err
		}
		stops = append(stops, clients[i].Close)
	}
	sys = &system{length: length, servers: []*server.Metrics{l.metrics}}
	sys.stop = sync.OnceValue(func() error { return stopAll(stops) })
	for c := 0; c < sp.callers; c++ {
		sys.targets = append(sys.targets, clientTarget(clients[c%sp.conns]))
	}
	return sys, nil
}

// buildCluster starts sp.conns shard servers in this process, installs the
// uniform epoch-1 map on each over the wire, and shares one routed client
// (one connection per shard) between all callers.
func buildCluster(sp spec, in *inputs) (sys *system, err error) {
	var stops []func() error
	defer func() {
		if err != nil {
			stopAll(stops)
		}
	}()
	shards := sp.conns
	lns := make([]net.Listener, shards)
	addrs := make([]string, shards)
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
		stops = append(stops, lns[i].Close)
		addrs[i] = lns[i].Addr().String()
	}
	m, err := cluster.Uniform(1, addrs)
	if err != nil {
		return nil, err
	}
	idxs := make([]*dytis.Index, shards)
	for i := range idxs {
		idxs[i] = newIndex()
	}
	preloaded(in, func(k uint64) {
		for i, s := range m.Shards {
			if s.Contains(k) {
				idxs[i].Insert(k, makeVal(k, 0))
			}
		}
	})
	sys = &system{length: func() int {
		n := 0
		for _, idx := range idxs {
			n += idx.Len()
		}
		return n
	}}
	stops = stops[:0] // from here the servers own the listeners
	for i, s := range m.Shards {
		node, err := cluster.NewNode(cluster.NodeConfig{Index: idxs[i], Lo: s.Lo, Hi: s.Hi})
		if err != nil {
			return nil, err
		}
		l := listen(lns[i], server.Config{Index: idxs[i], Cluster: node})
		sys.servers = append(sys.servers, l.metrics)
		stops = append(stops, idxs[i].Close, node.Close, l.stop)
	}
	blob := m.Encode()
	for _, s := range m.Shards {
		c, err := client.Dial(s.Addr, client.WithPoolSize(1))
		if err != nil {
			return nil, err
		}
		err = c.SetShardMap(bg, s.Lo, s.Hi, blob)
		c.Close()
		if err != nil {
			return nil, fmt.Errorf("installing the shard map on %s: %w", s.Addr, err)
		}
	}
	cl, err := client.DialCluster(addrs, client.WithPoolSize(1))
	if err != nil {
		return nil, err
	}
	stops = append(stops, cl.Close)
	sys.stop = sync.OnceValue(func() error { return stopAll(stops) })
	for c := 0; c < sp.callers; c++ {
		sys.targets = append(sys.targets, clusterTarget(cl))
	}
	return sys, nil
}
