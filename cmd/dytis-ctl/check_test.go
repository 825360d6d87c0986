package main

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"dytis/internal/cluster"
	"dytis/internal/core"
	"dytis/internal/server"
)

// serve runs a server over a fresh concurrent index on ln, a shard owning
// [lo, hi] or (shard false) a standalone server, and returns its stop
// func, which also runs at test end.
func serve(t *testing.T, ln net.Listener, lo, hi uint64, shard bool) (stop func()) {
	t.Helper()
	idx := core.New(core.Options{Concurrent: true})
	cfg := server.Config{Index: idx}
	if shard {
		node, err := cluster.NewNode(cluster.NodeConfig{Index: idx, Lo: lo, Hi: hi})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cluster = node
	}
	srv := server.New(cfg)
	go srv.Serve(ln)
	stopped := false
	stop = func() {
		if stopped {
			return
		}
		stopped = true
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if cfg.Cluster != nil {
			cfg.Cluster.Close()
		}
		idx.Close()
	}
	t.Cleanup(stop)
	return stop
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// startTwoShards boots a 2-shard cluster with the epoch-1 uniform map
// installed (through `dytis-ctl create`) and returns the shard addresses
// and their stop funcs.
func startTwoShards(t *testing.T) ([]string, []func()) {
	t.Helper()
	lns := []net.Listener{listen(t), listen(t)}
	addrs := []string{lns[0].Addr().String(), lns[1].Addr().String()}
	m, err := cluster.Uniform(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	var stops []func()
	for i, s := range m.Shards {
		stops = append(stops, serve(t, lns[i], s.Lo, s.Hi, true))
	}
	if err := cmdCreate([]string{"-addrs", strings.Join(addrs, ",")}); err != nil {
		t.Fatal(err)
	}
	return addrs, stops
}

func TestCheckStandalone(t *testing.T) {
	ln := listen(t)
	serve(t, ln, 0, 0, false)
	if err := cmdCheck([]string{"-addr", ln.Addr().String(), "-keys", "20000"}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckCluster(t *testing.T) {
	addrs, _ := startTwoShards(t)
	if err := cmdCheck([]string{"-seed", addrs[0], "-keys", "20000"}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckDeadShard: with one of two shards shut down, the load (or, if
// the load's batches all missed the dead shard, the read) must fail.
func TestCheckDeadShard(t *testing.T) {
	addrs, stops := startTwoShards(t)
	stops[1]()
	err := cmdCheck([]string{"-seed", addrs[0], "-keys", "20000"})
	if err == nil {
		t.Fatal("check passed with a dead shard")
	}
	if msg := err.Error(); !strings.Contains(msg, "phase load") && !strings.Contains(msg, "phase read") {
		t.Fatalf("check failed outside load and read: %v", err)
	}
	t.Logf("dead shard: %v", err)
}
