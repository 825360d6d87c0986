package client_test

import (
	"context"
	"errors"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dytis/client"
	"dytis/internal/check"
	"dytis/internal/core"
	"dytis/internal/server"
)

func newIndex() *core.DyTIS {
	return core.New(core.Options{FirstLevelBits: 3, BucketEntries: 16, StartDepth: 2, Concurrent: true})
}

func requireSound(t *testing.T, d *core.DyTIS) {
	t.Helper()
	if vs := check.Check(d); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("invariant violation: %v", v)
		}
		t.FailNow()
	}
}

// serveOn starts a server for idx on ln and returns a shutdown func.
func serveOn(t *testing.T, idx *core.DyTIS, ln net.Listener) (stop func()) {
	t.Helper()
	srv := server.New(server.Config{Index: idx})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	var once sync.Once
	return func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
			<-done
		})
	}
}

// TestRestartMidPipeline kills the server under a client running a pipelined
// request storm, then brings a new server up on the same address. In-flight
// operations must fail with errors (never hang, never silently retry), and
// once the server is back the same Client must resume transparently through
// its bounded-backoff redial — no new Dial.
func TestRestartMidPipeline(t *testing.T) {
	idx1 := newIndex()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	stop1 := serveOn(t, idx1, ln)

	c, err := client.Dial(addr,
		client.WithPipeline(64),
		client.WithReconnect(8, 10*time.Millisecond, 100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	// A storm of workers keeps the pipeline full while the server dies.
	var opErrs atomic.Int64
	var stopStorm atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stopStorm.Load(); i++ {
				k := uint64(w)<<32 | uint64(i)
				if err := c.Insert(ctx, k, k); err != nil {
					opErrs.Add(1)
				}
			}
		}(w)
	}

	time.Sleep(20 * time.Millisecond) // storm is in full swing
	stop1()                           // server gone mid-pipeline

	// With the server down and no listener, an operation must error once its
	// bounded redial budget is spent — deterministically, while the storm's
	// own errors depend on how much of the pipeline the drain answered.
	downCtx, cancelDown := context.WithTimeout(ctx, 5*time.Second)
	if err := c.Ping(downCtx); err == nil {
		t.Fatal("ping succeeded with no server listening")
	}
	cancelDown()

	// Restart on the same address.
	idx2 := newIndex()
	var ln2 net.Listener
	for i := 0; ; i++ {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("relisten on %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop2 := serveOn(t, idx2, ln2)
	defer stop2()

	// The SAME client must recover: redial happens inside the next ops.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := c.Ping(ctx); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never recovered after server restart")
		}
		time.Sleep(20 * time.Millisecond)
	}

	stopStorm.Store(true)
	wg.Wait()
	t.Logf("storm: %d operations errored across the restart", opErrs.Load())

	// The recovered link works for real operations on the fresh index.
	if err := c.Insert(ctx, 42, 99); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Get(ctx, 42); err != nil || !ok || v != 99 {
		t.Fatalf("get after restart = %d,%v,%v", v, ok, err)
	}
	requireSound(t, idx2)
}

// TestInFlightErrorPropagation: a server that accepts, reads, and slams the
// connection shut must surface an error to the blocked caller promptly.
func TestInFlightErrorPropagation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				if br, ok := acceptHello(nc, v2Grant); ok {
					readRequest(br) // swallow the request...
				}
				nc.Close() // ...and hang up without answering
			}(nc)
		}
	}()

	c, err := client.Dial(ln.Addr().String(), client.WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, _, err := c.Get(ctx, 1); err == nil {
		t.Fatal("Get on a hung-up connection returned nil error")
	} else if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("connection loss reported as timeout: %v", err)
	}
}

// TestContextTimeout: a server that accepts but never responds must not
// hold a caller past its deadline.
func TestContextTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			defer nc.Close() // hold the conn open, never respond
			acceptHello(nc, v2Grant)
		}
	}()

	c, err := client.Dial(ln.Addr().String(), client.WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	if _, _, err := c.Get(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Get = %v, want DeadlineExceeded", err)
	}
	if time.Since(t0) > 2*time.Second {
		t.Fatal("Get overstayed its deadline")
	}
	// The next call with a live deadline behaves the same; the timed-out
	// request did not wedge the connection's bookkeeping.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel2()
	if _, _, err := c.Get(ctx2, 2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("second Get = %v, want DeadlineExceeded", err)
	}
}

// TestReconnectBounded: with the server down for good, operations fail after
// the configured number of redial attempts instead of spinning forever.
func TestReconnectBounded(t *testing.T) {
	idx := newIndex()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	stop := serveOn(t, idx, ln)

	c, err := client.Dial(addr, client.WithPoolSize(1),
		client.WithReconnect(2, 5*time.Millisecond, 20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stop() // server never comes back

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// First op may fail with the dead conn's error; subsequent ops hit the
	// bounded redial path and must return (not hang) with a dial error.
	var lastErr error
	for i := 0; i < 5; i++ {
		if err := c.Ping(ctx); err != nil {
			lastErr = err
		}
	}
	if lastErr == nil {
		t.Fatal("pings to a dead server succeeded")
	}
}

// TestConcurrentInsertsVsScans races writer clients against scanner clients
// on one server and checks both scan sanity during the race and full index
// soundness after it — the client-side twin of the core concurrency tests.
func TestConcurrentInsertsVsScans(t *testing.T) {
	idx := newIndex()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := serveOn(t, idx, ln)
	defer stop()
	addr := ln.Addr().String()
	ctx := context.Background()

	const (
		writers    = 4
		scanners   = 3
		perWriter  = 800
		scanRounds = 60
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				t.Errorf("writer %d: %v", w, err)
				return
			}
			defer c.Close()
			for i := 0; i < perWriter; i++ {
				k := uint64(i)*writers + uint64(w)
				if err := c.Insert(ctx, k, k+1); err != nil {
					t.Errorf("writer %d: insert: %v", w, err)
					return
				}
			}
		}(w)
	}
	for s := 0; s < scanners; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				t.Errorf("scanner %d: %v", s, err)
				return
			}
			defer c.Close()
			for i := 0; i < scanRounds; i++ {
				start := uint64(i * 37 % (writers * perWriter))
				keys, vals, err := drainScan(c.ScanStream(ctx, start, 256))
				if err != nil {
					t.Errorf("scanner %d: %v", s, err)
					return
				}
				if !sort.SliceIsSorted(keys, func(a, b int) bool { return keys[a] < keys[b] }) {
					t.Errorf("scanner %d: page out of order", s)
					return
				}
				for j, k := range keys {
					if k < start || vals[j] != k+1 {
						t.Errorf("scanner %d: pair %d/%d under start %d", s, k, vals[j], start)
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Every written key is present with its value.
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if n, err := c.Len(ctx); err != nil || n != writers*perWriter {
		t.Fatalf("Len = %d,%v want %d", n, err, writers*perWriter)
	}
	requireSound(t, idx)
}
