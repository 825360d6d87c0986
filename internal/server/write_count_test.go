package server_test

// The server's write counts, observed at the Config.WrapConn seam: how many
// Write calls the accepted connection sees per response. The client's own
// counts are in client/flush_test.go.

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dytis/client"
	"dytis/internal/core"
	"dytis/internal/server"
)

// writeCounter counts the Write calls on every connection the server
// accepts.
type writeCounter struct {
	writes atomic.Int64
}

type countedConn struct {
	net.Conn
	wc *writeCounter
}

func (c countedConn) Write(p []byte) (int, error) {
	c.wc.writes.Add(1)
	return c.Conn.Write(p)
}

// startCounted serves n preloaded keys (key i holds i) with every accepted
// connection's writes counted, and dials one connection to it.
func startCounted(t *testing.T, n uint64) (*client.Client, *writeCounter) {
	t.Helper()
	idx := core.New(smallOpts())
	for k := uint64(0); k < n; k++ {
		idx.Insert(k, k)
	}
	wc := &writeCounter{}
	addr, _ := start(t, idx, server.Config{WrapConn: func(nc net.Conn) net.Conn { return countedConn{nc, wc} }})
	c, err := client.Dial(addr, client.WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, wc
}

// TestServerWriteCountLoneCaller: one caller on a connection gets exactly
// one server write per request — point reads, mutations, batches and a
// bounded scan, whose chunk and end frame travel together.
func TestServerWriteCountLoneCaller(t *testing.T) {
	c, wc := startCounted(t, 4096)
	ctx := context.Background()
	before := wc.writes.Load() // the HELLO answer
	const rounds = 300
	requests := 0
	for i := uint64(0); i < rounds; i++ {
		if v, ok, err := c.Get(ctx, i); err != nil || !ok || v != i {
			t.Fatalf("Get(%d) = %d, %v, %v", i, v, ok, err)
		}
		if err := c.Insert(ctx, 1<<40+i, i); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Delete(ctx, 1<<40+i); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.GetBatch(ctx, []uint64{i, i + 1, i + 2}); err != nil {
			t.Fatal(err)
		}
		keys, _, err := drainScan(c.ScanStream(ctx, i, 100))
		if err != nil || len(keys) != 100 {
			t.Fatalf("scan from %d: %d pairs, %v", i, len(keys), err)
		}
		requests += 5
	}
	if got := wc.writes.Load() - before; got != int64(requests) {
		t.Errorf("%d server writes for %d requests, want exactly one each", got, requests)
	}
}

// TestServerWriteCountSharedConnection logs the server's writes per response
// with sixteen callers pipelined on one connection, at one, two and four Ps.
// Responses that complete while a write is in flight share the next one;
// the count only must not exceed one write per response.
func TestServerWriteCountSharedConnection(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			c, wc := startCounted(t, 4096)
			before := wc.writes.Load()
			const callers, each = 16, 500
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func(g uint64) {
					defer wg.Done()
					for i := uint64(0); i < each; i++ {
						k := (g*each + i) % 4096
						if v, ok, err := c.Get(context.Background(), k); err != nil || !ok || v != k {
							t.Errorf("Get(%d) = %d, %v, %v", k, v, ok, err)
							return
						}
					}
				}(uint64(g))
			}
			wg.Wait()
			perResp := float64(wc.writes.Load()-before) / (callers * each)
			t.Logf("GOMAXPROCS=%d: %.3f server writes per response", procs, perResp)
			if perResp > 1 {
				t.Errorf("%.3f server writes per response, want at most one", perResp)
			}
		})
	}
}
