package client_test

// Tests for the scan API: the Scanner over the chunk stream, and the
// deprecated Scan wrapper keeping its old contract on top of it.

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"dytis/client"
	"dytis/internal/core"
)

// serve starts a server for idx on a loopback listener, stopped at test end,
// and returns its address.
func serve(t *testing.T, idx *core.DyTIS) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(serveOn(t, idx, ln))
	return ln.Addr().String()
}

// collectStream drains a Scanner, checking order, and returns its pairs.
func collectStream(t *testing.T, s *client.Scanner) (keys, vals []uint64) {
	t.Helper()
	keys, vals, err := drainScan(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("scan out of order: %#x then %#x", keys[i-1], keys[i])
		}
	}
	return keys, vals
}

// drainScan pulls s to its end and closes it, returning the pairs as
// parallel key/value slices and the scan's error. It is safe to call from
// any goroutine.
func drainScan(s *client.Scanner) (keys, vals []uint64, err error) {
	defer s.Close()
	for s.Next() {
		keys = append(keys, s.Key())
		vals = append(vals, s.Value())
	}
	return keys, vals, s.Err()
}

// withScanClient runs f, as the "v2-stream" subtest, against a fresh server
// through a one-connection client with 256-pair chunks and a window of 4.
func withScanClient(t *testing.T, f func(t *testing.T, c *client.Client)) {
	t.Run("v2-stream", func(t *testing.T) {
		idx := newIndex()
		c, err := client.Dial(serve(t, idx),
			client.WithPoolSize(1),
			client.WithScanStream(256, 4))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		f(t, c)
		requireSound(t, idx)
	})
}

func TestScanStreamBothTransports(t *testing.T) {
	withScanClient(t, func(t *testing.T, c *client.Client) {
		ctx := context.Background()
		const n = 3000 // ~12 chunks of 256: several credit grants
		for k := uint64(0); k < n; k++ {
			if err := c.Insert(ctx, k*2, k*2+1); err != nil {
				t.Fatal(err)
			}
		}

		// Full scan.
		keys, vals := collectStream(t, c.ScanStream(ctx, 0, 0))
		if len(keys) != n {
			t.Fatalf("full scan delivered %d pairs, want %d", len(keys), n)
		}
		for i, k := range keys {
			if k != uint64(i)*2 || vals[i] != k+1 {
				t.Fatalf("pair %d: %d/%d", i, k, vals[i])
			}
		}

		// Offset start and a budget that ends mid-chunk.
		s := c.ScanStream(ctx, 101, 333)
		keys, _ = collectStream(t, s)
		if len(keys) != 333 || keys[0] != 102 {
			t.Fatalf("bounded scan: %d pairs from %d, want 333 from 102", len(keys), keys[0])
		}
		if s.Total() != 333 {
			t.Fatalf("Total = %d, want 333", s.Total())
		}

		// Start past every key.
		if keys, _ := collectStream(t, c.ScanStream(ctx, n*2, 0)); len(keys) != 0 {
			t.Fatalf("scan past the end delivered %d pairs", len(keys))
		}
	})
}

func TestScanStreamEmptyIndex(t *testing.T) {
	withScanClient(t, func(t *testing.T, c *client.Client) {
		s := c.ScanStream(context.Background(), 0, 0)
		defer s.Close()
		if s.Next() {
			t.Fatal("Next on an empty index returned true")
		}
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		if s.Total() != 0 {
			t.Fatalf("Total = %d, want 0", s.Total())
		}
	})
}

// TestScanStreamTopOfKeyspace: a scan reaching the maximum key must include
// it and terminate (the naive last+1 resume would wrap to 0 and loop).
func TestScanStreamTopOfKeyspace(t *testing.T) {
	withScanClient(t, func(t *testing.T, c *client.Client) {
		ctx := context.Background()
		top := ^uint64(0)
		for _, k := range []uint64{5, top - 1, top} {
			if err := c.Insert(ctx, k, k); err != nil {
				t.Fatal(err)
			}
		}
		done := make(chan struct{})
		var keys []uint64
		go func() {
			defer close(done)
			keys, _ = collectStream(t, c.ScanStream(ctx, top-1, 0))
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("scan over the top of the keyspace did not terminate")
		}
		if len(keys) != 2 || keys[0] != top-1 || keys[1] != top {
			t.Fatalf("scan from top-1 = %#x, want [top-1, top]", keys)
		}
	})
}

// TestScanStreamRefusedPromptly: a server refusal of OpScanStart (here the
// per-connection concurrent-stream cap) must surface on the Scanner as a
// typed error promptly — the refusal frame carries Op: OpScanStart, and a
// read loop that only routes chunk/end frames to streams would drop it,
// leaving Next blocked until the caller's deadline.
func TestScanStreamRefusedPromptly(t *testing.T) {
	idx := newIndex()
	addr := serve(t, idx)
	c, err := client.Dial(addr,
		client.WithPoolSize(1),
		client.WithScanStream(1, 1)) // 1-pair chunks: streams stay open
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for k := uint64(0); k < 64; k++ {
		if err := c.Insert(ctx, k, k); err != nil {
			t.Fatal(err)
		}
	}

	// Pin 16 live streams on the one pooled connection (the server-side
	// per-conn cap). Pulling a single pair leaves each stream parked
	// waiting for credit, so it stays registered.
	const cap = 16
	for i := 0; i < cap; i++ {
		s := c.ScanStream(ctx, 0, 0)
		defer s.Close()
		if !s.Next() {
			t.Fatalf("stream %d: first Next = false, err %v", i, s.Err())
		}
	}

	// The 17th start must be refused — and the refusal must reach us even
	// with no deadline on the context.
	s := c.ScanStream(ctx, 0, 0)
	defer s.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if s.Next() {
			t.Error("Next on a refused stream returned true")
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("refused scan did not fail promptly (refusal frame dropped?)")
	}
	if err := s.Err(); !errors.Is(err, client.ErrOverload) {
		t.Fatalf("refused scan Err = %v, want ErrOverload in the chain", err)
	}
	var oe *client.OverloadError
	if !errors.As(s.Err(), &oe) {
		t.Fatalf("refused scan Err = %v, want *OverloadError", s.Err())
	}
	requireSound(t, idx)
}

// TestScannerCloseWithoutNext: a Scanner abandoned before its first Next
// must not leak or wedge anything.
func TestScannerCloseWithoutNext(t *testing.T) {
	withScanClient(t, func(t *testing.T, c *client.Client) {
		ctx := context.Background()
		if err := c.Insert(ctx, 1, 1); err != nil {
			t.Fatal(err)
		}
		s := c.ScanStream(ctx, 0, 0)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if s.Next() {
			t.Fatal("Next after Close returned true")
		}
		// The client is untouched.
		if v, ok, err := c.Get(ctx, 1); err != nil || !ok || v != 1 {
			t.Fatalf("Get after abandoned scan = %d,%v,%v", v, ok, err)
		}
	})
}
