package server_test

// End-to-end tests for the streaming scan: a large scan must arrive
// complete and ordered while the server's per-connection outbound queue stays
// bounded by the credit window (the whole point of streaming — no frame
// carries the full result), streams must
// interleave with point ops on the same connection, and cancellation must
// release the stream without hurting the connection.

import (
	"context"
	"testing"
	"time"

	"dytis/client"
	"dytis/internal/core"
	"dytis/internal/proto"
	"dytis/internal/server"
)

// bigOpts sizes the index for bulk key counts (smallOpts' tiny segments make
// million-key loads needlessly slow).
func bigOpts() core.Options {
	return core.Options{FirstLevelBits: 6, BucketEntries: 128, StartDepth: 2, Concurrent: true}
}

// TestScanStreamLargeBounded is the streaming acceptance test: a scan of the
// whole keyspace (1M keys, 64K under -short) completes correctly while the
// server buffers no more than the credit window's worth of chunk frames.
func TestScanStreamLargeBounded(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	idx := core.New(bigOpts())
	for k := 0; k < n; k++ {
		idx.Insert(uint64(k), uint64(k)+1)
	}
	m := &server.Metrics{}
	addr, _ := start(t, idx, server.Config{Metrics: m})

	const chunk, window = 1024, 8
	c, err := client.Dial(addr, client.WithPoolSize(1), client.WithScanStream(chunk, window))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	s := c.ScanStream(ctx, 0, 0)
	defer s.Close()
	var count uint64
	for s.Next() {
		if s.Key() != count || s.Value() != count+1 {
			t.Fatalf("pair %d: got %d/%d", count, s.Key(), s.Value())
		}
		count++
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if count != uint64(n) {
		t.Fatalf("stream delivered %d pairs, want %d", count, n)
	}
	if got := s.Total(); got != uint64(n) {
		t.Fatalf("Total = %d, want the server's end-of-stream count %d", got, n)
	}
	if m.ScanStreams() != 1 || m.ScanChunks() == 0 {
		t.Fatalf("stream metrics = %d streams / %d chunks", m.ScanStreams(), m.ScanChunks())
	}

	// Bounded buffering: the peak of the connection's outbound queue must
	// stay within the credit window — `window` full chunk frames plus one
	// frame of slack for the end-of-stream and handshake traffic — which is
	// a small fraction of the ~16 MiB a slurped scan of n pairs marshals.
	full := make([]uint64, chunk)
	frame, err := proto.AppendResponseV(nil, &proto.Response{
		Op: proto.OpScanChunk, Keys: full, Vals: full,
	}, proto.Version2)
	if err != nil {
		t.Fatal(err)
	}
	chunkFrame := int64(len(frame) + proto.TrailerLen)
	budget := (window + 1) * chunkFrame
	peak := m.OutQueuePeakBytes()
	if peak == 0 || peak > budget {
		t.Fatalf("out-queue peak = %d bytes, want (0, %d] (window of %d chunk frames)", peak, budget, window)
	}
	t.Logf("scanned %d pairs in %d-pair chunks; out-queue peak %d bytes (budget %d)", n, chunk, peak, budget)
}

// TestScanStreamBudget: ScanMax caps the stream server-side, mid-chunk when
// it has to.
func TestScanStreamBudget(t *testing.T) {
	idx := core.New(smallOpts())
	for k := 0; k < 5000; k++ {
		idx.Insert(uint64(k), uint64(k))
	}
	addr, _ := start(t, idx, server.Config{})
	c, err := client.Dial(addr, client.WithScanStream(1000, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	s := c.ScanStream(context.Background(), 0, 2500)
	defer s.Close()
	var count uint64
	for s.Next() {
		if s.Key() != count {
			t.Fatalf("pair %d: key %d", count, s.Key())
		}
		count++
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if count != 2500 || s.Total() != 2500 {
		t.Fatalf("delivered %d (total %d), want 2500", count, s.Total())
	}
}

// TestScanStreamInterleavesPointOps: with one pooled connection, point ops
// issued while a stream is mid-flight share the pipeline and both finish
// correctly — a streamed scan must not monopolize the connection.
func TestScanStreamInterleavesPointOps(t *testing.T) {
	idx := core.New(smallOpts())
	const n = 20000
	for k := 0; k < n; k++ {
		idx.Insert(uint64(k), uint64(k)*2)
	}
	addr, _ := start(t, idx, server.Config{})
	c, err := client.Dial(addr, client.WithPoolSize(1), client.WithScanStream(64, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	// The stream is capped at the n preloaded keys; the interleaved inserts
	// land above them and stay out of its result.
	s := c.ScanStream(ctx, 0, n)
	defer s.Close()
	var count uint64
	for s.Next() {
		if s.Key() != count || s.Value() != count*2 {
			t.Fatalf("pair %d: %d/%d", count, s.Key(), s.Value())
		}
		// Every few chunks, a point read and a write cut into the stream.
		if count%1000 == 0 {
			k := count % n
			if v, ok, err := c.Get(ctx, k); err != nil || !ok || v != k*2 {
				t.Fatalf("interleaved Get(%d) = %d,%v,%v", k, v, ok, err)
			}
			if err := c.Insert(ctx, uint64(n)+count, 1); err != nil {
				t.Fatalf("interleaved Insert: %v", err)
			}
		}
		count++
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("stream delivered %d pairs, want the %d preloaded", count, n)
	}
}

// TestScanStreamCancel: closing a Scanner mid-stream cancels it server-side
// and the connection remains fully usable, including for another stream.
func TestScanStreamCancel(t *testing.T) {
	idx := core.New(smallOpts())
	const n = 50000
	for k := 0; k < n; k++ {
		idx.Insert(uint64(k), uint64(k))
	}
	m := &server.Metrics{}
	addr, _ := start(t, idx, server.Config{Metrics: m})
	c, err := client.Dial(addr, client.WithPoolSize(1), client.WithScanStream(128, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	s := c.ScanStream(ctx, 0, 0)
	for i := 0; i < 100; i++ {
		if !s.Next() {
			t.Fatalf("Next = false at pair %d: %v", i, s.Err())
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The connection took the cancel in stride: point ops and a fresh,
	// complete stream still work on it.
	if v, ok, err := c.Get(ctx, 7); err != nil || !ok || v != 7 {
		t.Fatalf("Get after cancel = %d,%v,%v", v, ok, err)
	}
	s2 := c.ScanStream(ctx, 0, 0)
	defer s2.Close()
	var count uint64
	for s2.Next() {
		count++
	}
	if err := s2.Err(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("post-cancel stream delivered %d pairs, want %d", count, n)
	}
	if m.ScanStreams() != 2 {
		t.Fatalf("ScanStreams = %d, want 2", m.ScanStreams())
	}
}

// TestScanStreamContextCancel: a context cancelled mid-stream ends the
// iterator with ctx.Err() while the connection survives for later calls.
func TestScanStreamContextCancel(t *testing.T) {
	idx := core.New(smallOpts())
	for k := 0; k < 50000; k++ {
		idx.Insert(uint64(k), uint64(k))
	}
	addr, _ := start(t, idx, server.Config{})
	c, err := client.Dial(addr, client.WithPoolSize(1), client.WithScanStream(128, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	s := c.ScanStream(ctx, 0, 0)
	defer s.Close()
	for i := 0; i < 50; i++ {
		if !s.Next() {
			t.Fatalf("Next = false at pair %d: %v", i, s.Err())
		}
	}
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for s.Next() {
		if time.Now().After(deadline) {
			t.Fatal("stream still yielding long after context cancel")
		}
	}
	if err := s.Err(); err == nil {
		t.Fatal("cancelled stream ended with nil Err")
	}
	if v, ok, err := c.Get(context.Background(), 9); err != nil || !ok || v != 9 {
		t.Fatalf("Get after context cancel = %d,%v,%v", v, ok, err)
	}
}

// TestScanStreamRequiresNegotiation: an OpScanStart on a connection that
// skipped the handshake is refused like any other first frame that is not a
// HELLO, and the connection closes.
func TestScanStreamRequiresNegotiation(t *testing.T) {
	idx := core.New(smallOpts())
	addr, _ := start(t, idx, server.Config{})
	nc := dialPlain(t, addr)
	resp := hello(t, nc, proto.Request{ID: 1, Op: proto.OpScanStart, Max: 10, Credits: 1})
	if resp.Status != proto.StatusBadRequest {
		t.Fatalf("OpScanStart before the handshake answered %+v, want bad-request", resp)
	}
	requireClosed(t, nc, "an OpScanStart before the handshake")
}
